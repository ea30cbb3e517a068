"""Run the benchmark on two checkouts in alternating pairs and write every
result line to one BENCH_<tag>.json.

    python3 benchmarks/pairs.py --parent DIR --change DIR --seeds 1 2 3 \\
        --workload all --out BENCH_tag.json

Each seed is one pair: both checkouts run
`perfbench/run.py --workload W --seed S --seconds 40 --trace 0` from their
own tree, and the side that runs first alternates from pair to pair. The
file keeps each run's JSON result lines with the core count and load
average from its summary.json, and per workload and end-to-end metric
(as the change's BENCHMARK.json lists them, with the direction that is
better) the median and quartiles of each side and the number of pairs the
change won (ties count for neither side). With `--layers`, it then runs
`benchmarks/layers.py` on the two source trees and adds its per-layer
kernel timings under "layers". Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 40


def run_side(tree: Path, workload: str, seed: int) -> list[dict]:
    """One benchmark run in `tree`: a record per workload it ran."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    results = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    names = [w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]
    names = names if workload == "all" else [workload]
    records = []
    for name, result in zip(names, results, strict=True):
        summary = tree / ".perfbench_work" / f"{name}-seed{seed}-trace0" / "summary.json"
        env = json.loads(summary.read_text())["environment"]
        records.append({
            "workload": name,
            "seed": seed,
            "commit": env["commit"],
            "cpu_count": env["cpu_count"],
            "nproc": env["nproc"],
            "loadavg_start": env["loadavg_start"],
            "loadavg_end": env["loadavg_end"],
            "result": result,
        })
    return records


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric (BENCHMARK.json entries with a
    `name` and a `better` of "lower" or "higher"): each side's median and
    quartiles, and the pairs (same seed) the change won."""
    table: dict = {}
    for rec in runs["parent"]:
        twin = next(r for r in runs["change"]
                    if (r["workload"], r["seed"]) == (rec["workload"], rec["seed"]))
        for metric in end_to_end:
            row = table.setdefault(rec["workload"], {}).setdefault(
                metric["name"], {"parent": [], "change": [], "change_wins": 0, "pairs": 0})
            p = rec["result"]["metrics"][metric["name"]]["value"]
            c = twin["result"]["metrics"][metric["name"]]["value"]
            row["parent"].append(p)
            row["change"].append(c)
            row["pairs"] += 1
            row["change_wins"] += c < p if metric["better"] == "lower" else c > p
    for metrics in table.values():
        for row in metrics.values():
            row["parent"] = quartiles(row["parent"])
            row["change"] = quartiles(row["change"])
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--layers", action="store_true",
                        help="add benchmarks/layers.py timings of both trees")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = (args.parent if side == "parent" else args.change).resolve()
            runs[side] += run_side(tree, args.workload, seed)
            print(f"seed {seed} {side} done", file=sys.stderr, flush=True)
    report = {
        "command": f"perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": args.seeds,
        "comparison": compare(runs, benchmark["end_to_end"]),
        "runs": runs,
    }
    if args.layers:
        cmd = [sys.executable, str(Path(__file__).with_name("layers.py")),
               "--src", f"parent={args.parent.resolve() / 'src'}",
               "--src", f"change={args.change.resolve() / 'src'}"]
        report["layers"] = json.loads(
            subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
