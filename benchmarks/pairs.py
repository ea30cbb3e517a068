"""Run the benchmark on two checkouts in alternating pairs and write every
result line to one BENCH_<tag>.json.

    python3 benchmarks/pairs.py --parent DIR --change DIR --seeds 1 2 3 \\
        --workload all --out BENCH_tag.json

Each seed is one pair: both checkouts run
`perfbench/run.py --workload W --seed S --seconds 40 --trace 0` from their
own tree, and the side that runs first alternates from pair to pair. The
file keeps each run's JSON result lines with the core count and load
average from its summary.json, and per workload and end-to-end metric the
median and quartiles of each side and the number of pairs the change won
(ties count for neither side). Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 40
METRICS = {"run_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


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


def compare(runs: dict[str, list[dict]]) -> dict:
    """Per workload and metric: each side's median and quartiles, and the
    pairs (same seed) the change won."""
    table: dict = {}
    for rec in runs["parent"]:
        twin = next(r for r in runs["change"]
                    if (r["workload"], r["seed"]) == (rec["workload"], rec["seed"]))
        for metric in METRICS:
            row = table.setdefault(rec["workload"], {}).setdefault(
                metric, {"parent": [], "change": [], "change_wins": 0, "pairs": 0})
            p = rec["result"]["metrics"][metric]["value"]
            c = twin["result"]["metrics"][metric]["value"]
            row["parent"].append(p)
            row["change"].append(c)
            row["pairs"] += 1
            row["change_wins"] += c < p
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
    args = parser.parse_args(argv)

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
        "comparison": compare(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
