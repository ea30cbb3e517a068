"""Check that two checkouts write the same reports: run `leakbench run` and
`leakbench audit` from each one's `src` on the fast variants of the desk
grid, read each run back with `leakbench report --format csv`, and compare
what they write.

    python3 benchmarks/same_reports.py --parent DIR --change DIR

The variants are `configs/phase3_desk.json` (of the checkout this script
is in) with these changes:

- desk-linear_ar: model linear_ar;
- desk-persistence: model persistence;
- desk-lstm-short: 2 repetitions, 4 epochs, patience 2 (about 10 s a tree
  on 2 cores);
- random-linear_ar: model linear_ar, leaky mode only, order random, 3
  repetitions.

Both checkouts read one copy of the bundled reference series, written by
the parent's `leakbench synth`. `cells.csv`, `gains.csv`, `runs.csv`,
`audits.csv` and the CSVs that `report` re-emits from `report.json` into
`reemit/` must be equal byte for byte, and `report.json` equal apart from
`provenance.created_utc`. Prints one line per variant and exits 1 if
any file differs, naming each one. Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DESK = Path(__file__).resolve().parents[1] / "configs" / "phase3_desk.json"
VARIANTS = {
    "desk-linear_ar": {"model": "linear_ar"},
    "desk-persistence": {"model": "persistence"},
    "desk-lstm-short": {"repetitions": 2, "train": {"epochs": 4, "patience": 2}},
    "random-linear_ar": {"model": "linear_ar", "modes": ["leaky"], "order": "random",
                         "repetitions": 3},
}
REEMIT = "reemit"
BYTE_FILES = ("cells.csv", "gains.csv", "runs.csv", "audits.csv",
              *(f"{REEMIT}/{name}" for name in ("cells.csv", "gains.csv", "runs.csv")))


def variant_config(overrides: dict, dataset: Path) -> dict:
    """The desk config with `overrides` applied (a dict value updates the
    desk config's dict), reading `dataset`."""
    cfg = json.loads(DESK.read_text(encoding="utf-8"))
    for key, value in overrides.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    cfg["dataset"] = str(dataset)
    return cfg


def leakbench(tree: Path, *args: str) -> None:
    """Run the `leakbench` CLI from the source of checkout `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "leakbench.cli", *args], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: leakbench {' '.join(args)} exited {done.returncode}:\n"
                         f"{done.stderr}")


def differing_files(a: Path, b: Path) -> list[str]:
    """The report files that differ between directories `a` and `b`, or are
    missing from either: the CSVs byte for byte, report.json apart from
    its provenance's created_utc."""
    differ = []
    for name in BYTE_FILES:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()) or pa.read_bytes() != pb.read_bytes():
            differ.append(name)
    reports = []
    for path in (a / "report.json", b / "report.json"):
        report = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
        if report is not None:
            report.get("provenance", {}).pop("created_utc", None)
        reports.append(report)
    if reports[0] is None or reports[0] != reports[1]:
        differ.append("report.json")
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    failed = False
    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        work = Path(tmp)
        dataset = work / "climate.csv"
        leakbench(args.parent.resolve(), "synth", str(dataset))
        for name, overrides in VARIANTS.items():
            config = work / f"{name}.json"
            config.write_text(json.dumps(variant_config(overrides, dataset)), encoding="utf-8")
            outs = []
            for side in ("parent", "change"):
                tree, out = getattr(args, side).resolve(), work / name / side
                leakbench(tree, "run", str(config), "--out", str(out))
                leakbench(tree, "audit", str(config), "--out", str(out))
                leakbench(tree, "report", str(out), "--format", "csv", "--out", str(out / REEMIT))
                outs.append(out)
            differ = differing_files(*outs)
            failed = failed or bool(differ)
            print(f"{name}: " + (f"differ: {', '.join(differ)}" if differ else "identical"),
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
