"""Record the outputs that the benchmark's correctness checks compare with,
into reference.json beside this file.

    python3 perfbench/record.py

Audit counts, grid overlaps and the linear-AR reports do not depend on the
seed; they are recorded on two seeds and must agree. LSTM RMSEs are
recorded for seeds 0..LSTM_SEEDS-1. Re-record only for a change to leakbench that is
meant to change these outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from passrun import ROOT, import_leakbench

REFERENCE = Path(__file__).resolve().parent / "reference.json"
LSTM_SEEDS = 32


def observe(w, seed: int, work: Path):
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    w.prepare(inputs, seed)
    p = w.run(w.setup(inputs), out)
    w.read_reports(p, out)
    if p.errors:
        raise SystemExit(f"{w.name} seed {seed}: {p.errors}")
    return p


def main() -> None:
    import_leakbench()
    from workloads import WORKLOADS

    reference: dict = {}
    for name, w in WORKLOADS.items():
        seeds = range(2) if w.seed_independent else range(LSTM_SEEDS)
        entry: dict = {}
        for seed in seeds:
            p = observe(w, seed, ROOT / ".perfbench_work" / "record")
            recorded = w.record(p, seed, entry)
            if entry and any(entry[k] != recorded[k] for k in entry if k != "rmse"):
                raise SystemExit(f"{name}: seed-independent outputs differ on seed {seed}")
            if "rmse" in entry and "*" in entry["rmse"] and entry["rmse"] != recorded["rmse"]:
                raise SystemExit(f"{name}: reports differ on seed {seed}")
            entry = recorded
            print(f"recorded {name} seed {seed}", flush=True)
        reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(ROOT / ".perfbench_work" / "record", ignore_errors=True)


if __name__ == "__main__":
    main()
