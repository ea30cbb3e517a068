"""The benchmark's workloads: input generation, one timed pass, and the
correctness checks on its public outputs.

Every workload drives leakbench only through public entry points and reads
back only public outputs (`len()` of sequence sets, `AuditReport` fields,
written CSV reports). Why each workload exists is in README.md beside this
file.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from pathlib import Path

import numpy as np

# Tolerances on RMSE-like report values against the recorded reference on
# the recorded seeds. Fits are deterministic for a seed within one
# environment; these leave room for summation-order changes only.
LSTM_RTOL = 1e-6
AR_RTOL = 1e-9

AUDIT_N = 30_000
AUDIT_WINDOW = (10, 1)
AUDIT_PLANS = ({"kind": "two_way"}, {"kind": "three_way"}, {"kind": "k_fold", "k": 10})
# (plan label, fold index) of the leaky splits whose minimal clearing gap is searched
AUDIT_GAPS = (("2-way", 0), ("10-fold", 1))
MODES = ("clean", "leaky")

# The grid users run (180 tasks; 720 fits with its 10-fold plan). Both grid
# workloads start from it, so a change to it changes what they measure.
DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "phase3_desk.json"
DESK = json.loads(DESK_CONFIG.read_text(encoding="utf-8"))

# One repetition of the desk grid's 10-fold clean+leaky LSTM cell at lag 3
# (2 tasks, 20 fits), trained 5 epochs with patience 3.
KFOLD_LSTM_GRID = {
    **DESK,
    "name": "kfold-lstm",
    "lags": [3],
    "plans": [{"kind": "k_fold", "k": 10}],
    "train": {**DESK["train"], "epochs": 5, "patience": 3},
    "repetitions": 1,
}

# The desk grid with linear AR in place of the LSTM.
DESK_GRID_AR = {**DESK, "name": "desk-grid-ar", "model": "linear_ar"}


def _mod(name: str):
    """A leakbench submodule, looked up at call time so that traced passes
    see the wrapped functions. (`leakbench.audit` names the function.)"""
    return importlib.import_module(f"leakbench.{name}")


def _plan(d: dict):
    from leakbench.splitting import SplitPlan

    return SplitPlan.from_dict(d)


def _plan_label(d: dict) -> str:
    return f"{d['k']}-fold" if d["kind"] == "k_fold" else {"two_way": "2-way", "three_way": "3-way"}[d["kind"]]


def _folds(d: dict) -> int:
    return d["k"] if d["kind"] == "k_fold" else 1


def pair_count(result) -> int:
    """Pairs in every partition of one SplitResult, by len() only."""
    return len(result.train) + len(result.test) + (len(result.val) if result.val is not None else 0)


def _gain_cells(gain_key: str) -> list[str]:
    """The clean and leaky cell keys a gains.csv row compares."""
    coord = gain_key[len("gain|"):]
    return [f"cell|{coord}|{mode}" for mode in MODES]


class Pass:
    """What one pass hands to the checks."""

    def __init__(self):
        self.observed: dict[str, object] = {}  # op or cell key -> public output
        self.errors: list[str] = []
        self.pairs = 0


# ---------------------------------------------------------------- audit ----


class AuditWorkload:
    """split + audit on every fold of 2-way, 3-way and 10-fold, clean and
    leaky, plus minimal_clearing_gap on two leaky splits, over a generated
    series of AUDIT_N points. No training."""

    name = f"audit-{AUDIT_N // 1000}k"
    seed_independent = True

    def prepare(self, inputs: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        t = np.arange(AUDIT_N)
        noise = np.empty(AUDIT_N)
        noise[0] = rng.normal()
        shocks = rng.normal(size=AUDIT_N)
        for i in range(1, AUDIT_N):
            noise[i] = 0.8 * noise[i - 1] + shocks[i]
        values = 20.0 + 8.0 * np.sin(2 * np.pi * t / 365.25) + noise
        start = np.datetime64("1900-01-01")
        with open(inputs / "series.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "value"])
            for i, v in enumerate(values):
                writer.writerow([str(start + i), repr(float(v))])
        return {}

    def setup(self, inputs: Path):
        return _mod("series").load_csv(inputs / "series.csv", "value")

    def run(self, state, out: Path) -> Pass:
        from leakbench.errors import LeakbenchError
        from leakbench.windowing import WindowConfig

        splitting, audit = _mod("splitting"), _mod("audit")
        p = Pass()
        window = WindowConfig(*AUDIT_WINDOW)
        gaps = dict(AUDIT_GAPS)
        for plan in AUDIT_PLANS:
            label = _plan_label(plan)
            for mode in MODES:
                key = f"{label}|{mode}"
                try:
                    spec = splitting.SplitSpec(plan=_plan(plan), mode=mode, window=window)
                    results = splitting.split(state, spec)
                    p.observed[f"{key}|split"] = [
                        [len(r.train), len(r.val) if r.val is not None else 0, len(r.test)]
                        for r in results
                    ]
                    p.pairs += sum(pair_count(r) for r in results)
                    for r in results:
                        rep = audit.audit(r)
                        p.observed[f"{key}|audit|{r.fold_index}"] = [
                            rep.overlap_count, rep.contaminated_test_pairs,
                            rep.train_footprint_size, rep.test_footprint_size,
                        ]
                    if mode == "leaky" and label in gaps:
                        p.observed[f"{key}|gap"] = audit.minimal_clearing_gap(results[gaps[label]])
                except LeakbenchError as exc:
                    p.errors.append(f"{key}: {exc}")
                results = None  # free this split before the next one
        return p

    def check(self, p: Pass, reference: dict, seed: int) -> list[str]:
        """One line per failed operation. Pair counts, overlaps and gaps
        depend only on the series length and the plans, so the recorded
        values hold for every seed."""
        expected = reference["observed"]
        bad = []
        for key, value in p.observed.items():
            if "|clean|audit|" in key and value[0] != 0:
                bad.append(f"{key}: clean fold overlaps by {value[0]}")
            elif expected.get(key) != value:
                bad.append(f"{key}: got {value}, recorded {expected.get(key)}")
        return bad + p.errors

    def attempted(self, p: Pass) -> int:
        return len(p.observed) + len(p.errors)

    def record(self, p: Pass, seed: int, reference: dict) -> dict:
        return {"observed": p.observed}

    def read_reports(self, p: Pass, out: Path) -> None:
        pass


# ----------------------------------------------------------------- grids ---


class GridWorkload:
    """A run of an experiment grid over the bundled reference series."""

    def __init__(self, grid: dict, via_cli: bool, rtol: float, seed_independent: bool):
        self.grid = grid
        self.name = grid["name"]
        self.via_cli = via_cli
        self.rtol = rtol
        # Linear AR on sequential splits uses no randomness, so one
        # recorded report is the reference for every seed.
        self.seed_independent = seed_independent

    def prepare(self, inputs: Path, seed: int) -> dict:
        from leakbench.splitting import SplitSpec, split
        from leakbench.synthetic import reference_series, write_reference_csv
        from leakbench.windowing import WindowConfig

        csv_path = write_reference_csv(inputs / "reference.csv")
        cfg = {**self.grid, "dataset": str(csv_path), "base_seed": seed}
        (inputs / "config.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        series = reference_series()
        pairs = 0
        for w in self.grid["windows"]:
            for lag in self.grid["lags"]:
                for plan in self.grid["plans"]:
                    for mode in self.grid["modes"]:
                        spec = SplitSpec(plan=_plan(plan), mode=mode, window=WindowConfig(w, lag))
                        pairs += sum(pair_count(r) for r in split(series, spec))
        plans = self.grid["plans"]
        tasks_per_plan = self.tasks() // len(plans)
        return {
            "pairs_per_pass": pairs * self.grid["repetitions"],
            "fits_per_pass": tasks_per_plan * sum(_folds(plan) for plan in plans),
        }

    def setup(self, inputs: Path):
        config = inputs / "config.json"
        if self.via_cli:
            return config
        return _mod("runner").ExperimentConfig.from_json_file(config)

    def run(self, state, out: Path) -> Pass:
        from leakbench.errors import LeakbenchError

        p = Pass()
        if self.via_cli:
            code = _mod("cli").main(["run", str(state), "--out", str(out)])
            if code != 0:
                p.errors.append(f"leakbench run exited {code}")
        else:
            runner = _mod("runner")
            try:
                report = runner.run_experiment(state)
                runner.emit_report(report, out, fmt="csv")
            except LeakbenchError as exc:
                p.errors.append(str(exc))
        return p

    def read_reports(self, p: Pass, out: Path) -> None:
        """Cells and gains as written to cells.csv / gains.csv."""
        if p.errors:
            return
        with open(out / "cells.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = f"cell|{row['window']}|{row['lag']}|{row['plan']}|{row['mode']}"
                p.observed[key] = [
                    int(row["n_runs"]), int(row["max_overlap"]),
                    float(row["mean"]), float(row["min"]), float(row["max"]),
                ]
        with open(out / "gains.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = f"gain|{row['window']}|{row['lag']}|{row['plan']}"
                p.observed[key] = [
                    float(row["clean"]), float(row["leaky"]), float(row["gain_percent"]),
                ]

    def _close(self, a: list, b: list) -> bool:
        return len(a) == len(b) and all(
            math.isclose(x, y, rel_tol=self.rtol, abs_tol=self.rtol) for x, y in zip(a, b)
        )

    def check(self, p: Pass, reference: dict, seed: int) -> list[str]:
        """One line per cell that fails; a failing gain fails both its cells.
        Overlaps and run counts must equal the recorded ones on every seed;
        RMSEs must be finite and positive on every seed and match the
        recorded ones within `rtol` on the recorded seeds."""
        rmse_ref = reference["rmse"].get("*" if self.seed_independent else str(seed))
        bad: dict[str, str] = {}
        cells = {k: v for k, v in p.observed.items() if k.startswith("cell|")}
        expected_cells = reference["cells"]
        for key in sorted(set(cells) | set(expected_cells)):
            if key not in cells:
                bad[key] = "missing from cells.csv"
                continue
            n_runs, overlap, *rmses = cells[key]
            want_runs, want_overlap = expected_cells.get(key, (None, None))
            if key.endswith("|clean") and overlap != 0:
                bad[key] = f"clean cell overlaps by {overlap}"
            elif (n_runs, overlap) != (want_runs, want_overlap):
                bad[key] = f"n_runs/max_overlap {n_runs}/{overlap}, recorded {want_runs}/{want_overlap}"
            elif not all(math.isfinite(x) and x > 0 for x in rmses):
                bad[key] = f"RMSE not finite and positive: {rmses}"
            elif rmse_ref is not None and not self._close(rmses, rmse_ref.get(key, [])):
                bad[key] = f"RMSE {rmses}, recorded {rmse_ref.get(key)}"
        for key, value in p.observed.items():
            if not key.startswith("gain|"):
                continue
            ok = all(math.isfinite(x) for x in value)
            if ok and rmse_ref is not None:
                ok = self._close(value, rmse_ref.get(key, []))
            if not ok:
                for cell in _gain_cells(key):
                    bad.setdefault(cell, f"{key}: {value}, recorded {rmse_ref and rmse_ref.get(key)}")
        for key in rmse_ref or ():
            if key.startswith("gain|") and key not in p.observed:
                for cell in _gain_cells(key):
                    bad.setdefault(cell, f"{key} missing from gains.csv")
        reps = self.grid["repetitions"]
        lines = [f"{key}: {why}" for key, why in sorted(bad.items()) for _ in range(reps)]
        return (p.errors + lines)[: self.tasks()]

    def attempted(self, p: Pass) -> int:
        return self.tasks()

    def record(self, p: Pass, seed: int, reference: dict) -> dict:
        cells = {k: v[:2] for k, v in p.observed.items() if k.startswith("cell|")}
        rmse = {k: (v[2:] if k.startswith("cell|") else v) for k, v in p.observed.items()}
        by_seed = dict(reference.get("rmse", {}))
        by_seed["*" if self.seed_independent else str(seed)] = rmse
        return {"cells": cells, "rmse": dict(sorted(by_seed.items()))}

    def tasks(self) -> int:
        g = self.grid
        return len(g["windows"]) * len(g["lags"]) * len(g["plans"]) * len(g["modes"]) * g["repetitions"]


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(KFOLD_LSTM_GRID, via_cli=False, rtol=LSTM_RTOL, seed_independent=False),
        AuditWorkload(),
        GridWorkload(DESK_GRID_AR, via_cli=True, rtol=AR_RTOL, seed_independent=True),
    )
}
