"""Experiment grid orchestration: repeat (window x lag x plan x mode)
cells, aggregate per-run RMSEs, pair clean/leaky cells into gain records,
and emit the CSV/JSON reports.

Per-run seeds derive from the base seed and the cell coordinates (never
from grid position), so a cell's results do not depend on which other
cells run alongside it and grids can execute concurrently. A null base
seed draws one base seed per experiment; the report's provenance records
it, so the run can be replayed.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import platform
import secrets
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__
from .audit import AuditReport, audit
from .errors import ContaminationError, DataError, LeakbenchError, SplitError
from .forecaster import (
    TrainConfig,
    baseline_linear_ar,
    baseline_persistence,
    predict,
    train_many,
)
from .metrics import (
    GainRecord,
    RunStats,
    aggregate,
    leakage_rank,
    make_gain_record,
    plan_sort_key,
    rmse,
)
from .records import Record
from .series import TimeSeries, load_csv
from .splitting import SplitPlan, SplitSpec, SplitResult, split
from .windowing import WindowConfig

MODELS = ("lstm", "persistence", "linear_ar")

_CONVENTIONS = {
    "k_fold_run_rmse": "mean of the k per-fold test RMSEs",
    "early_stopping_monitor": "validation MSE when a validation split exists, else training MSE",
    "leakage_rank": "ascending |gain_percent| within a (window, lag) group; ties by plan order 2-way, 3-way, k-fold",
}


def _read_json(p: Path, missing: str):
    """The parsed JSON content of file `p`; `missing` begins the error
    raised when there is no such file."""
    if not p.exists():
        raise LeakbenchError(f"{missing}: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LeakbenchError(f"{p}: invalid JSON: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig(Record):
    """Everything one experiment grid needs, mirrored 1:1 by the JSON
    config file."""

    name: str
    dataset: str
    windows: tuple[int, ...]
    lags: tuple[int, ...]
    plans: tuple[SplitPlan, ...]
    modes: tuple[str, ...]
    train: TrainConfig
    value_column: str = "meantemp"
    date_column: str = "date"
    order: str = "sequential"
    model: str = "lstm"
    hidden_size: int = 64
    repetitions: int = 10
    base_seed: int | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise LeakbenchError(f"repetitions must be >= 1, got {self.repetitions}")
        for grid, label in ((self.windows, "windows"), (self.lags, "lags"),
                            (self.plans, "plans"), (self.modes, "modes")):
            if not grid:
                raise LeakbenchError(f"grid list '{label}' must be non-empty")
        if self.model not in MODELS:
            raise LeakbenchError(f"unknown model {self.model!r} (expected one of {MODELS})")
        for label in ("windows", "lags"):
            values = getattr(self, label)
            for v in values:
                if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                    raise LeakbenchError(f"grid list '{label}' takes integers, got {v!r}")
            object.__setattr__(self, label, tuple(int(v) for v in values))
        object.__setattr__(self, "plans", tuple(self.plans))
        object.__setattr__(self, "modes", tuple(self.modes))
        # A cell's key is (window, lag, plan label, mode), so a repeated
        # entry would make two cells that share one key and one seed.
        for label, keys in (("windows", self.windows), ("lags", self.lags),
                            ("plans", [p.label for p in self.plans]), ("modes", self.modes)):
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise LeakbenchError(f"grid list '{label}' repeats {key!r}")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(_read_json(Path(path), "no such config file"))


@dataclass(frozen=True)
class CellResult(Record):
    """Aggregated outcome of all repetitions of one cell."""

    window: int
    lag: int
    plan: str
    mode: str
    stats: RunStats
    run_rmses: tuple[float, ...]
    max_overlap: int
    audits: tuple[AuditReport, ...]


@dataclass(frozen=True, eq=False)
class ExperimentReport(Record):
    """All cell results, gain records, and provenance of one grid run."""

    name: str
    cells: tuple[CellResult, ...]
    gains: tuple[GainRecord, ...]
    provenance: dict
    errors: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExperimentReport) and self.to_dict() == other.to_dict()


def derive_seed(base_seed: int | None, *parts) -> int | None:
    """Stable per-(cell, repetition) seed; None propagates fresh entropy."""
    if base_seed is None:
        return None
    key = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "big")) & ((1 << 63) - 1)


def cell_key(spec: SplitSpec) -> tuple[int, int, str, str]:
    """The coordinates of the cell a SplitSpec belongs to: (window, lag,
    plan label, mode)."""
    return (spec.window.window_size, spec.window.lag_step, spec.plan.label, spec.mode)


def grid_splits(cfg: ExperimentConfig) -> list[tuple[SplitSpec, ...]]:
    """Every cell of the grid in run order, as the SplitSpec of each of its
    repetitions. `run` trains on these splits and `audit` audits them."""
    cells = [
        SplitSpec(plan=p, mode=m, window=WindowConfig(w, l), order=cfg.order)
        for w in cfg.windows
        for l in cfg.lags
        for p in cfg.plans
        for m in cfg.modes
    ]
    return [
        tuple(
            replace(cell, seed=derive_seed(cfg.base_seed, *cell_key(cell), rep, "split"))
            for rep in range(cfg.repetitions)
        )
        for cell in cells
    ]


def _score_folds(
    cfg: ExperimentConfig, results: list[SplitResult], train_seeds: list[int | None]
) -> tuple[list[float], list[tuple[int, int]] | None]:
    """Fit and score every fold: the test RMSE of each fold and, for the
    LSTM, each fold's (optimal, last) epoch (None for the baselines). The
    LSTMs of all folds train together in one `train_many` call."""
    if cfg.model == "persistence":
        return [
            rmse(baseline_persistence(res.test), res.test.targets()) for res in results
        ], None
    if cfg.model == "linear_ar":
        return [
            rmse(baseline_linear_ar(res.train, res.test), res.test.targets()) for res in results
        ], None
    jobs = [(res.train, res.val, seed) for res, seed in zip(results, train_seeds)]
    outcomes = train_many(jobs, cfg.train, hidden_size=cfg.hidden_size)
    rmses = [
        rmse(predict(out.model, out.scaler, res.test), res.test.targets())
        for res, out in zip(results, outcomes)
    ]
    return rmses, [(out.optimal_epoch, out.last_epoch) for out in outcomes]


def _run_once(
    series: TimeSeries, cfg: ExperimentConfig, rep: int, spec: SplitSpec
) -> tuple[float, tuple[float, float] | None, tuple[AuditReport, ...]]:
    """One repetition of one cell: its mean fold RMSE, its mean (optimal,
    last) epoch (None for the baselines) and the audit of every fold."""
    window, lag, plan, mode = key = cell_key(spec)
    results = split(series, spec)
    audits = tuple(audit(res) for res in results)
    for res, report in zip(results, audits):
        if mode == "clean" and report.is_contaminated:
            raise ContaminationError(
                f"clean cell audited contaminated: W={window} L={lag} "
                f"plan={plan} fold={res.fold_index} "
                f"overlap={report.overlap_count}"
            )
    train_seeds = [
        derive_seed(cfg.base_seed, *key, rep, res.fold_index, "train") for res in results
    ]
    rmses, epochs = _score_folds(cfg, results, train_seeds)
    mean_epochs = None if epochs is None else tuple(np.mean(epochs, axis=0).tolist())
    return float(np.mean(rmses)), mean_epochs, audits


def _execute_task(series: TimeSeries, cfg: ExperimentConfig, task: tuple[int, SplitSpec]):
    """One (repetition, SplitSpec) unit of work; module-level so worker
    processes can pickle it. Errors of any kind come back as values and are
    re-raised (or recorded) by the parent, so one failing task cannot lose
    the rest of the grid."""
    try:
        return _run_once(series, cfg, *task)
    except Exception as exc:
        return exc


def environment(workers: int) -> dict:
    """The software and machine a run's last bits depend on: interpreter,
    numpy version, the BLAS numpy was built with, the SIMD extensions numpy
    found on this CPU (its tanh and exp are SIMD code), the core count and
    the worker count. The scipy version is recorded too: scipy no longer
    computes any part of a run's results, but it builds the bundled
    reference series a config may name as its dataset."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "simd_found": list(config["SIMD Extensions"]["found"]),
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def run_experiment(
    cfg: ExperimentConfig, workers: int = 1, keep_going: bool = False
) -> ExperimentReport:
    """Execute the full grid.

    Each repetition of each cell is one run: split, audit every fold (a
    contaminated clean fold aborts the whole experiment regardless of
    keep_going), train all folds together, predict on test, RMSE. A cell's
    run RMSE under k-fold is the mean of its per-fold test RMSEs. Cell
    failures abort unless keep_going, in which case they are recorded in
    report.errors; a worker process that dies fails the tasks it took down
    and those not yet started, and the results that came back are kept. A
    null base_seed is replaced by one drawn seed, which the provenance
    config records (with base_seed_drawn true). The provenance also records
    the environment (`environment`). `workers` must be >= 1.
    """
    if workers < 1:
        raise LeakbenchError(f"workers must be >= 1, got {workers}")
    seed_drawn = cfg.base_seed is None
    if seed_drawn:
        cfg = replace(cfg, base_seed=secrets.randbits(63))
    series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
    grid = grid_splits(cfg)
    tasks = [(rep, spec) for specs in grid for rep, spec in enumerate(specs)]

    execute = partial(_execute_task, series, cfg)
    if workers > 1:
        # Imported here: multiprocessing adds 0.5 MB to every serial run.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        completed = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute, task) for task in tasks]
            for future in futures:
                try:
                    completed.append(future.result())
                except BrokenProcessPool as exc:
                    # A worker died (a signal, out of memory): the tasks it
                    # took down and those not yet started fail like any
                    # other task.
                    completed.append(exc)
    else:
        completed = [execute(t) for t in tasks]

    # Results come back in task order, so each cell's repetitions are
    # consecutive and ordered by rep.
    errors: list[str] = []
    cell_results = []
    reps = cfg.repetitions
    for i, specs in enumerate(grid):
        window, lag, plan, mode = cell_key(specs[0])
        runs = []
        for rep, outcome in enumerate(completed[i * reps:(i + 1) * reps]):
            if isinstance(outcome, ContaminationError):
                raise outcome
            if isinstance(outcome, Exception):
                detail = outcome if isinstance(outcome, LeakbenchError) else (
                    f"{type(outcome).__name__}: {outcome}"
                )
                msg = f"cell W={window} L={lag} plan={plan} mode={mode} rep={rep}: {detail}"
                if not keep_going:
                    raise SplitError(msg) from outcome
                errors.append(msg)
            else:
                runs.append(outcome)
        if len(runs) < reps:
            continue
        rmses, epochs, audits = zip(*runs)
        cell_results.append(
            CellResult(
                window=window,
                lag=lag,
                plan=plan,
                mode=mode,
                stats=aggregate(rmses) if epochs[0] is None else aggregate(rmses, *zip(*epochs)),
                run_rmses=rmses,
                max_overlap=max(a.overlap_count for run in audits for a in run),
                audits=audits[0],
            )
        )
    cell_results.sort(key=lambda c: (c.window, c.lag, plan_sort_key(c.plan), c.mode))

    gains = _pair_gains(cell_results)
    provenance = {
        "config": cfg.to_dict(),
        "base_seed_drawn": seed_drawn,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "conventions": dict(_CONVENTIONS),
        "environment": environment(workers),
    }
    return ExperimentReport(
        name=cfg.name,
        cells=tuple(cell_results),
        gains=tuple(gains),
        provenance=provenance,
        errors=tuple(errors),
    )


def _ranked_gains(means: dict[tuple, tuple[float, float]]) -> list[GainRecord]:
    """One GainRecord per (window, lag, plan) key of (clean, leaky) mean
    RMSEs, ordered by window, lag and plan and ranked inside each
    (window, lag) group."""
    groups: dict[tuple, list[GainRecord]] = {}
    for window, lag, plan in sorted(means, key=lambda k: (k[0], k[1], plan_sort_key(k[2]))):
        clean, leaky = means[(window, lag, plan)]
        groups.setdefault((window, lag), []).append(
            make_gain_record(window, lag, plan, clean=clean, leaky=leaky)
        )
    return [r for key in sorted(groups) for r in leakage_rank(groups[key])]


def _pair_gains(cells: list[CellResult]) -> list[GainRecord]:
    """One GainRecord per (window, lag, plan) with both modes present."""
    by_coord: dict[tuple, dict[str, float]] = {}
    for c in cells:
        by_coord.setdefault((c.window, c.lag, c.plan), {})[c.mode] = c.stats.mean
    return _ranked_gains({
        coord: (modes["clean"], modes["leaky"])
        for coord, modes in by_coord.items()
        if "clean" in modes and "leaky" in modes
    })


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of values, each
    ending in a newline."""
    return "\n".join([header, *(",".join(_fmt(v) for v in row) for row in rows)]) + "\n"


CELL_CSV_HEADER = (
    "name,window,lag,plan,mode,n_runs,min,max,mean,std,stderr,ci_low,ci_high,"
    "mean_optimal_epoch,mean_last_epoch,max_overlap"
)
GAIN_CSV_HEADER = "window,lag,plan,clean,leaky,gain_percent,direction,rank"
RUN_CSV_HEADER = "name,window,lag,plan,mode,run,rmse"


def emit_report(report: ExperimentReport, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write the report to disk.

    csv: `cells.csv` with one row per cell
    (name,window,lag,plan,mode,n_runs,min,max,mean,std,stderr,ci_low,
    ci_high,mean_optimal_epoch,mean_last_epoch,max_overlap), `gains.csv`
    (window,lag,plan,clean,leaky,gain_percent,direction,rank) and
    `runs.csv` with one row per (cell, run)
    (name,window,lag,plan,mode,run,rmse). Floats use repr so identical
    reports are byte-identical and re-ingestion is exact.

    json: `report.json` carrying the full structure including audit detail;
    parsing it back reproduces the report exactly.
    """
    if fmt == "json":
        texts = {"report.json": json.dumps(report.to_dict(), indent=2) + "\n"}
    elif fmt == "csv":
        rows = []
        for c in report.cells:
            s = c.stats
            ci_low, ci_high = (s.ci95 if s.ci95 is not None else (None, None))
            rows.append((
                report.name, c.window, c.lag, c.plan, c.mode, s.n_runs,
                s.min, s.max, s.mean, s.std, s.stderr, ci_low, ci_high,
                s.mean_optimal_epoch, s.mean_last_epoch, c.max_overlap,
            ))
        texts = {
            "cells.csv": _csv_text(CELL_CSV_HEADER, rows),
            "gains.csv": gains_csv(report.gains),
            "runs.csv": _csv_text(RUN_CSV_HEADER, (
                (report.name, c.window, c.lag, c.plan, c.mode, run, value)
                for c in report.cells
                for run, value in enumerate(c.run_rmses)
            )),
        }
    else:
        raise LeakbenchError(f"unknown report format {fmt!r} (expected csv or json)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in texts]


def gains_csv(records: Sequence[GainRecord]) -> str:
    """The text of a `gains.csv` holding `records`."""
    return _csv_text(GAIN_CSV_HEADER, (
        (g.window, g.lag, g.plan, g.rmse_clean, g.rmse_leaky,
         g.gain_percent, g.direction, g.leakage_rank)
        for g in records
    ))


def load_report(path: str | Path) -> ExperimentReport:
    p = Path(path)
    if p.is_dir():
        p = p / "report.json"
    return ExperimentReport.from_dict(_read_json(p, "no report found at"))


def recompute_gains(clean_csv: str | Path, leaky_csv: str | Path) -> list[GainRecord]:
    """Rebuild gain records from two previously written cells.csv files,
    matching (window, lag, plan) between clean rows and leaky rows."""
    import csv as _csv

    def read_means(path: str | Path, mode: str) -> dict[tuple, float]:
        p = Path(path)
        if not p.exists():
            raise LeakbenchError(f"no such report file: {p}")
        means: dict[tuple, float] = {}
        with open(p, newline="", encoding="utf-8") as fh:
            reader = _csv.DictReader(fh)
            for col in ("window", "lag", "plan", "mode", "mean"):
                if col not in (reader.fieldnames or ()):
                    raise DataError(f"{p}: missing column '{col}' (have {reader.fieldnames})")
            for row in reader:
                if row["mode"] != mode:
                    continue
                try:
                    key = (int(row["window"]), int(row["lag"]), row["plan"])
                    mean = float(row["mean"])
                except (TypeError, ValueError) as exc:
                    raise DataError(
                        f"{p}: line {reader.line_num}: cannot parse row: {exc}"
                    ) from exc
                if key in means:
                    raise DataError(
                        f"{p}: line {reader.line_num}: repeats cell W={key[0]} "
                        f"L={key[1]} plan={key[2]} mode={mode}"
                    )
                means[key] = mean
        if not means:
            raise LeakbenchError(f"{p}: no rows with mode={mode!r}")
        return means

    clean = read_means(clean_csv, "clean")
    leaky = read_means(leaky_csv, "leaky")
    shared = {key: (clean[key], leaky[key]) for key in clean if key in leaky}
    if not shared:
        raise LeakbenchError("no matching (window, lag, plan) cells between the reports")
    return _ranked_gains(shared)
