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

import csv
import json
import numbers
import os
import platform
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__
from .audit import AuditReport, audit
from .errors import ContaminationError, DataError, LeakbenchError, SplitError, reading
from .forecaster import (
    TrainConfig,
    TrainOutcome,
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
    plan_sort_key,
    rmse,
    rmse_gain,
)
from .records import Record
from .series import TimeSeries, load_csv
from .splitting import SplitPlan, SplitSpec, SplitResult, split
from .windowing import WindowConfig

# hashlib and secrets load OpenSSL's libcrypto (~3.6 MB resident); the
# interpreter's built-in SHA-256 gives the same digests without it. Runs
# that seed numpy's RNG (the LSTM, random order) still load it, because
# numpy.random imports secrets.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

MODELS = ("lstm", "persistence", "linear_ar")

_CONVENTIONS = {
    "k_fold_run_rmse": "mean of the k per-fold test RMSEs",
    "early_stopping_monitor": "validation MSE when a validation split exists, else training MSE",
    "leakage_rank": "ascending |gain_percent| within a (window, lag) group; ties by plan order 2-way, 3-way, k-fold",
}


def _read_json(p: Path, missing: str):
    """The parsed JSON content of file `p` (a leading byte-order mark is
    skipped); `missing` begins the error raised when there is no such file."""
    if not p.exists():
        raise LeakbenchError(f"{missing}: {p}")
    try:
        with reading(p):
            return json.loads(p.read_text(encoding="utf-8-sig"))
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
        for label in ("repetitions", "hidden_size"):
            if getattr(self, label) < 1:
                raise LeakbenchError(f"{label} must be >= 1, got {getattr(self, label)}")
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
    """Stable per-(cell, repetition) seed; None propagates fresh entropy.

    The seed is base_seed XOR the first 8 bytes (big-endian) of the SHA-256
    of the parts joined by "|", masked to 63 bits. `sha256` is the
    interpreter's built-in one (`_sha2`/`_sha256`), which digests exactly
    as `hashlib.sha256` does without loading OpenSSL; hashlib is the
    fallback where the built-in module is missing."""
    if base_seed is None:
        return None
    key = "|".join(str(p) for p in parts)
    digest = sha256(key.encode("utf-8")).digest()
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


# Most models in one `train_many` call. Measured on 2 cores (H 16, B 32,
# W 10, one epoch of clean 10-fold training sets, median of 15 interleaved
# rounds): 979 us per model-step at M = 1, 359 at M = 10, 334 at M = 20 and
# 354 at M = 40. A 10-rep 10-fold cell (3 epochs) peaked at 43.4-43.5 MB
# with a cap of 10, as the parent's one stack per repetition did
# (43.3-43.4 MB), and at 50.5-50.7 MB with a cap of 20, no faster. So 10:
# one k = 10 repetition is one stack, and a 2-way or 3-way cell's ten
# repetitions are one too.
STACK_CAP = 10


def _attempt(fn, *args):
    """fn(*args), or the exception it raised, as a value."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _audited_split(series: TimeSeries, spec: SplitSpec) -> tuple[list[SplitResult], tuple]:
    """Every fold of a split and its audit. A contaminated clean fold raises
    ContaminationError."""
    window, lag, plan, mode = cell_key(spec)
    results = split(series, spec)
    audits = tuple(audit(res) for res in results)
    for res, report in zip(results, audits):
        if mode == "clean" and report.is_contaminated:
            raise ContaminationError(
                f"clean cell audited contaminated: W={window} L={lag} "
                f"plan={plan} fold={res.fold_index} "
                f"overlap={report.overlap_count}"
            )
    return results, audits


def _run_key(cfg: ExperimentConfig, spec: SplitSpec, rep: int) -> tuple:
    """The seeds a repetition's run reads: its split's (`seed_read`) and,
    for the LSTM, its own train seeds, named by `rep`. A baseline reads
    none, so repetitions that share a split share one run and one fit."""
    return spec.seed_read, (rep if cfg.model == "lstm" else None)


def _fold_score(cfg: ExperimentConfig, res: SplitResult, out: TrainOutcome | None) -> tuple:
    """A fold's test RMSE and (optimal, last) epoch, from the trained LSTM
    `out`, or from a baseline, which has no epochs."""
    if cfg.model == "lstm":
        return (rmse(predict(out.model, out.scaler, res.test), res.test.targets()),
                (out.optimal_epoch, out.last_epoch))
    predictions = (baseline_persistence(res.test) if cfg.model == "persistence"
                   else baseline_linear_ar(res.train, res.test))
    return rmse(predictions, res.test.targets()), None


def _fit_scores(cfg: ExperimentConfig, runs: dict) -> dict:
    """Per run key, the run's mean fold RMSE and mean (optimal, last) epoch,
    or the first error of its split (a run that failed to split is one) and
    folds. All runs' jobs go in chunks of at most STACK_CAP, in order: one
    `train_many` stack for the LSTM, scored and dropped before the next
    trains, and no call for a baseline."""
    scores = {key: [run] if isinstance(run, Exception) else [] for key, run in runs.items()}
    jobs = [(key, *job) for key, run in runs.items() if not isinstance(run, Exception)
            for job in run]
    for start in range(0, len(jobs), STACK_CAP):
        stack = jobs[start:start + STACK_CAP]
        trained = [None] * len(stack)
        if cfg.model == "lstm":
            trained = _attempt(train_many, [(res.train, res.val, seed) for _, res, seed in stack],
                               cfg.train, cfg.hidden_size)
        for i, (key, res, _) in enumerate(stack):
            out = trained if isinstance(trained, Exception) else trained[i]
            scores[key].append(out if isinstance(out, Exception)
                               else _attempt(_fold_score, cfg, res, out))
    for key, folds in scores.items():
        errors = [s for s in folds if isinstance(s, Exception)]
        if errors:
            scores[key] = errors[0]
        else:
            rmses, epochs = zip(*folds)
            scores[key] = (float(np.mean(rmses)),
                           None if epochs[0] is None else tuple(np.mean(epochs, axis=0).tolist()))
    return scores


def _run_cell(series: TimeSeries, cfg: ExperimentConfig, specs: Sequence[SplitSpec]) -> list:
    """Every repetition of one cell: its mean fold RMSE, mean (optimal,
    last) epoch (None for a baseline) and fold audits, or the exception that
    failed it: its split's error, else its first failing fold's, in fold
    order. Each distinct split (`seed_read`) is made and audited once, and
    each distinct run (`_run_key`) is built and scored once."""
    splits: dict = {}
    runs: dict = {}  # run key -> its split's error or its (fold, train seed) jobs
    keys = [_run_key(cfg, spec, rep) for rep, spec in enumerate(specs)]
    for rep, (spec, key) in enumerate(zip(specs, keys)):
        if spec.seed_read not in splits:
            splits[spec.seed_read] = _attempt(_audited_split, series, spec)
        folds = splits[spec.seed_read]
        if key not in runs:
            runs[key] = folds if isinstance(folds, Exception) else [
                (res, None if key[1] is None else derive_seed(
                    cfg.base_seed, *cell_key(spec), rep, res.fold_index, "train"))
                for res in folds[0]
            ]
    scores = _fit_scores(cfg, runs)
    return [scores[key] if isinstance(scores[key], Exception)
            else (*scores[key], splits[key[0]][1]) for key in keys]


def _execute_cell(series: TimeSeries, cfg: ExperimentConfig, specs: Sequence[SplitSpec]) -> list:
    """One cell's runs, as `_run_cell` gives them; module-level so worker
    processes can pickle it. Errors of any kind come back as values and are
    re-raised (or recorded) by the parent, so one failing cell or
    repetition cannot lose the rest of the grid."""
    try:
        return _run_cell(series, cfg, specs)
    except Exception as exc:
        return [exc] * len(specs)


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
    keep_going), fit every fold, predict on test, RMSE. A cell's run RMSE
    under k-fold is the mean of its per-fold test RMSEs. One task runs a
    whole cell (`_run_cell`): it splits and audits each distinct split once
    and fits each distinct run once (a baseline once per split, the LSTM
    once per repetition, its folds in shared `train_many` stacks); reports
    are as if each run were made alone. A failing run aborts unless
    keep_going, in which case report.errors records it, one line per
    (cell, repetition), with its split's or first failing fold's error. With
    `workers` > 1, a worker process that dies breaks the pool: each cell
    not finished by then runs once more in a fresh one-worker pool, and
    fails only if it kills that worker too. A null base_seed is replaced by
    one drawn seed, which the provenance config records (with
    base_seed_drawn true). The provenance also records the environment
    (`environment`). `workers` must be >= 1.
    """
    if workers < 1:
        raise LeakbenchError(f"workers must be >= 1, got {workers}")
    seed_drawn = cfg.base_seed is None
    if seed_drawn:
        cfg = replace(cfg, base_seed=int.from_bytes(os.urandom(8), "big") >> 1)
    series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
    grid = grid_splits(cfg)

    execute = partial(_execute_cell, series, cfg)
    if workers > 1:
        # Imported here: multiprocessing adds 0.5 MB to every serial run.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from contextlib import ExitStack

        completed: list = [None] * len(grid)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute, specs) for specs in grid]
            for i, future in enumerate(futures):
                try:
                    completed[i] = future.result()
                except BrokenProcessPool:
                    pass  # a worker died (a signal, out of memory)
        # A dead worker breaks the whole pool, so each unfinished cell runs
        # once more in a fresh one-worker pool, at most `workers` at a time:
        # only a cell that kills its worker again fails.
        unfinished = [i for i, runs in enumerate(completed) if runs is None]
        for start in range(0, len(unfinished), workers):
            batch = unfinished[start:start + workers]
            with ExitStack() as pools:
                futures = [
                    pools.enter_context(ProcessPoolExecutor(max_workers=1)).submit(execute, grid[i])
                    for i in batch
                ]
                for i, future in zip(batch, futures):
                    try:
                        completed[i] = future.result()
                    except BrokenProcessPool as exc:
                        completed[i] = [exc] * len(grid[i])
    else:
        completed = [execute(specs) for specs in grid]

    errors: list[str] = []
    cell_results = []
    reps = cfg.repetitions
    for specs, cell_runs in zip(grid, completed):
        window, lag, plan, mode = cell_key(specs[0])
        runs = []
        for rep, outcome in enumerate(cell_runs):
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
            GainRecord(window, lag, plan, clean, leaky, *rmse_gain(clean, leaky))
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
    """Rebuild gain records from two previously written cells.csv files
    (a leading byte-order mark is skipped), matching (window, lag, plan)
    between clean rows and leaky rows."""
    def read_means(path: str | Path, mode: str) -> dict[tuple, float]:
        p = Path(path)
        if not p.exists():
            raise LeakbenchError(f"no such report file: {p}")
        means: dict[tuple, float] = {}
        with reading(p), open(p, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
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
