"""Per-layer timings of the LSTM kernel, of one `train_many` call, its
scaler fit and batch gather, of one cell, and of split and audit, printed
as one JSON object. The kernel layers are `LstmModel.forward`,
`loss_and_gradients` and one `_Adam.step`, each at M = 1 and M = 10
stacked models (H 16, B 32, W 10, the kfold-lstm shape).
`train_many.k10` trains the ten training sets of the reference series'
clean 10-fold split at W 10, L 3 (the kfold-lstm cell) for one epoch, as
one stack of M = 10; besides its time, its tracemalloc peak in one call
after the warm-up is reported per tree. On the same ten sets,
`scaler_fit.k10` fits each set's `Scaler` as `train_many` does, and
`windows.k10` gathers one stacked (10, B, W) input batch from the sets'
buffers end to end in one flat array, as each `train_many` step does.
`cell.k10` is `runner._run_cell` on that cell with one repetition, one
epoch and H 16: split, audit, one `train_many` stack, predict and score. The
audit layers run on a series of 30,000 points at W = 10, L = 1 (the
audit-30k shape): `split` of the leaky and the clean 10-fold spec, and
`audit` and `minimal_clearing_gap` of the leaky 10-fold split's fold 1,
the leaky 2-way split and fold 1 of the leaky 10-fold split under
`order: random` (seed 0; `random.k10`, whose sets are thousands of runs
of consecutive starts, not one or two).

    python3 benchmarks/layers.py --src parent=OTHER/src --src change=src \\
        --rounds 15 --loops 20

Each `--src LABEL=DIR` is a leakbench source tree. All trees are timed in
one process: each tree's `leakbench` is imported under a package name of its
own, so no tree pays a per-process offset (allocator state, page placement)
that another does not. The rounds interleave: in every round each layer is
timed once in each tree (a loop of `--loops` calls), one tree right after
the other, and the tree that goes first alternates from round to round, so
a drift in the speed of a shared machine hits every tree alike. Every tree
gets the same inputs. At M = 10, forward is what `train_many` calls for
validation losses: the forward-only `_forward(theta, x, H, False)` on the
stack; `forward.m1` is what `predict` calls. The output holds, per tree
and layer, the median and quartiles over the rounds of the time per call
in microseconds, with the core count and load averages. Under "ratios",
each tree after the first is compared with the first, layer by layer: the
ratio of the two trees' medians, and the median and quartiles of the
per-round ratios (this tree's time over the first tree's in the same
round), which a drift that spans several rounds moves less. Under
"traced_peak_kib", each tree's `train_many.k10` peak in KiB.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

HIDDEN, BATCH, WINDOW = 16, 32, 10
STACKS = (1, 10)
TRAIN_LAG, TRAIN_FOLDS = 3, 10
AUDIT_N, AUDIT_LAG = 30_000, 1


def _cases(package: str, src: str) -> dict:
    """Each layer of the leakbench tree under `src`, imported as the package
    `package`, as a zero-argument call, with the inputs every tree shares."""
    root = Path(src).resolve() / "leakbench"
    spec = importlib.util.spec_from_file_location(
        package, root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    forecaster, synthetic, series, windowing, splitting, audit, runner = (
        importlib.import_module(f"{package}.{name}")
        for name in ("forecaster", "synthetic", "series", "windowing", "splitting", "audit",
                     "runner"))
    return {**_kernel_cases(forecaster),
            **_train_cases(forecaster, synthetic, windowing, splitting),
            **_cell_cases(forecaster, synthetic, splitting, runner),
            **_audit_cases(series, windowing, splitting, audit)}


def _train_cases(forecaster, synthetic, windowing, splitting) -> dict:
    spec = splitting.SplitSpec(plan=splitting.SplitPlan.k_fold(TRAIN_FOLDS), mode="clean",
                               window=windowing.WindowConfig(WINDOW, TRAIN_LAG))
    results = splitting.split(synthetic.reference_series(), spec)
    jobs = [(res.train, res.val, res.fold_index) for res in results]
    cfg = forecaster.TrainConfig(epochs=1, batch_size=BATCH)
    trains = [res.train for res in results]
    # One stacked batch as train_many gathers it: the first BATCH shuffled
    # starts of every job, as positions in one flat array of the buffers.
    flat = np.concatenate([t.values for t in trains])
    bases = np.cumsum([0] + [t.values.size for t in trains[:-1]])
    rng = np.random.default_rng(0)
    pos = np.stack([base + rng.permutation(t.starts)[:BATCH] for base, t in zip(bases, trains)])
    return {
        "train_many.k10": lambda: forecaster.train_many(jobs, cfg, HIDDEN),
        "scaler_fit.k10": lambda: [forecaster.Scaler.fit(cfg.scaling, t.inputs(), t.targets())
                                   for t in trains],
        "windows.k10": lambda: windowing.windows(flat, pos, WINDOW),
    }


def _cell_cases(forecaster, synthetic, splitting, runner) -> dict:
    cfg = runner.ExperimentConfig(
        name="cell.k10", dataset="reference", windows=(WINDOW,), lags=(TRAIN_LAG,),
        plans=(splitting.SplitPlan.k_fold(TRAIN_FOLDS),), modes=("clean",),
        train=forecaster.TrainConfig(epochs=1, batch_size=BATCH), hidden_size=HIDDEN,
        repetitions=1, base_seed=0)
    (specs,) = runner.grid_splits(cfg)
    series = synthetic.reference_series()
    return {"cell.k10": lambda: runner._run_cell(series, cfg, specs)}


def _audit_cases(series, windowing, splitting, audit) -> dict:
    values = np.random.default_rng(0).normal(size=AUDIT_N)
    ts = series.TimeSeries("x", np.datetime64("1900-01-01") + np.arange(AUDIT_N), values)
    window = windowing.WindowConfig(WINDOW, AUDIT_LAG)
    k10 = {mode: splitting.SplitSpec(plan=splitting.SplitPlan.k_fold(10), mode=mode,
                                     window=window)
           for mode in ("leaky", "clean")}
    two_way = splitting.SplitSpec(plan=splitting.SplitPlan.two_way(), mode="leaky",
                                  window=window)
    shuffled = replace(k10["leaky"], order="random", seed=0)
    cases = {f"split.{mode}.k10": (lambda spec=spec: splitting.split(ts, spec))
             for mode, spec in k10.items()}
    folds = {"k10": splitting.split(ts, k10["leaky"])[1], "2way": splitting.split(ts, two_way)[0],
             "random.k10": splitting.split(ts, shuffled)[1]}
    for label, fold in folds.items():
        cases[f"audit.{label}"] = lambda fold=fold: audit.audit(fold)
        cases[f"minimal_clearing_gap.{label}"] = (
            lambda fold=fold: _clearing_gap(audit, fold))
    return cases


def _clearing_gap(audit, fold) -> int | None:
    """`minimal_clearing_gap` of `fold`, None where it raises: a shuffled
    fold's test starts span the series, so every gap empties the train set
    first, and the error comes after the same work as a returned gap."""
    try:
        return audit.minimal_clearing_gap(fold)
    except audit.AuditError:
        return None


def _kernel_cases(fc) -> dict:
    rng = np.random.default_rng(0)
    cases = {}
    for m in STACKS:
        theta = np.stack([fc.LstmModel.initialize(HIDDEN, rng).theta for _ in range(m)])
        x = rng.normal(size=(m, BATCH, WINDOW))
        y = rng.normal(size=(m, BATCH))
        _, grad = fc.loss_and_gradients(theta, x, y, HIDDEN)
        adam = fc._Adam(theta.shape, 1e-3)
        model = fc.LstmModel(HIDDEN, theta[0].copy())
        forward = (lambda: model.forward(x[0])) if m == 1 else (
            lambda theta=theta, x=x: fc._forward(theta, x, HIDDEN, False))
        cases[f"forward.m{m}"] = forward
        cases[f"loss_and_gradients.m{m}"] = (
            lambda theta=theta, x=x, y=y: fc.loss_and_gradients(theta, x, y, HIDDEN))
        # Steps a copy, so theta (and the other layers' inputs) stay fixed.
        stepped = theta.copy()
        cases[f"adam_step.m{m}"] = (
            lambda adam=adam, stepped=stepped, grad=grad: adam.step(stepped, grad, slice(None)))
    return cases


def _time(case, loops: int) -> float:
    """Seconds per call of one layer, timed once."""
    start = time.perf_counter()
    for _ in range(loops):
        case()
    return (time.perf_counter() - start) / loops


def _traced_peak(case) -> int:
    """Bytes at the tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        case()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median_us": median * 1e6, "q1_us": q1 * 1e6, "q3_us": q3 * 1e6}


def _ratios(times: list[float], base: list[float]) -> dict:
    """A tree's round times against the first tree's: the ratio of their
    medians, and the median and quartiles of the per-round ratios."""
    per_round = [t / b for t, b in zip(times, base)]
    q1, median, q3 = (
        statistics.quantiles(per_round, n=4) if len(per_round) > 1 else per_round * 3
    )
    return {
        "ratio_of_medians": statistics.median(times) / statistics.median(base),
        "median_ratio": median,
        "q1_ratio": q1,
        "q3_ratio": q3,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="LABEL=DIR of a leakbench source tree (repeatable)")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--loops", type=int, default=20)
    args = parser.parse_args(argv)

    trees = dict(spec.split("=", 1) if "=" in spec else (spec, spec) for spec in args.src)
    cases = {
        label: _cases(f"_leakbench_tree{i}", src)
        for i, (label, src) in enumerate(trees.items())
    }
    for tree in cases.values():
        for case in tree.values():
            _time(case, 1)
    peaks = {label: {"train_many.k10": _traced_peak(tree["train_many.k10"]) / 1024}
             for label, tree in cases.items()}
    samples = {label: {name: [] for name in tree} for label, tree in cases.items()}
    loadavg_start = os.getloadavg()
    for r in range(args.rounds):
        order = list(cases) if r % 2 == 0 else list(reversed(cases))
        for name in samples[order[0]]:
            for label in order:
                samples[label][name].append(_time(cases[label][name], args.loops))
    report = {
        "shape": {"hidden_size": HIDDEN, "batch": BATCH, "window": WINDOW,
                  "train_lag": TRAIN_LAG, "train_folds": TRAIN_FOLDS,
                  "audit_points": AUDIT_N, "audit_lag": AUDIT_LAG},
        "rounds": args.rounds,
        "loops": args.loops,
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "trees": {
            label: {name: _quartiles(times) for name, times in layer_times.items()}
            for label, layer_times in samples.items()
        },
        "traced_peak_kib": peaks,
    }
    first, *others = samples
    report["ratios"] = {
        label: {name: _ratios(samples[label][name], times)
                for name, times in samples[first].items()}
        for label in others
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
