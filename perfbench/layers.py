"""Which public leakbench functions the traced pass wraps, and how the
per-layer metrics named in BENCHMARK.json are computed from their spans.

Counters read only public results: `len()` of sequence sets and series,
`AuditReport`/`TrainOutcome`/`ExperimentReport` fields, array shapes of
arguments and sizes of written files. A metric whose function is absent
from the program, or whose counter cannot be read, is None.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from tracing import NameStats, Span, Target, has_ancestor, percentile, summarize

RUN_ROOT = "pass.run"
SETUP_ROOT = "pass.setup"


def _spec_mode(args, kwargs, result):
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    return {"mode": spec.mode}


def _audit_pairs(args, kwargs, result):
    r = kwargs["result"] if "result" in kwargs else args[0]
    n = len(r.train) + len(r.test) + (len(r.val) if r.val is not None else 0)
    return {"pairs": n}


def _train_epochs(args, kwargs, result):
    return {"last": int(result.last_epoch), "optimal": int(result.optimal_epoch)}


def _run_tasks(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[0]
    grid = len(cfg.windows) * len(cfg.lags) * len(cfg.plans) * len(cfg.modes)
    return {"tasks": grid * cfg.repetitions, "failed": len(result.errors)}


def _report_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _lstm_flops(args, kwargs, result):
    """GEMM flops of one BPTT step over a (B, W) batch: per time step the
    forward z@W^T and the backward da^T@z and da@W, each 2*B*(1+H)*4H."""
    params = kwargs["params"] if "params" in kwargs else args[0]
    x = kwargs["x"] if "x" in kwargs else args[1]
    batch, steps = x.shape
    hidden = params["w_out"].shape[0]
    return {"flops": 24 * batch * steps * hidden * (hidden + 1)}


def targets() -> list[Target]:
    return [
        Target("series.load_csv", lambda a, k, r: {"rows": len(r)}),
        Target("windowing.make_sequences", lambda a, k, r: {"pairs": len(r)}),
        Target("windowing.merge_sequence_sets"),
        Target("windowing.with_pairs"),
        Target("windowing.SequenceSet.inputs"),
        Target("splitting.split", _spec_mode),
        Target("audit.audit", _audit_pairs),
        Target("audit.apply_buffer"),
        Target("audit.minimal_clearing_gap"),
        Target("forecaster.train", _train_epochs),
        Target("forecaster.loss_and_gradients", _lstm_flops),
        Target("forecaster.Scaler.fit"),
        Target("forecaster.predict"),
        Target("forecaster.baseline_linear_ar"),
        Target("metrics.rmse"),
        Target("metrics.aggregate"),
        Target("metrics.leakage_rank"),
        Target("runner.run_experiment", _run_tasks),
        Target("runner.emit_report", _report_bytes),
        Target("runner.emit_plot_data"),
        Target("cli.main"),
    ]


class _View:
    def __init__(self, spans: list[Span], absent: list[str]):
        self.spans = spans
        self.absent = set(absent)
        self.stats = summarize(spans)

    def of(self, name: str) -> Optional[NameStats]:
        if name in self.absent:
            return None
        return self.stats.get(name, NameStats())

    def attr_sum(self, name: str, key: str) -> Optional[float]:
        st = self.of(name)
        if st is None:
            return None
        values = [s.attrs[key] for s in st.spans if key in s.attrs]
        if st.calls and not values:
            return None
        return float(sum(values))


def _plain(quantity: str) -> Callable[[_View, str], Optional[float]]:
    def compute(view: _View, fn: str) -> Optional[float]:
        st = view.of(fn)
        if st is None:
            return None
        return {"calls": st.calls, "s": st.busy_s, "self_s": st.self_s}[quantity]

    return compute


def _ratio(num: Optional[float], den: Optional[float], scale: float = 1.0) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den * scale if den else 0.0


def _split_mode_s(mode: str):
    def compute(view: _View, fn: str) -> Optional[float]:
        st = view.of(fn)
        if st is None:
            return None
        if st.calls and not any("mode" in s.attrs for s in st.spans):
            return None
        return sum(s.duration for s in st.spans if s.attrs.get("mode") == mode)

    return compute


def _split_pct(q: float):
    def compute(view: _View, fn: str) -> Optional[float]:
        st = view.of(fn)
        if st is None:
            return None
        return percentile([s.duration for s in st.spans], q) * 1e3 if st.spans else 0.0

    return compute


def _gaps_tried(view: _View, fn: str) -> Optional[float]:
    if view.of(fn) is None or view.of("audit.apply_buffer") is None:
        return None
    return float(sum(
        1 for i, s in enumerate(view.spans)
        if s.name == "audit.apply_buffer" and has_ancestor(view.spans, i, fn)
    ))


# metric name -> (function whose spans it reads, computation)
METRICS: dict[str, tuple[str, Callable[[_View, str], Optional[float]]]] = {
    "series.load_csv.s": ("series.load_csv", _plain("s")),
    "series.load_csv.rows": ("series.load_csv", lambda v, f: v.attr_sum(f, "rows")),
    "windowing.make_sequences.calls": ("windowing.make_sequences", _plain("calls")),
    "windowing.make_sequences.s": ("windowing.make_sequences", _plain("s")),
    "windowing.make_sequences.pairs": (
        "windowing.make_sequences", lambda v, f: v.attr_sum(f, "pairs")),
    "windowing.merge_sequence_sets.s": ("windowing.merge_sequence_sets", _plain("s")),
    "windowing.with_pairs.s": ("windowing.with_pairs", _plain("s")),
    "windowing.SequenceSet.inputs.calls": ("windowing.SequenceSet.inputs", _plain("calls")),
    "windowing.SequenceSet.inputs.s": ("windowing.SequenceSet.inputs", _plain("s")),
    "splitting.split.calls": ("splitting.split", _plain("calls")),
    "splitting.split.s": ("splitting.split", _plain("s")),
    "splitting.split.self_s": ("splitting.split", _plain("self_s")),
    "splitting.split.p50_ms": ("splitting.split", _split_pct(50)),
    "splitting.split.p90_ms": ("splitting.split", _split_pct(90)),
    "splitting.split.clean.s": ("splitting.split", _split_mode_s("clean")),
    "splitting.split.leaky.s": ("splitting.split", _split_mode_s("leaky")),
    "audit.audit.calls": ("audit.audit", _plain("calls")),
    "audit.audit.s": ("audit.audit", _plain("s")),
    "audit.audit.pairs_per_s": (
        "audit.audit", lambda v, f: _ratio(v.attr_sum(f, "pairs"), _plain("s")(v, f))),
    "audit.apply_buffer.calls": ("audit.apply_buffer", _plain("calls")),
    "audit.apply_buffer.s": ("audit.apply_buffer", _plain("s")),
    "audit.minimal_clearing_gap.s": ("audit.minimal_clearing_gap", _plain("s")),
    "audit.minimal_clearing_gap.gaps_tried": ("audit.minimal_clearing_gap", _gaps_tried),
    "forecaster.train.calls": ("forecaster.train", _plain("calls")),
    "forecaster.train.s": ("forecaster.train", _plain("s")),
    "forecaster.train.self_s": ("forecaster.train", _plain("self_s")),
    "forecaster.loss_and_gradients.calls": ("forecaster.loss_and_gradients", _plain("calls")),
    "forecaster.loss_and_gradients.s": ("forecaster.loss_and_gradients", _plain("s")),
    "forecaster.loss_and_gradients.us_per_call": (
        "forecaster.loss_and_gradients",
        lambda v, f: _ratio(_plain("s")(v, f), _plain("calls")(v, f), 1e6)),
    "forecaster.loss_and_gradients.gflop_per_s_computed": (
        "forecaster.loss_and_gradients",
        lambda v, f: _ratio(v.attr_sum(f, "flops"), _plain("s")(v, f), 1e-9)),
    "forecaster.Scaler.fit.s": ("forecaster.Scaler.fit", _plain("s")),
    "forecaster.predict.s": ("forecaster.predict", _plain("s")),
    "forecaster.epochs_run": ("forecaster.train", lambda v, f: v.attr_sum(f, "last")),
    "forecaster.epochs_useful_ratio": (
        "forecaster.train",
        lambda v, f: _ratio(v.attr_sum(f, "optimal"), v.attr_sum(f, "last"))),
    "forecaster.baseline_linear_ar.calls": ("forecaster.baseline_linear_ar", _plain("calls")),
    "forecaster.baseline_linear_ar.s": ("forecaster.baseline_linear_ar", _plain("s")),
    "metrics.rmse.s": ("metrics.rmse", _plain("s")),
    "metrics.aggregate.s": ("metrics.aggregate", _plain("s")),
    "metrics.leakage_rank.s": ("metrics.leakage_rank", _plain("s")),
    "runner.run_experiment.s": ("runner.run_experiment", _plain("s")),
    "runner.run_experiment.self_s": ("runner.run_experiment", _plain("self_s")),
    "runner.emit_report.s": ("runner.emit_report", _plain("s")),
    "runner.emit_plot_data.s": ("runner.emit_plot_data", _plain("s")),
    "runner.report_bytes": ("runner.emit_report", lambda v, f: v.attr_sum(f, "bytes")),
    "runner.tasks": ("runner.run_experiment", lambda v, f: v.attr_sum(f, "tasks")),
    "runner.tasks_failed": ("runner.run_experiment", lambda v, f: v.attr_sum(f, "failed")),
    "cli.main.s": ("cli.main", _plain("s")),
    "cli.main.self_s": ("cli.main", _plain("self_s")),
    "trace.run_s": (RUN_ROOT, _plain("s")),
    "trace.unattributed_s": (RUN_ROOT, _plain("self_s")),
}


def layer_metrics(spans: list[Span], absent: list[str]) -> dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass (None where absent)."""
    view = _View(spans, absent)
    return {name: compute(view, fn) for name, (fn, compute) in METRICS.items()}
