"""Span arithmetic, tracer installation and metric naming of the benchmark."""

import json
import math
import re
import sys
import types
from pathlib import Path

import pytest

import layers
from tracing import Span, Target, Tracer, percentile, self_times, summarize

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: coverage is the union [1, 6]
        Span("c", 1.5, 2.0, 1),
        Span("d", 8.0, 12.0, 0),  # runs past its parent: clipped to [8, 10]
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 0.5, 3, 0.5, 4])


def test_busy_time_counts_recursion_once():
    spans = [Span("f", 0.0, 4.0, -1), Span("f", 1.0, 3.0, 0), Span("g", 5.0, 6.0, -1)]
    stats = summarize(spans)
    assert stats["f"].calls == 2
    assert stats["f"].busy_s == pytest.approx(4.0)
    assert stats["f"].self_s == pytest.approx(4.0)
    assert stats["g"].busy_s == pytest.approx(1.0)


def test_self_times_of_a_pass_add_up_to_its_run_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open(layers.RUN_ROOT)
    outer = tracer.open("splitting.split")
    tracer.close(tracer.open("windowing.make_sequences"))
    tracer.close(outer)
    tracer.close(tracer.open("audit.audit"))
    tracer.close(root)
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[root].duration)


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert math.isnan(percentile([], 50))


@pytest.fixture
def fakepkg(monkeypatch):
    """A two-module package: `low` defines functions, `high` imports one."""
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def helper(n):
        return list(range(n))

    class Box:
        def size(self):
            return 3

        @classmethod
        def make(cls):
            return cls()

    low.helper, low.Box = helper, Box
    high.helper = helper
    high.run = lambda n: len(high.helper(n)) + Box.make().size()
    pkg.low, pkg.high = low, high
    for m in (pkg, low, high):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return pkg


def test_tracer_wraps_names_where_callers_resolve_them(fakepkg):
    tracer = Tracer()
    tracer.install("fakepkg", [
        Target("low.helper", lambda a, k, r: {"items": len(r)}),
        Target("low.Box.size"),
        Target("low.Box.make"),
        Target("low.gone"),
        Target("nomodule.fn"),
    ])
    assert fakepkg.high.run(4) == 7
    assert [s.name for s in tracer.spans] == ["low.helper", "low.Box.make", "low.Box.size"]
    assert tracer.spans[0].attrs == {"items": 4}
    assert tracer.absent == ["low.gone", "nomodule.fn"]
    tracer.uninstall()
    fakepkg.high.run(1)
    assert len(tracer.spans) == 3


def test_failed_annotation_leaves_counter_absent(fakepkg):
    tracer = Tracer()
    tracer.install("fakepkg", [Target("low.helper", lambda a, k, r: {"x": r.missing})])
    fakepkg.high.helper(2)
    assert tracer.spans[0].attrs == {}
    values = layers.layer_metrics([Span("windowing.make_sequences", 0.0, 1.0, -1)], [])
    assert values["windowing.make_sequences.pairs"] is None
    assert values["windowing.make_sequences.calls"] == 1


def test_absent_function_gives_absent_metrics():
    values = layers.layer_metrics([], ["windowing.with_pairs"])
    assert values["windowing.with_pairs.s"] is None
    assert values["splitting.split.calls"] == 0


def test_gaps_tried_counts_buffers_under_the_gap_search():
    spans = [
        Span("audit.minimal_clearing_gap", 0.0, 10.0, -1),
        Span("audit.apply_buffer", 1.0, 2.0, 0),
        Span("audit.apply_buffer", 3.0, 4.0, 0),
        Span("audit.apply_buffer", 11.0, 12.0, -1),
    ]
    values = layers.layer_metrics(spans, [])
    assert values["audit.minimal_clearing_gap.gaps_tried"] == 2
    assert values["audit.apply_buffer.calls"] == 3


def test_metric_names_follow_the_syntax_and_match_the_benchmark():
    bench = json.loads(BENCHMARK.read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert per_layer == list(layers.METRICS) + ["trace.overhead_ratio"]
    assert {"setup_s", "run_s"} <= {m["name"] for m in bench["end_to_end"]}
