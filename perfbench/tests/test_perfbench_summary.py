"""How run.py turns per-pass samples and calibration times into metrics."""

import json
from pathlib import Path

import pytest

import run

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def fake_pass(run_s, setup_s, traced=False, failures=()):
    return {
        "setup_s": setup_s, "run_s": run_s, "peak_rss_mb": 100.0 + run_s,
        "pairs": 1000, "fits": 20, "attempted": 2, "failures": list(failures),
        "traced": traced, "layers": {"splitting.split.s": run_s / 2} if traced else None,
        "absent": [],
    }


def test_times_scale_with_the_calibrated_speed():
    passes = [fake_pass(4.0, 1.0), fake_pass(6.0, 1.2), fake_pass(5.0, 3.0)]
    # the machine ran at half the reference speed: calibration took twice as long
    s = run.summarize(passes, [2 * run.CALIBRATION_REF_S] * 4, False, BENCH)
    assert s["speed"] == pytest.approx(0.5)
    assert s["values"]["run_s"] == pytest.approx(5.0 * 0.5)
    assert s["values"]["setup_s"] == pytest.approx(1.2 * 0.5)
    assert s["values"]["pairs_per_s"] == pytest.approx(1000 / 5.0 / 0.5)
    assert s["values"]["fits_per_s"] == pytest.approx(20 / 5.0 / 0.5)
    assert s["values"]["peak_rss_mb"] == pytest.approx(105.0)
    assert s["samples"]["run_s"] == [4.0, 6.0, 5.0]
    assert s["reported"] == [m["name"] for m in BENCH["end_to_end"]]


def test_calibration_median_ignores_one_outlier():
    passes = [fake_pass(5.0, 1.0)] * 3
    cal = run.CALIBRATION_REF_S
    s = run.summarize(passes, [cal, cal, 10 * cal], False, BENCH)
    assert s["values"]["run_s"] == pytest.approx(5.0)


def test_traced_run_reports_layers_and_unscaled_overhead():
    passes = [fake_pass(5.0, 1.0), fake_pass(5.5, 1.0, traced=True), fake_pass(5.0, 1.0),
              fake_pass(6.0, 1.0, traced=True, failures=["x: bad"])]
    s = run.summarize(passes, [3 * run.CALIBRATION_REF_S], True, BENCH)
    assert s["values"]["trace.overhead_ratio"] == pytest.approx(5.75 / 5.0)
    assert s["values"]["splitting.split.s"] == pytest.approx(5.75 / 2)
    assert s["values"]["ops_failed_ratio"] == pytest.approx(1 / 8)
    line = json.loads(run.result_line(s))
    assert line["correct"] is False and line["attempted"] == 8 and line["failed"] == 1
    assert set(line["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
