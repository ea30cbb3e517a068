from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_layers_script_times_every_layer_of_each_tree():
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "layers.py"),
         "--src", f"a={ROOT / 'src'}", "--src", f"b={ROOT / 'src'}",
         "--rounds", "2", "--loops", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out)
    assert report["shape"] == {"hidden_size": 16, "batch": 32, "window": 10,
                               "train_lag": 3, "train_folds": 10,
                               "audit_points": 30_000, "audit_lag": 1}
    assert set(report["trees"]) == {"a", "b"}
    for layers in report["trees"].values():
        assert set(layers) == {
            f"{layer}.m{m}" for layer in ("forward", "loss_and_gradients", "adam_step")
            for m in (1, 10)
        } | {"train_many.k10", "scaler_fit.k10", "windows.k10",
             "split.leaky.k10", "split.clean.k10"} | {
            f"{layer}.{plan}" for layer in ("audit", "minimal_clearing_gap")
            for plan in ("k10", "2way", "random.k10")
        }
        for timing in layers.values():
            assert 0 < timing["q1_us"] <= timing["median_us"] <= timing["q3_us"]
    # One traced train_many call per tree, after the warm-up.
    assert set(report["traced_peak_kib"]) == {"a", "b"}
    for peaks in report["traced_peak_kib"].values():
        assert set(peaks) == {"train_many.k10"}
        assert peaks["train_many.k10"] > 0
    # Each tree after the first against the first, layer by layer.
    assert set(report["ratios"]) == {"b"}
    assert set(report["ratios"]["b"]) == set(report["trees"]["a"])
    for name, ratio in report["ratios"]["b"].items():
        medians = report["trees"]["b"][name]["median_us"] / report["trees"]["a"][name]["median_us"]
        assert ratio["ratio_of_medians"] == pytest.approx(medians)
        assert 0 < ratio["q1_ratio"] <= ratio["median_ratio"] <= ratio["q3_ratio"]
