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
    assert report["shape"] == {"hidden_size": 16, "batch": 32, "window": 10}
    assert set(report["trees"]) == {"a", "b"}
    for layers in report["trees"].values():
        assert set(layers) == {
            f"{layer}.m{m}" for layer in ("forward", "loss_and_gradients", "adam_step")
            for m in (1, 10)
        }
        for timing in layers.values():
            assert 0 < timing["q1_us"] <= timing["median_us"] <= timing["q3_us"]
    # Each tree after the first against the first, layer by layer.
    assert set(report["ratios"]) == {"b"}
    assert set(report["ratios"]["b"]) == set(report["trees"]["a"])
    for name, ratio in report["ratios"]["b"].items():
        medians = report["trees"]["b"][name]["median_us"] / report["trees"]["a"][name]["median_us"]
        assert ratio["ratio_of_medians"] == pytest.approx(medians)
        assert 0 < ratio["q1_ratio"] <= ratio["median_ratio"] <= ratio["q3_ratio"]
