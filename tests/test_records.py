"""The JSON record codec: round trips through JSON text, field defaults,
strict typing of config values, and reports written in the older layout."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from leakbench.audit import AuditReport
from leakbench.errors import LeakbenchError
from leakbench.forecaster import TrainConfig
from leakbench.metrics import GainRecord, RunStats
from leakbench.runner import (
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    load_report,
)
from leakbench.splitting import SplitPlan, SplitSpec
from leakbench.windowing import WindowConfig

AUDIT = AuditReport(
    train_footprint_size=1169,
    test_footprint_size=293,
    overlap_count=2,
    overlap_sample=(1167, 1168),
    is_contaminated=True,
    contaminated_test_pairs=1,
)
STATS = RunStats(
    n_runs=2, min=1.25, max=1.5, mean=1.375, std=0.1767766952966369,
    stderr=0.125, ci95=(-0.21328, 2.96328),
    mean_optimal_epoch=12.0, mean_last_epoch=22.5,
)
CELL = CellResult(
    window=10, lag=1, plan="2-way", mode="leaky", stats=STATS,
    run_rmses=(1.25, 1.5), max_overlap=2, audits=(AUDIT, AUDIT),
)
GAIN = GainRecord(
    window=10, lag=1, plan="2-way", rmse_clean=1.4365949178200277,
    rmse_leaky=1.434024040616411, gain_percent=0.1789563064526076,
    direction="up", leakage_rank=1,
)
TRAIN = TrainConfig(epochs=30, learning_rate=0.01, early_stopping=True)
CONFIG = ExperimentConfig(
    name="records",
    dataset="data/climate.csv",
    windows=(5, 10),
    lags=(1, 3),
    plans=(SplitPlan.two_way(0.75), SplitPlan.three_way(), SplitPlan.k_fold(4)),
    modes=("clean", "leaky"),
    train=TRAIN,
    order="sequential",
    model="linear_ar",
    hidden_size=16,
    repetitions=2,
    base_seed=2013,
)
RECORDS = [
    WindowConfig(10, 3),
    SplitPlan.three_way(0.6, 0.2),
    SplitSpec(plan=SplitPlan.k_fold(5), mode="leaky", window=WindowConfig(7, 2),
              order="random", seed=11),
    AUDIT,
    STATS,
    GAIN,
    TRAIN,
    CONFIG,
    CELL,
    ExperimentReport(
        name="records",
        cells=(CELL, dataclasses.replace(CELL, mode="clean", max_overlap=0)),
        gains=(GAIN,),
        provenance={"config": CONFIG.to_dict(), "base_seed_drawn": False},
        errors=("cell W=10 L=2 plan=2-way mode=clean rep=1: boom",),
    ),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_json_text_round_trip(record):
    text = json.dumps(record.to_dict())
    assert type(record).from_dict(json.loads(text)) == record


def test_omitted_optional_keys_take_field_defaults():
    cfg = ExperimentConfig.from_dict({
        "name": "minimal",
        "dataset": "data/climate.csv",
        "windows": [10],
        "lags": [1],
        "plans": [{"kind": "k_fold"}],
        "modes": ["leaky"],
        "train": {"epochs": 20},
    })
    for record in (cfg, cfg.train, cfg.plans[0]):
        for f in dataclasses.fields(record):
            if f.default is not dataclasses.MISSING:
                assert getattr(record, f.name) == f.default, f.name
    assert cfg.plans[0].k == 10
    assert cfg.hidden_size == 64 and cfg.repetitions == 10


def test_train_seed_of_an_older_config_is_ignored():
    # `leakbench run` derives every fold's seed from base_seed; train.seed
    # was never read, so an old config or report holding it still loads.
    assert TrainConfig.from_dict({"epochs": 3, "seed": 5}) == TrainConfig(epochs=3)


def test_readme_config_example_loads_and_shows_only_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Experiment config", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    ExperimentConfig.from_dict(example)

    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(example) <= field_names(ExperimentConfig)
    assert set(example["train"]) <= field_names(TrainConfig)
    for plan in example["plans"]:
        assert set(plan) <= field_names(SplitPlan)


def test_missing_required_key_is_named():
    with pytest.raises(LeakbenchError, match="missing required key 'epochs'"):
        TrainConfig.from_dict({"learning_rate": 0.01})


class TestStrictConfigValues:
    def test_string_is_not_a_bool(self):
        with pytest.raises(LeakbenchError, match="'early_stopping'"):
            TrainConfig.from_dict({"epochs": 20, "early_stopping": "false"})

    def test_float_is_not_an_int(self):
        with pytest.raises(LeakbenchError, match="'epochs'"):
            TrainConfig.from_dict({"epochs": 5.9})

    def test_float_in_int_list_rejected(self):
        payload = {**CONFIG.to_dict(), "windows": [10.7]}
        with pytest.raises(LeakbenchError, match="'windows'"):
            ExperimentConfig.from_dict(payload)

    def test_bool_is_not_an_int(self):
        payload = {**CONFIG.to_dict(), "repetitions": True}
        with pytest.raises(LeakbenchError, match="'repetitions'"):
            ExperimentConfig.from_dict(payload)

    def test_int_is_stored_as_float(self):
        cfg = TrainConfig.from_dict({"epochs": 3, "learning_rate": 1})
        assert cfg.learning_rate == 1.0 and type(cfg.learning_rate) is float
        stats = RunStats.from_dict({"n_runs": 1, "min": 2, "max": 2, "mean": 2,
                                    "std": None, "stderr": None, "ci95": None})
        assert type(stats.mean) is float and type(stats.n_runs) is int

    def test_null_only_where_the_field_allows_it(self):
        spec = {"plan": {"kind": "two_way"}, "mode": "leaky",
                "window": {"window_size": 10, "lag_step": 1}, "seed": None}
        assert SplitSpec.from_dict(spec).seed is None
        with pytest.raises(LeakbenchError, match="'epochs'"):
            TrainConfig.from_dict({"epochs": None})


# A report.json in the layout written before the record codec: config keys
# in the old order, plan dicts carrying only `fractions` or only `k`.
OLD_LAYOUT_REPORT = """{
  "name": "old",
  "cells": [
    {"window": 10, "lag": 1, "plan": "2-way", "mode": "clean",
     "stats": {"n_runs": 2, "min": 1.25, "max": 1.5, "mean": 1.375,
               "std": 0.1767766952966369, "stderr": 0.125,
               "ci95": [-0.21328, 2.96328],
               "mean_optimal_epoch": null, "mean_last_epoch": null},
     "run_rmses": [1.25, 1.5], "max_overlap": 0,
     "audits": [{"train_footprint_size": 1169, "test_footprint_size": 293,
                 "overlap_count": 0, "overlap_sample": [],
                 "is_contaminated": false, "contaminated_test_pairs": 0}]},
    {"window": 10, "lag": 1, "plan": "2-way", "mode": "leaky",
     "stats": {"n_runs": 2, "min": 1.0, "max": 1.5, "mean": 1.25,
               "std": 0.3535533905932738, "stderr": 0.25,
               "ci95": [-1.92655, 4.42655],
               "mean_optimal_epoch": 12.0, "mean_last_epoch": 22.5},
     "run_rmses": [1.0, 1.5], "max_overlap": 2,
     "audits": [{"train_footprint_size": 1169, "test_footprint_size": 293,
                 "overlap_count": 2, "overlap_sample": [1167, 1168],
                 "is_contaminated": true, "contaminated_test_pairs": 1}]}
  ],
  "gains": [
    {"window": 10, "lag": 1, "plan": "2-way", "rmse_clean": 1.375,
     "rmse_leaky": 1.25, "gain_percent": 9.090909090909092,
     "direction": "up", "leakage_rank": 1}
  ],
  "provenance": {
    "config": {
      "name": "old", "dataset": "data/climate.csv",
      "value_column": "meantemp", "date_column": "date",
      "windows": [10], "lags": [1],
      "plans": [{"kind": "two_way", "fractions": [0.8, 0.2]},
                {"kind": "k_fold", "k": 4}],
      "modes": ["clean", "leaky"], "order": "sequential", "model": "lstm",
      "hidden_size": 16,
      "train": {"epochs": 30, "learning_rate": 0.001, "batch_size": 32,
                "early_stopping": true, "patience": 10, "seed": null,
                "scaling": "zscore"},
      "repetitions": 2, "base_seed": 2013
    },
    "base_seed_drawn": false,
    "version": "0.1.0",
    "created_utc": "2026-10-18T09:11:37+00:00"
  },
  "errors": []
}
"""


def test_old_layout_report_still_loads(tmp_path):
    (tmp_path / "report.json").write_text(OLD_LAYOUT_REPORT, encoding="utf-8")
    report = load_report(tmp_path)
    assert [c.mode for c in report.cells] == ["clean", "leaky"]
    assert report.cells[1].audits[0].overlap_sample == (1167, 1168)
    assert report.cells[1].stats.ci95 == (-1.92655, 4.42655)
    assert report.gains[0].leakage_rank == 1

    cfg = ExperimentConfig.from_dict(report.provenance["config"])
    assert cfg.plans == (SplitPlan.two_way(), SplitPlan.k_fold(4))
    assert cfg.train == TrainConfig(epochs=30, early_stopping=True)
    assert (cfg.hidden_size, cfg.repetitions, cfg.base_seed) == (16, 2, 2013)

    emit_report(report, tmp_path, fmt="csv")
    assert (tmp_path / "cells.csv").read_text(encoding="utf-8").splitlines()[2] == (
        "old,10,1,2-way,leaky,2,1.0,1.5,1.25,0.3535533905932738,0.25,"
        "-1.92655,4.42655,12.0,22.5,2"
    )
