from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "same_reports.py"
_SPEC = importlib.util.spec_from_file_location("same_reports", _PATH)
same_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_reports)


def write_run(out: Path, created: str, mean: str = "1.5") -> Path:
    (out / same_reports.REEMIT).mkdir(parents=True)
    for name in same_reports.BYTE_FILES:
        (out / name).write_text(f"header\nrow,{mean}\n", encoding="utf-8")
    report = {"name": "x", "cells": [{"mean": mean}],
              "provenance": {"created_utc": created, "version": "0.1.0"}}
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return out


def test_runs_made_at_different_times_are_the_same(tmp_path):
    a = write_run(tmp_path / "a", "2026-01-01T00:00:00+00:00")
    b = write_run(tmp_path / "b", "2026-01-02T00:00:00+00:00")
    assert same_reports.differing_files(a, b) == []


def test_names_each_differing_or_missing_file(tmp_path):
    a = write_run(tmp_path / "a", "2026-01-01T00:00:00+00:00")
    b = write_run(tmp_path / "b", "2026-01-01T00:00:00+00:00")
    (b / "runs.csv").write_text("header\nrow,1.5000000000000002\n", encoding="utf-8")
    (b / "audits.csv").unlink()
    assert same_reports.differing_files(a, b) == ["runs.csv", "audits.csv"]
    report = json.loads((b / "report.json").read_text(encoding="utf-8"))
    report["provenance"]["version"] = "0.2.0"
    (b / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert same_reports.differing_files(a, b) == ["runs.csv", "audits.csv", "report.json"]


@pytest.mark.parametrize("missing", ["a", "b"])
def test_a_missing_report_differs(tmp_path, missing):
    dirs = {side: write_run(tmp_path / side, "2026-01-01T00:00:00+00:00") for side in "ab"}
    (dirs[missing] / "report.json").unlink()
    assert same_reports.differing_files(dirs["a"], dirs["b"]) == ["report.json"]


def test_each_reemitted_csv_is_compared(tmp_path):
    a = write_run(tmp_path / "a", "2026-01-01T00:00:00+00:00")
    b = write_run(tmp_path / "b", "2026-01-01T00:00:00+00:00")
    (b / "reemit" / "gains.csv").write_text("header\nrow,1.25\n", encoding="utf-8")
    (b / "reemit" / "runs.csv").unlink()
    assert same_reports.differing_files(a, b) == ["reemit/gains.csv", "reemit/runs.csv"]


def test_variants_change_only_what_they_name(tmp_path):
    desk = json.loads(same_reports.DESK.read_text(encoding="utf-8"))
    cfg = same_reports.variant_config(same_reports.VARIANTS["desk-lstm-short"],
                                      tmp_path / "climate.csv")
    assert cfg["train"] == {**desk["train"], "epochs": 4, "patience": 2}
    assert cfg["dataset"] == str(tmp_path / "climate.csv")
    assert {k: v for k, v in cfg.items() if k not in ("train", "dataset", "repetitions")} == {
        k: v for k, v in desk.items() if k not in ("train", "dataset", "repetitions")}
