from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from leakbench.errors import ContaminationError, LeakbenchError, SplitError
from leakbench.forecaster import TrainConfig
from leakbench.runner import (
    CELL_CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    derive_seed,
    emit_plot_data,
    emit_report,
    load_report,
    recompute_gains,
    run_experiment,
)
from leakbench.splitting import SplitPlan
from leakbench.synthetic import write_reference_csv


@pytest.fixture(scope="module")
def climate_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "climate.csv"
    write_reference_csv(path)
    return str(path)


def base_config(climate_csv, **overrides) -> ExperimentConfig:
    payload = {
        "name": "unit",
        "dataset": climate_csv,
        "windows": (5,),
        "lags": (1,),
        "plans": (SplitPlan.two_way(),),
        "modes": ("leaky", "clean"),
        "train": TrainConfig(epochs=2, seed=None),
        "model": "persistence",
        "repetitions": 2,
        "base_seed": 42,
    }
    payload.update(overrides)
    return ExperimentConfig(**payload)


class TestExperimentConfig:
    def test_json_round_trip(self, climate_csv, tmp_path):
        cfg = base_config(climate_csv, plans=(SplitPlan.two_way(), SplitPlan.k_fold(4)))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json_file(p) == cfg

    def test_missing_key_reported(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"name": "x"}))
        with pytest.raises(LeakbenchError, match="missing required key"):
            ExperimentConfig.from_json_file(p)

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(LeakbenchError, match="invalid JSON"):
            ExperimentConfig.from_json_file(p)

    def test_empty_grid_rejected(self, climate_csv):
        with pytest.raises(LeakbenchError, match="non-empty"):
            base_config(climate_csv, windows=())

    def test_unknown_model_rejected(self, climate_csv):
        with pytest.raises(LeakbenchError, match="unknown model"):
            base_config(climate_csv, model="transformer")

    @pytest.mark.parametrize("field", ["windows", "lags"])
    @pytest.mark.parametrize("value", [10.7, 10.0, True, "10", None])
    def test_non_integer_grid_entry_rejected(self, climate_csv, field, value):
        # Before, windows=(10.7,) was truncated to (10,) and lags=(True,) became (1,).
        with pytest.raises(LeakbenchError, match=f"'{field}'"):
            base_config(climate_csv, **{field: (5, value)})

    def test_integral_grid_entries_stored_as_int(self, climate_csv):
        cfg = base_config(climate_csv, windows=(np.int64(5),), lags=(np.int32(2),))
        assert cfg.windows == (5,) and cfg.lags == (2,)
        assert type(cfg.windows[0]) is int and type(cfg.lags[0]) is int


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, 10, 1, "2-way", "leaky", 0) == derive_seed(
            7, 10, 1, "2-way", "leaky", 0
        )

    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {
            derive_seed(7, w, lag, plan, mode, rep)
            for w in (3, 7)
            for lag in (1, 2)
            for plan in ("2-way", "10-fold")
            for mode in ("leaky", "clean")
            for rep in range(3)
        }
        assert len(seeds) == 2 * 2 * 2 * 2 * 3

    def test_none_base_seed_propagates(self):
        assert derive_seed(None, "anything") is None


class TestRunExperiment:
    def test_persistence_grid_shape(self, climate_csv):
        cfg = base_config(climate_csv, plans=(SplitPlan.two_way(), SplitPlan.k_fold(4)))
        report = run_experiment(cfg)
        assert len(report.cells) == 4  # 1 window x 1 lag x 2 plans x 2 modes
        for cell in report.cells:
            assert cell.stats.n_runs == 2
            assert len(cell.run_rmses) == 2

    def test_persistence_is_seed_independent(self, climate_csv):
        a = run_experiment(base_config(climate_csv, base_seed=1))
        b = run_experiment(base_config(climate_csv, base_seed=2))
        for ca, cb in zip(a.cells, b.cells):
            assert ca.run_rmses == cb.run_rmses
            assert ca.stats.std == 0.0

    def test_clean_cells_audit_zero_overlap(self, climate_csv):
        cfg = base_config(climate_csv, plans=(SplitPlan.k_fold(4),))
        report = run_experiment(cfg)
        for cell in report.cells:
            if cell.mode == "clean":
                assert cell.max_overlap == 0
            else:
                assert cell.max_overlap > 0

    def test_gain_records_pair_modes(self, climate_csv):
        cfg = base_config(
            climate_csv, plans=(SplitPlan.two_way(), SplitPlan.k_fold(4)), lags=(1, 2)
        )
        report = run_experiment(cfg)
        assert len(report.gains) == 4  # 2 lags x 2 plans
        for g in report.gains:
            assert g.leakage_rank is not None

    def test_cell_independence(self, climate_csv):
        wide = run_experiment(
            base_config(climate_csv, windows=(5, 7), model="lstm", hidden_size=4,
                        train=TrainConfig(epochs=2, seed=None))
        )
        narrow = run_experiment(
            base_config(climate_csv, windows=(7,), model="lstm", hidden_size=4,
                        train=TrainConfig(epochs=2, seed=None))
        )
        wide_cells = {(c.window, c.lag, c.plan, c.mode): c for c in wide.cells}
        for cell in narrow.cells:
            twin = wide_cells[(cell.window, cell.lag, cell.plan, cell.mode)]
            assert cell.run_rmses == twin.run_rmses

    def test_infeasible_cell_aborts_by_default(self, climate_csv):
        cfg = base_config(climate_csv, windows=(1200,))
        with pytest.raises(SplitError, match="W=1200"):
            run_experiment(cfg)

    def test_keep_going_records_errors(self, climate_csv):
        cfg = base_config(climate_csv, windows=(5, 2000))
        report = run_experiment(cfg, keep_going=True)
        assert report.errors
        assert {c.window for c in report.cells} == {5}

    def test_keep_going_isolates_any_task_exception(self, climate_csv, monkeypatch):
        import leakbench.runner as runner_mod

        real_evaluate = runner_mod._evaluate_folds

        def failing_for_w7(cfg, results, train_seeds):
            if results[0].test.config.window_size == 7:
                raise ValueError("numpy trouble")
            return real_evaluate(cfg, results, train_seeds)

        monkeypatch.setattr(runner_mod, "_evaluate_folds", failing_for_w7)
        cfg = base_config(climate_csv, windows=(5, 7))
        report = run_experiment(cfg, keep_going=True)
        assert {c.window for c in report.cells} == {5}
        assert len(report.errors) == 4  # 2 modes x 2 repetitions of W=7
        assert all("W=7" in e and "ValueError: numpy trouble" in e for e in report.errors)
        with pytest.raises(SplitError, match="W=7"):
            run_experiment(cfg)

    def test_killed_worker_fails_its_tasks_and_keeps_the_rest(self, climate_csv, monkeypatch):
        import concurrent.futures
        import multiprocessing
        import os
        import time
        from functools import partial

        import leakbench.runner as runner_mod

        real_run_once = runner_mod._run_once

        def killed_on_w7(series, cfg, cell, rep, spec):
            if cell.window == 7:
                time.sleep(0.5)  # the W=5 results come back first
                os._exit(1)
            return real_run_once(series, cfg, cell, rep, spec)

        # Forked workers inherit the patched _run_once.
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(runner_mod, "_run_once", killed_on_w7)
        pool = partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        cfg = base_config(climate_csv, windows=(5, 7))
        report = run_experiment(cfg, workers=2, keep_going=True)
        assert {c.window for c in report.cells} == {5}
        assert len(report.errors) == 4  # 2 modes x 2 repetitions of W=7
        assert all("W=7" in e and "BrokenProcessPool" in e for e in report.errors)
        with pytest.raises(SplitError, match="W=7.*BrokenProcessPool"):
            run_experiment(cfg, workers=2)

    def test_provenance_records_the_environment(self, climate_csv, tmp_path):
        report = run_experiment(base_config(climate_csv), workers=1)
        env = report.provenance["environment"]
        assert set(env) == {
            "python", "numpy", "scipy", "blas", "simd_found", "cpu_count", "workers",
        }
        assert env["numpy"] == np.__version__ and env["workers"] == 1
        assert set(env["blas"]) == {"name", "version"}
        assert isinstance(env["simd_found"], list)
        emit_report(report, tmp_path, fmt="json")
        assert load_report(tmp_path).provenance["environment"] == env

    def test_null_seed_is_drawn_recorded_and_replayable(self, climate_csv, tmp_path):
        cfg = base_config(
            climate_csv, model="lstm", hidden_size=4,
            train=TrainConfig(epochs=2, seed=None), base_seed=None,
        )
        first = run_experiment(cfg)
        seed = first.provenance["config"]["base_seed"]
        assert isinstance(seed, int) and first.provenance["base_seed_drawn"]
        replay = run_experiment(replace(cfg, base_seed=seed))
        assert not replay.provenance["base_seed_drawn"]
        emit_report(first, tmp_path / "first")
        emit_report(replay, tmp_path / "replay")
        for name in ("cells.csv", "gains.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (
                tmp_path / "replay" / name
            ).read_bytes()

    def test_contamination_gate_fires(self, climate_csv, monkeypatch):
        import leakbench.runner as runner_mod

        def poisoned_split(series, spec):
            from leakbench.splitting import SplitSpec, split as real_split

            leaky_spec = SplitSpec(
                plan=spec.plan, mode="leaky", window=spec.window,
                order=spec.order, seed=spec.seed,
            )
            return real_split(series, leaky_spec)

        monkeypatch.setattr(runner_mod, "split", poisoned_split)
        cfg = base_config(climate_csv, modes=("clean",))
        with pytest.raises(ContaminationError, match="clean cell audited contaminated"):
            run_experiment(cfg)

    def test_contamination_gate_ignores_keep_going(self, climate_csv, monkeypatch):
        import leakbench.runner as runner_mod

        def poisoned_split(series, spec):
            from leakbench.splitting import SplitSpec, split as real_split

            return real_split(
                series,
                SplitSpec(plan=spec.plan, mode="leaky", window=spec.window,
                          order=spec.order, seed=spec.seed),
            )

        monkeypatch.setattr(runner_mod, "split", poisoned_split)
        cfg = base_config(climate_csv, modes=("clean",))
        with pytest.raises(ContaminationError):
            run_experiment(cfg, keep_going=True)

    def test_lstm_runs_report_epochs(self, climate_csv):
        cfg = base_config(
            climate_csv, model="lstm", hidden_size=4,
            train=TrainConfig(epochs=3, seed=None), repetitions=1,
        )
        report = run_experiment(cfg)
        for cell in report.cells:
            assert cell.stats.mean_last_epoch == 3.0

    def test_workers_give_identical_report(self, climate_csv):
        cfg = base_config(climate_csv, plans=(SplitPlan.k_fold(3),))
        a = run_experiment(cfg, workers=1)
        b = run_experiment(cfg, workers=2)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.run_rmses == cb.run_rmses


class TestPhaseShapes:
    def test_phase_one_shape(self, climate_csv):
        # Six training setups x three plans x 10 repetitions, leaky only:
        # 18 cells and 180 runs across the six reports.
        plans = (SplitPlan.two_way(), SplitPlan.three_way(), SplitPlan.k_fold(10))
        reports = [
            run_experiment(
                base_config(
                    climate_csv,
                    name=f"setup-{i}",
                    windows=(10,),
                    plans=plans,
                    modes=("leaky",),
                    repetitions=10,
                )
            )
            for i in range(6)
        ]
        cells = [c for r in reports for c in r.cells]
        assert len(cells) == 18
        assert sum(c.stats.n_runs for c in cells) == 180

    def test_phase_three_shape(self, climate_csv):
        # Five (window, lag) variants x 3 plans x 2 modes as two sub-grids:
        # 30 cells, 15 gain records.
        plans = (SplitPlan.two_way(), SplitPlan.three_way(), SplitPlan.k_fold(10))
        report_a = run_experiment(
            base_config(climate_csv, name="w-grid", windows=(3, 7, 10), lags=(1,),
                        plans=plans, repetitions=1)
        )
        report_b = run_experiment(
            base_config(climate_csv, name="l-grid", windows=(10,), lags=(2, 3),
                        plans=plans, repetitions=1)
        )
        cells = list(report_a.cells) + list(report_b.cells)
        gains = list(report_a.gains) + list(report_b.gains)
        assert len(cells) == 30
        assert len(gains) == 15
        for group_window, group_lag in {(g.window, g.lag) for g in gains}:
            ranks = sorted(
                g.leakage_rank for g in gains
                if (g.window, g.lag) == (group_window, group_lag)
            )
            assert ranks == [1, 2, 3]


class TestEmit:
    def test_csv_row_count_and_header(self, climate_csv, tmp_path):
        report = run_experiment(base_config(climate_csv))
        paths = emit_report(report, tmp_path, fmt="csv")
        cells_csv = (tmp_path / "cells.csv").read_text().strip().splitlines()
        assert cells_csv[0] == CELL_CSV_HEADER
        assert len(cells_csv) == 1 + len(report.cells)
        assert (tmp_path / "gains.csv") in paths

    def test_json_round_trip(self, climate_csv, tmp_path):
        report = run_experiment(base_config(climate_csv))
        emit_report(report, tmp_path, fmt="json")
        assert load_report(tmp_path) == report

    def test_unknown_format_rejected(self, climate_csv, tmp_path):
        report = run_experiment(base_config(climate_csv))
        with pytest.raises(LeakbenchError, match="unknown report format"):
            emit_report(report, tmp_path, fmt="xml")

    def test_plot_data_shapes(self, climate_csv, tmp_path):
        cfg = base_config(climate_csv, repetitions=10, modes=("leaky",), lags=(1, 2))
        report = run_experiment(cfg)
        emit_plot_data(report, tmp_path)
        runs = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert runs[0] == "name,window,lag,plan,mode,run,rmse"
        assert len(runs) == 1 + 2 * 10  # 2 cells x 10 runs
        gains = (tmp_path / "gains_long.csv").read_text().strip().splitlines()
        assert gains[0] == "window,lag,plan,gain_percent"

    def test_plot_data_deterministic(self, climate_csv, tmp_path):
        report = run_experiment(base_config(climate_csv))
        emit_plot_data(report, tmp_path / "a")
        emit_plot_data(report, tmp_path / "b")
        assert (tmp_path / "a" / "runs.csv").read_bytes() == (
            tmp_path / "b" / "runs.csv"
        ).read_bytes()

    def test_recompute_gains_matches_report(self, climate_csv, tmp_path):
        report = run_experiment(base_config(climate_csv, lags=(1, 2)))
        emit_report(report, tmp_path, fmt="csv")
        records = recompute_gains(tmp_path / "cells.csv", tmp_path / "cells.csv")
        assert len(records) == len(report.gains)
        for got, want in zip(records, report.gains):
            assert got.gain_percent == pytest.approx(want.gain_percent, abs=1e-12)
            assert got.leakage_rank == want.leakage_rank

    def test_report_dict_round_trip(self, climate_csv):
        report = run_experiment(base_config(climate_csv))
        assert ExperimentReport.from_dict(report.to_dict()) == report
