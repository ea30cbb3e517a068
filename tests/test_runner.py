from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import leakbench.runner as runner_mod
from leakbench.errors import ContaminationError, LeakbenchError, SplitError
from leakbench.forecaster import TrainConfig, baseline_linear_ar, predict, train_many
from leakbench.metrics import rmse
from leakbench.runner import (
    CELL_CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    cell_key,
    derive_seed,
    emit_report,
    grid_splits,
    load_report,
    recompute_gains,
    run_experiment,
)
from leakbench.series import load_csv
from leakbench.splitting import SplitPlan, split
from leakbench.synthetic import write_reference_csv

from conftest import src_env


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
        "train": TrainConfig(epochs=2),
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

    @pytest.mark.parametrize("field", ["repetitions", "hidden_size"])
    def test_count_below_one_rejected(self, climate_csv, field):
        with pytest.raises(LeakbenchError, match=f"^{field} must be >= 1, got 0$"):
            base_config(climate_csv, **{field: 0})

    def test_unknown_model_rejected(self, climate_csv):
        with pytest.raises(LeakbenchError, match="unknown model"):
            base_config(climate_csv, model="transformer")

    @pytest.mark.parametrize("field", ["windows", "lags"])
    @pytest.mark.parametrize("value", [10.7, 10.0, True, "10", None])
    def test_non_integer_grid_entry_rejected(self, climate_csv, field, value):
        # Before, windows=(10.7,) was truncated to (10,) and lags=(True,) became (1,).
        with pytest.raises(LeakbenchError, match=f"'{field}'"):
            base_config(climate_csv, **{field: (5, value)})

    @pytest.mark.parametrize("field, entries, repeated", [
        ("windows", (5, 7, 5), "5"),
        ("lags", (1, 1), "1"),
        ("plans", (SplitPlan.two_way(), SplitPlan.two_way(0.6)), "'2-way'"),
        ("plans", (SplitPlan.k_fold(4), SplitPlan.two_way(), SplitPlan.k_fold(4)), "'4-fold'"),
        ("modes", ("leaky", "clean", "leaky"), "'leaky'"),
    ])
    def test_repeated_grid_entry_rejected(self, climate_csv, field, entries, repeated):
        # Two cells with one (window, lag, plan label, mode) key: before,
        # they ran on the same seeds, gave two indistinguishable cells.csv
        # rows, and gains.csv kept only the last one's gain.
        with pytest.raises(LeakbenchError, match=re.escape(f"'{field}' repeats {repeated}")):
            base_config(climate_csv, **{field: entries})

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

    @pytest.mark.parametrize("base_seed, parts", [
        (42, (10, 1, "2-way", "leaky", 0, "split")),
        (7, (5, 1, "10-fold", "clean", 2, None, "train")),
        (-3, (-1, -20, "3-way", "leaky", -7)),
        (2**63 - 1, (14, 3, "2-way", "clean", 9, 0, "train")),
        (2**63 - 2, ("Zeitreihe \u00fc\u00df \u2014 \u6e29\u5ea6", 1)),
    ])
    def test_equals_hashlib_sha256(self, base_seed, parts):
        import hashlib

        key = "|".join(str(p) for p in parts).encode("utf-8")
        head = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        assert derive_seed(base_seed, *parts) == (base_seed ^ head) & (2**63 - 1)

    def test_pinned_values(self):
        # Literal, so that a change of hash function fails even where the
        # reference above changes with it.
        assert derive_seed(42, 10, 1, "2-way", "leaky", 0, "split") == 3386665376202097312
        assert derive_seed(2**63 - 1, 7, 2, "10-fold", "clean", 3, 4, "train") == (
            8896941277092741002)


def test_baseline_run_and_audit_leave_openssl_unloaded(tmp_path, climate_csv):
    # hashlib and secrets map OpenSSL's libcrypto (~3.6 MB resident). The
    # LSTM still loads it: numpy.random imports secrets.
    config = tmp_path / "config.json"
    payload = base_config(climate_csv).to_dict()
    code = "\n".join([
        "import json, sys",
        "from leakbench.cli import main",
        "def loaded(): return [m for m in ('_hashlib', 'hashlib', 'secrets') if m in sys.modules]",
        "print('import', loaded(), file=sys.stderr)",
        f"config = {str(config)!r}",
        "for model in ('persistence', 'linear_ar'):",
        f"    payload = {{**{payload!r}, 'model': model}}",
        "    open(config, 'w').write(json.dumps(payload))",
        f"    code = main(['run', config, '--out', {str(tmp_path)!r} + '/' + model])",
        "    print(model, code, loaded(), file=sys.stderr)",
        "print('audit', main(['audit', config]), loaded(), file=sys.stderr)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stderr.splitlines() == [
        "import []", "persistence 0 []", "linear_ar 0 []", "audit 0 []",
    ]
    assert (tmp_path / "linear_ar" / "cells.csv").exists()


def patch_forked_cells(monkeypatch, fake_run_cell):
    """Make every worker run `fake_run_cell(real_run_cell, series, cfg,
    specs)` in place of `_run_cell`: forked workers inherit the patch."""
    import concurrent.futures
    import multiprocessing
    from functools import partial

    monkeypatch.setattr(runner_mod, "_run_cell", partial(fake_run_cell, runner_mod._run_cell))
    fork = multiprocessing.get_context("fork")
    pool = partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)


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
                        train=TrainConfig(epochs=2))
        )
        narrow = run_experiment(
            base_config(climate_csv, windows=(7,), model="lstm", hidden_size=4,
                        train=TrainConfig(epochs=2))
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

        real_score = runner_mod._fold_score

        def failing_for_w7(cfg, res, out):
            if res.test.config.window_size == 7:
                raise ValueError("numpy trouble")
            return real_score(cfg, res, out)

        monkeypatch.setattr(runner_mod, "_fold_score", failing_for_w7)
        cfg = base_config(climate_csv, windows=(5, 7))
        report = run_experiment(cfg, keep_going=True)
        assert {c.window for c in report.cells} == {5}
        assert len(report.errors) == 4  # 2 modes x 2 repetitions of W=7
        assert all("W=7" in e and "ValueError: numpy trouble" in e for e in report.errors)
        with pytest.raises(SplitError, match="W=7"):
            run_experiment(cfg)

    def test_killed_worker_fails_its_tasks_and_keeps_the_rest(self, climate_csv, monkeypatch):
        import os
        import time

        def killed_on_w7(real_run_cell, series, cfg, specs):
            if specs[0].window.window_size == 7:
                time.sleep(0.5)  # the W=5 results come back first
                os._exit(1)
            return real_run_cell(series, cfg, specs)

        patch_forked_cells(monkeypatch, killed_on_w7)
        cfg = base_config(climate_csv, windows=(5, 7))
        report = run_experiment(cfg, workers=2, keep_going=True)
        assert {c.window for c in report.cells} == {5}
        assert len(report.errors) == 4  # 2 modes x 2 repetitions of W=7
        assert all("W=7" in e and "BrokenProcessPool" in e for e in report.errors)
        with pytest.raises(SplitError, match="W=7.*BrokenProcessPool"):
            run_experiment(cfg, workers=2)

    def test_worker_killed_once_loses_no_cell(self, climate_csv, monkeypatch, tmp_path):
        import os

        marker = tmp_path / "killed"

        def killed_once_on_w7(real_run_cell, series, cfg, specs):
            if specs[0].window.window_size == 7 and not marker.exists():
                marker.touch()
                os._exit(1)
            return real_run_cell(series, cfg, specs)

        patch_forked_cells(monkeypatch, killed_once_on_w7)
        cfg = base_config(climate_csv, windows=(5, 7, 9))
        report = run_experiment(cfg, workers=2)
        assert marker.exists()
        assert not report.errors
        serial = run_experiment(cfg)
        assert [c.to_dict() for c in report.cells] == [c.to_dict() for c in serial.cells]
        assert len(report.cells) == 6

    def test_workers_below_one_rejected(self, climate_csv):
        for workers in (0, -2):
            with pytest.raises(LeakbenchError, match="workers must be >= 1"):
                run_experiment(base_config(climate_csv), workers=workers)

    def test_provenance_config_has_no_train_seed(self, climate_csv):
        report = run_experiment(base_config(climate_csv))
        assert report.provenance["config"]["train"] == {
            "epochs": 2, "learning_rate": 0.001, "batch_size": 32,
            "early_stopping": False, "patience": 10, "scaling": "zscore",
        }

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

    @pytest.mark.parametrize("entropy, drawn", [
        (b"\x00" * 8, 0), (b"\xff" * 8, 2**63 - 1), (bytes(range(1, 9)), 0x0102030405060708 >> 1),
    ], ids=["zeros", "ones", "counting"])
    def test_null_seed_draws_63_bits_from_the_os(self, climate_csv, monkeypatch, entropy, drawn):
        import os

        monkeypatch.setattr(os, "urandom", lambda n: entropy[:n])
        report = run_experiment(base_config(climate_csv, base_seed=None))
        assert report.provenance["config"]["base_seed"] == drawn
        assert report.provenance["base_seed_drawn"] is True

    def test_null_seed_is_drawn_recorded_and_replayable(self, climate_csv, tmp_path):
        cfg = base_config(
            climate_csv, model="lstm", hidden_size=4,
            train=TrainConfig(epochs=2), base_seed=None,
        )
        first = run_experiment(cfg)
        seed = first.provenance["config"]["base_seed"]
        assert isinstance(seed, int) and first.provenance["base_seed_drawn"]
        assert 0 <= seed < 2**63
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
            train=TrainConfig(epochs=3), repetitions=1,
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


class TestCellTask:
    """A task is one cell: each distinct split is made, audited and (for a
    baseline) scored once, and the LSTM folds of all repetitions train in
    shared `train_many` stacks."""

    @pytest.mark.parametrize("cap", [2, runner_mod.STACK_CAP])
    def test_stacked_repetitions_match_folds_trained_alone(self, climate_csv, monkeypatch, cap):
        monkeypatch.setattr(runner_mod, "STACK_CAP", cap)
        cfg = base_config(
            climate_csv, model="lstm", hidden_size=4, repetitions=3,
            plans=(SplitPlan.two_way(), SplitPlan.three_way()),
            train=TrainConfig(epochs=3, early_stopping=True, patience=2),
        )
        series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
        for specs in grid_splits(cfg):
            runs = runner_mod._run_cell(series, cfg, specs)
            for rep, (spec, (run_rmse, epochs, _)) in enumerate(zip(specs, runs)):
                rmses, fold_epochs = [], []
                for res in split(series, spec):
                    seed = derive_seed(cfg.base_seed, *cell_key(spec), rep, res.fold_index,
                                       "train")
                    (out,) = train_many([(res.train, res.val, seed)], cfg.train,
                                        cfg.hidden_size)
                    rmses.append(rmse(predict(out.model, out.scaler, res.test),
                                      res.test.targets()))
                    fold_epochs.append((out.optimal_epoch, out.last_epoch))
                assert run_rmse == float(np.mean(rmses))
                assert epochs == tuple(np.mean(fold_epochs, axis=0).tolist())
            # Every repetition trains on its own seeds.
            assert len({run[0] for run in runs}) == cfg.repetitions

    def test_random_order_splits_each_repetition(self, climate_csv):
        cfg = base_config(climate_csv, model="linear_ar", modes=("leaky",), order="random",
                          repetitions=3)
        series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
        (cell,) = run_experiment(cfg).cells
        (specs,) = grid_splits(cfg)
        assert len(set(cell.run_rmses)) == cfg.repetitions
        for run_rmse, spec in zip(cell.run_rmses, specs):
            folds = split(series, spec)
            assert run_rmse == float(np.mean([
                rmse(baseline_linear_ar(res.train, res.test), res.test.targets())
                for res in folds
            ]))

    def test_sequential_repetitions_share_one_split_and_fit(self, climate_csv, monkeypatch):
        calls = {"split": 0, "fit": 0}
        real_split, real_fit = runner_mod.split, runner_mod.baseline_linear_ar

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(runner_mod, "split", counted("split", real_split))
        monkeypatch.setattr(runner_mod, "baseline_linear_ar", counted("fit", real_fit))
        cfg = base_config(climate_csv, model="linear_ar", repetitions=4,
                          plans=(SplitPlan.two_way(), SplitPlan.k_fold(3)))
        report = run_experiment(cfg)
        assert calls == {"split": 4, "fit": 2 * (1 + 3)}  # one per cell, one per fold
        assert all(len(set(c.run_rmses)) == 1 and c.stats.n_runs == 4 for c in report.cells)

    def test_failing_repetition_fails_alone(self, climate_csv, monkeypatch):
        from leakbench.errors import TrainingError

        cfg = base_config(climate_csv, model="lstm", hidden_size=4, repetitions=3,
                          train=TrainConfig(epochs=1))
        _, clean = grid_splits(cfg)
        doomed = derive_seed(cfg.base_seed, *cell_key(clean[1]), 1, 0, "train")
        real_train_many = runner_mod.train_many

        def one_diverges(jobs, train_cfg, hidden_size):
            outcomes = real_train_many(jobs, train_cfg, hidden_size)
            return [TrainingError("training diverged at epoch 1 (loss=nan)")
                    if seed == doomed else out for (_, _, seed), out in zip(jobs, outcomes)]

        monkeypatch.setattr(runner_mod, "train_many", one_diverges)
        report = run_experiment(cfg, keep_going=True)
        assert report.errors == (
            "cell W=5 L=1 plan=2-way mode=clean rep=1: training diverged at epoch 1 (loss=nan)",
        )
        assert [c.mode for c in report.cells] == ["leaky"]

    def test_random_order_failing_fold_fails_its_repetition_alone(self, climate_csv,
                                                                  monkeypatch):
        cfg = base_config(climate_csv, model="linear_ar", modes=("leaky",), order="random",
                          repetitions=3, plans=(SplitPlan.k_fold(3),))
        series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
        (specs,) = grid_splits(cfg)
        doomed = split(series, specs[1])[1].test.starts  # repetition 1, fold 1
        real_score = runner_mod._fold_score

        def failing_on_doomed(cfg, res, out):
            if np.array_equal(res.test.starts, doomed):
                raise ValueError("fold 1 of repetition 1")
            return real_score(cfg, res, out)

        monkeypatch.setattr(runner_mod, "_fold_score", failing_on_doomed)
        runs = runner_mod._run_cell(series, cfg, specs)
        assert str(runs[1]) == "fold 1 of repetition 1"
        for rep in (0, 2):
            assert runs[rep][0] == float(np.mean([
                rmse(baseline_linear_ar(res.train, res.test), res.test.targets())
                for res in split(series, specs[rep])
            ]))
        report = run_experiment(cfg, keep_going=True)
        assert report.errors == (
            "cell W=5 L=1 plan=3-fold mode=leaky rep=1: ValueError: fold 1 of repetition 1",
        )

    @pytest.mark.parametrize("train_fold, predict_fold", [(1, 0), (0, 1)])
    def test_first_failing_fold_gives_the_error(self, climate_csv, monkeypatch,
                                                train_fold, predict_fold):
        # Repetition 1 fails to train one fold and to predict another (the
        # prediction fails in every repetition, which share one split): its
        # error is its first failing fold's, whichever way that fold failed.
        from leakbench.errors import TrainingError

        cfg = base_config(climate_csv, model="lstm", hidden_size=4, modes=("clean",),
                          plans=(SplitPlan.k_fold(3),), train=TrainConfig(epochs=1))
        series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
        (specs,) = grid_splits(cfg)
        doomed_seed = derive_seed(cfg.base_seed, *cell_key(specs[1]), 1, train_fold, "train")
        doomed_test = split(series, specs[1])[predict_fold].test.starts
        real_train_many, real_predict = runner_mod.train_many, runner_mod.predict

        def one_diverges(jobs, train_cfg, hidden_size):
            outcomes = real_train_many(jobs, train_cfg, hidden_size)
            return [TrainingError("training diverged at epoch 1 (loss=nan)")
                    if seed == doomed_seed else out for (_, _, seed), out in zip(jobs, outcomes)]

        def failing_predict(model, scaler, seqs):
            if np.array_equal(seqs.starts, doomed_test):
                raise ValueError(f"prediction failed on fold {predict_fold}")
            return real_predict(model, scaler, seqs)

        monkeypatch.setattr(runner_mod, "train_many", one_diverges)
        monkeypatch.setattr(runner_mod, "predict", failing_predict)
        runs = runner_mod._run_cell(series, cfg, specs)
        assert str(runs[0]) == f"prediction failed on fold {predict_fold}"
        assert str(runs[1]) == (
            f"prediction failed on fold {predict_fold}" if predict_fold < train_fold
            else "training diverged at epoch 1 (loss=nan)"
        )

    @pytest.mark.parametrize("model", ["persistence", "lstm"])
    def test_failed_split_fails_every_repetition(self, climate_csv, model):
        cfg = base_config(climate_csv, model=model, hidden_size=4, windows=(5, 2000),
                          modes=("clean",), repetitions=3)
        report = run_experiment(cfg, keep_going=True)
        series = load_csv(cfg.dataset, cfg.value_column, cfg.date_column)
        with pytest.raises(SplitError) as failed:
            split(series, grid_splits(cfg)[1][0])
        assert report.errors == tuple(
            f"cell W=2000 L=1 plan=2-way mode=clean rep={rep}: {failed.value}"
            for rep in range(3)
        )
        assert [c.window for c in report.cells] == [5]


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

    def test_runs_csv_shape(self, climate_csv, tmp_path):
        cfg = base_config(climate_csv, repetitions=10, modes=("leaky",), lags=(1, 2))
        report = run_experiment(cfg)
        assert (tmp_path / "runs.csv") in emit_report(report, tmp_path, fmt="csv")
        runs = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert runs[0] == "name,window,lag,plan,mode,run,rmse"
        assert len(runs) == 1 + 2 * 10  # 2 cells x 10 runs

    def test_runs_csv_deterministic(self, climate_csv, tmp_path):
        report = run_experiment(base_config(climate_csv))
        emit_report(report, tmp_path / "a", fmt="csv")
        emit_report(report, tmp_path / "b", fmt="csv")
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
