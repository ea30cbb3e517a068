from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbench.errors import LeakbenchError
from leakbench.metrics import (
    GainRecord,
    RunStats,
    _t975,
    aggregate,
    leakage_rank,
    rmse,
    rmse_gain,
)
from leakbench.runner import CellResult, _pair_gains
from leakbench.splitting import SplitPlan

from conftest import src_env

T_975_DF1 = 12.706204736174698  # two-sided 95% quantile, 1 degree of freedom
# _t975 against scipy; scipy's stdtrit is itself up to 3.5e-15 off the exact quantile
T975_RTOL = 1e-13

# Published clean/leaky mean-RMSE pairs and their gain percentages for the
# five configuration groups x three validation plans.
GAIN_TABLE = [
    (10, 1, "2-way", 1.6596, 1.6569, 0.16),
    (10, 1, "3-way", 1.6848, 1.6522, 1.93),
    (10, 1, "10-fold", 1.9359, 1.8646, 3.68),
    (3, 1, "2-way", 1.6518, 1.6493, 0.15),
    (3, 1, "3-way", 1.7312, 1.6516, 4.60),
    (3, 1, "10-fold", 1.7308, 1.6476, 4.81),
    (7, 1, "2-way", 1.6870, 1.6487, 2.27),
    (7, 1, "3-way", 1.7182, 1.6710, 2.75),
    (7, 1, "10-fold", 1.7607, 1.6347, 7.17),
    (10, 2, "2-way", 1.7533, 1.7964, -2.46),
    (10, 2, "3-way", 1.8800, 1.8492, 1.64),
    (10, 2, "10-fold", 2.0868, 1.6841, 19.29),
    (10, 3, "2-way", 2.0325, 1.9804, 2.56),
    (10, 3, "3-way", 2.6100, 2.4802, 4.97),
    (10, 3, "10-fold", 2.8925, 2.2987, 20.51),
]


class TestRmse:
    def test_perfect_predictions(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_residual(self):
        assert rmse([3.0], [1.0]) == 2.0

    def test_hand_arithmetic(self):
        assert rmse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LeakbenchError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(LeakbenchError, match="empty"):
            rmse([], [])


class TestAggregate:
    def test_two_run_hand_fixture(self):
        stats = aggregate([1.0, 3.0])
        assert stats.mean == 2.0
        assert stats.std == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert stats.stderr == pytest.approx(1.0, abs=1e-12)
        half = (stats.ci95[1] - stats.ci95[0]) / 2.0
        assert half == pytest.approx(T_975_DF1, abs=1e-6)

    def test_constant_runs(self):
        stats = aggregate([2.0, 2.0, 2.0])
        assert stats.std == 0.0
        assert stats.ci95 == (2.0, 2.0)

    def test_five_run_interval_shape(self):
        # n=5 -> t quantile 2.776; a tight cluster keeps the interval tight.
        runs = [1.58, 1.58, 1.58, 1.59, 1.60]
        stats = aggregate(runs)
        assert stats.mean == pytest.approx(1.586, abs=1e-9)
        half = (stats.ci95[1] - stats.ci95[0]) / 2.0
        expected_half = 2.7764451051977987 * stats.std / math.sqrt(5)
        assert half == pytest.approx(expected_half, abs=1e-12)
        assert stats.ci95[0] > 1.57 and stats.ci95[1] < 1.60

    def test_single_run_suppresses_spread_fields(self):
        stats = aggregate([1.5])
        assert stats.n_runs == 1
        assert stats.std is None and stats.stderr is None and stats.ci95 is None

    def test_zero_runs_rejected(self):
        with pytest.raises(LeakbenchError):
            aggregate([])

    def test_epoch_means(self):
        stats = aggregate([1.0, 2.0], optimal_epochs=[10, 20], last_epochs=[30, 40])
        assert stats.mean_optimal_epoch == 15.0
        assert stats.mean_last_epoch == 35.0

    def test_invariants(self):
        stats = aggregate([3.0, 1.0, 2.0, 5.0])
        assert stats.min <= stats.mean <= stats.max
        assert stats.ci95[0] <= stats.mean <= stats.ci95[1]
        assert stats.stderr == pytest.approx(stats.std / 2.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=12))
    def test_permutation_invariant(self, runs):
        rng = np.random.default_rng(1)
        shuffled = list(np.array(runs)[rng.permutation(len(runs))])
        a, b = aggregate(runs), aggregate(shuffled)
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.std == pytest.approx(b.std, rel=1e-9, abs=1e-12)
        assert (a.min, a.max) == (b.min, b.max)

    def test_dict_round_trip(self):
        stats = aggregate([1.0, 3.0], optimal_epochs=[4, 6])
        assert RunStats.from_dict(stats.to_dict()) == stats

    def test_ci95_is_mean_plus_minus_t975_stderr_and_t975_matches_t_ppf(self):
        from scipy import stats as sps

        rng = np.random.default_rng(3)
        for n in range(2, 201):
            runs = aggregate(rng.normal(2.0, 0.1, size=n))
            half = _t975(n - 1) * runs.stderr
            assert runs.ci95 == (runs.mean - half, runs.mean + half)
            assert _t975(n - 1) == pytest.approx(sps.t.ppf(0.975, n - 1), rel=T975_RTOL)


@pytest.mark.parametrize("dfs", [range(1, 1000), range(1000, 20000, 37)],
                         ids=["newton", "cornish-fisher"])
def test_t975_matches_scipy_stdtrit(dfs):
    from scipy.special import stdtrit

    for df in dfs:
        assert _t975(df) == pytest.approx(stdtrit(df, 0.975), rel=T975_RTOL), df


def test_t975_closed_forms():
    assert _t975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-14)
    assert _t975(2) == pytest.approx(0.95 / math.sqrt(2 * 0.975 * 0.025), rel=1e-14)


def test_cli_import_leaves_scipy_special_stats_and_optimize_unloaded():
    # no scipy module at all: the environment record reads scipy's version
    # without importing the package
    code = (
        "import sys, leakbench.cli; "
        "print([m for m in sys.modules if m == 'multiprocessing' "
        "or m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_run_leaves_scipy_special_unloaded(tmp_path):
    from leakbench.synthetic import write_reference_csv

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "name": "import-path", "dataset": str(write_reference_csv(tmp_path / "climate.csv")),
        "windows": [3], "lags": [1], "plans": [SplitPlan.two_way().to_dict()],
        "modes": ["leaky", "clean"], "order": "sequential", "model": "lstm",
        "train": {"epochs": 1}, "repetitions": 2, "base_seed": 1,
    }))
    code = (
        "import sys; from leakbench.cli import main; "
        f"code = main(['run', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    cells = (tmp_path / "out" / "cells.csv").read_text().splitlines()
    assert len(cells) == 3 and all(row.split(",")[5] == "2" for row in cells[1:])
    # the version the run recorded without importing scipy is the one an
    # import of scipy reports
    imported = subprocess.run([sys.executable, "-c", "import scipy; print(scipy.__version__)"],
                              capture_output=True, text=True, check=True).stdout.strip()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["provenance"]["environment"]["scipy"] == imported


class TestRmseGain:
    @pytest.mark.parametrize("window,lag,plan,clean,leaky,expected", GAIN_TABLE)
    def test_published_gain_values(self, window, lag, plan, clean, leaky, expected):
        gain, direction = rmse_gain(clean, leaky)
        assert gain == pytest.approx(expected, abs=0.02)
        assert direction == ("up" if expected > 0 else "down")

    def test_zero_gain_for_equal_rmse(self):
        gain, _ = rmse_gain(1.234, 1.234)
        assert gain == 0.0

    def test_clean_must_be_positive(self):
        with pytest.raises(LeakbenchError, match="positive"):
            rmse_gain(0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["clean", "leaky"])
    def test_non_finite_rmse_rejected(self, side, bad):
        # `nan <= 0` is False, so a NaN clean RMSE once passed as a nan
        # gain with direction "down", which leakage_rank put first.
        rmses = {"clean": 1.5, "leaky": 1.2, side: bad}
        with pytest.raises(LeakbenchError, match=f"{side} RMSE must be finite"):
            rmse_gain(rmses["clean"], rmses["leaky"])

    def test_leaky_must_not_be_negative(self):
        assert rmse_gain(1.0, 0.0) == (100.0, "up")
        with pytest.raises(LeakbenchError, match="non-negative"):
            rmse_gain(1.0, -0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        clean=st.floats(0.01, 100.0),
        leaky=st.floats(0.001, 100.0),
        alpha=st.floats(0.01, 50.0),
    )
    def test_scale_invariance(self, clean, leaky, alpha):
        g1, d1 = rmse_gain(clean, leaky)
        g2, d2 = rmse_gain(alpha * clean, alpha * leaky)
        assert g1 == pytest.approx(g2, rel=1e-9, abs=1e-9)
        assert d1 == d2

    @settings(max_examples=60, deadline=None)
    @given(clean=st.floats(0.01, 100.0), leaky=st.floats(0.001, 100.0))
    def test_sign_matches_optimistic_bias(self, clean, leaky):
        gain, _ = rmse_gain(clean, leaky)
        if leaky < clean:
            assert gain > 0
        elif leaky > clean:
            assert gain < 0


def records(gains, plans=("2-way", "3-way", "10-fold")):
    return [
        GainRecord(
            window=10, lag=1, plan=plan, rmse_clean=1.0,
            rmse_leaky=1.0 - g / 100.0, gain_percent=g,
            direction="up" if g > 0 else "down",
        )
        for g, plan in zip(gains, plans)
    ]


class TestLeakageRank:
    def test_base_config_group(self):
        ranked = leakage_rank(records([0.16, 1.93, 3.68]))
        assert [r.leakage_rank for r in ranked] == [1, 2, 3]

    def test_window7_group(self):
        ranked = leakage_rank(records([2.27, 2.75, 7.17]))
        assert [r.leakage_rank for r in ranked] == [1, 2, 3]

    def test_rank_uses_absolute_magnitude(self):
        ranked = leakage_rank(records([-2.46, 1.64, 19.29]))
        assert [r.leakage_rank for r in ranked] == [2, 1, 3]

    def test_ties_break_by_plan_order(self):
        ranked = leakage_rank(records([1.5, 1.5, 1.5]))
        by_plan = {r.plan: r.leakage_rank for r in ranked}
        assert by_plan == {"2-way": 1, "3-way": 2, "10-fold": 3}

    def test_ranks_are_a_permutation(self):
        ranked = leakage_rank(records([4.81, 0.15, 4.60], plans=("10-fold", "2-way", "3-way")))
        assert sorted(r.leakage_rank for r in ranked) == [1, 2, 3]
        ordered = sorted(ranked, key=lambda r: r.leakage_rank)
        mags = [abs(r.gain_percent) for r in ordered]
        assert mags == sorted(mags)

    def test_empty_group_rejected(self):
        with pytest.raises(LeakbenchError):
            leakage_rank([])

    def test_ranked_gain_record_round_trip(self):
        (rec,) = _pair_gains([
            CellResult(10, 2, "10-fold", mode, aggregate([mean]), (mean,), 0, ())
            for mode, mean in (("clean", 2.0868), ("leaky", 1.6841))
        ])
        assert (rec.window, rec.lag, rec.plan, rec.rmse_clean, rec.rmse_leaky) == (
            10, 2, "10-fold", 2.0868, 1.6841)
        assert (rec.gain_percent, rec.direction, rec.leakage_rank) == (
            *rmse_gain(2.0868, 1.6841), 1)
        assert GainRecord.from_dict(rec.to_dict()) == rec
