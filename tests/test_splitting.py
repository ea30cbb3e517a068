from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbench.errors import SplitError
from leakbench.splitting import SplitPlan, SplitSpec, split
from leakbench.windowing import WindowConfig

from conftest import make_series


def spec(plan, mode="leaky", w=3, lag=1, order="sequential", seed=None):
    return SplitSpec(
        plan=plan, mode=mode, window=WindowConfig(w, lag), order=order, seed=seed
    )


class TestSplitPlan:
    def test_defaults(self):
        assert SplitPlan.two_way().fractions == (0.8, 0.2)
        assert SplitPlan.three_way().fractions == pytest.approx((0.7, 0.1, 0.2))
        assert SplitPlan.k_fold().k == 10

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(SplitError, match="sum to 1"):
            SplitPlan(kind="two_way", fractions=(0.8, 0.3))

    def test_fractions_must_be_positive(self):
        with pytest.raises(SplitError, match="positive"):
            SplitPlan(kind="three_way", fractions=(1.1, -0.3, 0.2))

    @pytest.mark.parametrize("kind, literal, shown", [
        ("two_way", "[NaN, 0.5]", "(nan, 0.5)"),
        ("two_way", "[Infinity, 0.2]", "(inf, 0.2)"),
        ("three_way", "[0.7, NaN, 0.2]", "(0.7, nan, 0.2)"),
    ])
    def test_fractions_must_be_finite(self, kind, literal, shown):
        # json.loads reads the bare NaN/Infinity literals; `nan <= 0` and
        # `abs(nan - 1.0) > 1e-9` are both False, so a NaN passed both
        # checks and every repetition failed to convert it to a pair count.
        record = json.loads(f'{{"kind": "{kind}", "fractions": {literal}}}')
        with pytest.raises(SplitError,
                           match=re.escape(f"fractions must be finite and positive, got {shown}")):
            SplitPlan.from_dict(record)

    def test_k_lower_bound(self):
        with pytest.raises(SplitError, match="k must be >= 2"):
            SplitPlan.k_fold(1)

    def test_labels(self):
        assert SplitPlan.two_way().label == "2-way"
        assert SplitPlan.three_way().label == "3-way"
        assert SplitPlan.k_fold(10).label == "10-fold"

    def test_dict_round_trip(self):
        for plan in (SplitPlan.two_way(), SplitPlan.three_way(), SplitPlan.k_fold(5)):
            assert SplitPlan.from_dict(plan.to_dict()) == plan


class TestSplitSpec:
    def test_clean_random_rejected(self):
        with pytest.raises(SplitError, match="sequential"):
            spec(SplitPlan.two_way(), mode="clean", order="random")

    def test_dict_round_trip(self):
        s = spec(SplitPlan.k_fold(4), mode="clean", w=5, lag=2, seed=11)
        assert SplitSpec.from_dict(s.to_dict()) == s


class TestLeakySplits:
    def test_two_way_hand_enumeration(self):
        # N=10, W=3, L=1: 7 pairs; train floor(0.8*7)=5, test 2.
        series = make_series(np.arange(10.0))
        (res,) = split(series, spec(SplitPlan.two_way()))
        assert res.train.starts.tolist() == [0, 1, 2, 3, 4]
        assert res.test.starts.tolist() == [5, 6]
        assert res.val is None

    def test_three_way_flooring(self):
        series = make_series(np.arange(20.0))
        (res,) = split(series, spec(SplitPlan.three_way()))
        # 17 pairs -> train floor(11.9)=11, val floor(1.7)=1, remainder 5
        assert len(res.train) == 11
        assert len(res.val) == 1
        assert len(res.test) == 5

    def test_two_way_reference_counts(self, climate):
        (res,) = split(climate, spec(SplitPlan.two_way(), w=10, lag=1))
        assert len(res.train) == 1161
        assert len(res.test) == 291

    def test_partition_is_disjoint_and_complete(self):
        series = make_series(np.arange(40.0))
        (res,) = split(series, spec(SplitPlan.three_way(), w=4, lag=2))
        starts = lambda s: set(s.starts.tolist())
        tr, va, te = starts(res.train), starts(res.val), starts(res.test)
        assert not (tr & va) and not (tr & te) and not (va & te)
        (two_way,) = split(series, spec(SplitPlan.two_way(), w=4, lag=2))
        assert tr | va | te == starts(two_way.train) | starts(two_way.test)

    def test_random_order_partitions_by_shuffled_membership(self):
        series = make_series(np.arange(30.0))
        (seq_res,) = split(series, spec(SplitPlan.two_way()))
        (rand_res,) = split(series, spec(SplitPlan.two_way(), order="random", seed=5))
        assert set(rand_res.train.starts.tolist()) != set(seq_res.train.starts.tolist())
        # union of partitions is still the full pair set (30 - 3 - 1 + 1)
        all_starts = set(rand_res.train.starts.tolist()) | set(rand_res.test.starts.tolist())
        assert all_starts == set(range(27))

    def test_random_order_is_seed_deterministic(self):
        series = make_series(np.arange(30.0))
        a = split(series, spec(SplitPlan.k_fold(3), order="random", seed=9))
        b = split(series, spec(SplitPlan.k_fold(3), order="random", seed=9))
        for ra, rb in zip(a, b):
            assert ra.test.starts.tolist() == rb.test.starts.tolist()

    def test_k_fold_coverage(self):
        series = make_series(np.arange(50.0))
        results = split(series, spec(SplitPlan.k_fold(10), w=5, lag=1))
        assert len(results) == 10
        assert [res.fold_index for res in results] == list(range(10))
        seen: list[int] = []
        for res in results:
            seen.extend(res.test.starts.tolist())
        assert sorted(seen) == list(range(45))  # every pair in exactly one test

    def test_k_fold_block_sizing(self):
        # 45 pairs over 10 folds: first 5 blocks get 5, the rest 4
        series = make_series(np.arange(50.0))
        results = split(series, spec(SplitPlan.k_fold(10), w=5, lag=1))
        sizes = [len(r.test) for r in results]
        assert sizes == [5, 5, 5, 5, 5, 4, 4, 4, 4, 4]

    def test_too_short_series_errors(self):
        with pytest.raises(SplitError):
            split(make_series(np.arange(3.0)), spec(SplitPlan.two_way(), w=3, lag=1))


class TestCleanSplits:
    def test_two_way_insufficient_test_segment(self):
        # N=10 clean 80/20: test raw segment [8,10) is too short for W=3,L=1.
        series = make_series(np.arange(10.0))
        with pytest.raises(SplitError, match="empty test partition"):
            split(series, spec(SplitPlan.two_way(), mode="clean"))

    def test_three_way_reference_counts(self, climate):
        (res,) = split(climate, spec(SplitPlan.three_way(), mode="clean", w=10, lag=1))
        assert res.train.source_range == ((0, 1023),)
        assert res.val.source_range == ((1023, 1169),)
        assert res.test.source_range == ((1169, 1462),)
        assert len(res.train) == 1013
        assert len(res.val) == 136
        assert len(res.test) == 283

    def test_two_way_reference_counts(self, climate):
        (res,) = split(climate, spec(SplitPlan.two_way(), mode="clean", w=10, lag=1))
        assert len(res.train) == 1159
        assert len(res.test) == 283

    def test_k_fold_train_has_two_runs(self, climate):
        results = split(climate, spec(SplitPlan.k_fold(10), mode="clean", w=10, lag=1))
        middle = results[5]
        assert len(middle.train.source_range) == 2
        first, last = results[0], results[9]
        assert len(first.train.source_range) == 1
        assert len(last.train.source_range) == 1

    def test_k_fold_no_window_crosses_block_boundary(self):
        series = make_series(np.arange(60.0))
        results = split(series, spec(SplitPlan.k_fold(5), mode="clean", w=4, lag=2))
        for res in results:
            for s in (res.train, res.test):
                for t, target in zip(s.starts.tolist(), s.target_indices().tolist()):
                    assert any(lo <= t and target < hi for lo, hi in s.source_range)

    def test_k_fold_train_is_both_runs_in_order(self):
        # N=47, W=3, L=1, k=4: blocks [0,12) [12,24) [24,36) [36,47)
        series = make_series(np.arange(47.0))
        results = split(series, spec(SplitPlan.k_fold(4), mode="clean", w=3, lag=1))
        middle = results[1]
        assert middle.train.source_range == ((0, 12), (24, 47))
        assert middle.train.starts.tolist() == list(range(0, 9)) + list(range(24, 44))
        np.testing.assert_array_equal(middle.train.targets(), middle.train.starts + 3)
        assert results[0].train.source_range == ((12, 47),)
        assert results[0].train.starts.tolist() == list(range(12, 44))
        assert results[3].train.source_range == ((0, 36),)
        assert results[3].train.starts.tolist() == list(range(0, 33))

    def test_k_fold_raw_coverage(self):
        series = make_series(np.arange(47.0))
        results = split(series, spec(SplitPlan.k_fold(4), mode="clean", w=3, lag=1))
        blocks = [r.test.source_range[0] for r in results]
        assert blocks[0][0] == 0 and blocks[-1][1] == 47
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert b == c  # contiguous, non-overlapping cover

    def test_error_reports_partition_and_length(self):
        series = make_series(np.arange(40.0))
        with pytest.raises(SplitError, match="val.*raw length 4"):
            split(series, spec(SplitPlan.three_way(), mode="clean", w=4, lag=2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=24, max_value=64),
    w=st.integers(min_value=1, max_value=6),
    lag=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_determinism_same_spec_same_result(n, w, lag, seed):
    series = make_series(np.arange(float(n)))
    s = spec(SplitPlan.k_fold(3), order="random", seed=seed, w=w, lag=lag)
    try:
        a = split(series, s)
        b = split(series, s)
    except SplitError:
        return
    for ra, rb in zip(a, b):
        assert ra.train.starts.tolist() == rb.train.starts.tolist()
        assert ra.test.starts.tolist() == rb.test.starts.tolist()


def naive_split(n, w, lag, plan, mode, order="sequential", seed=None):
    """The folds a spec should yield, as one {partition: (starts,
    source_range)} dict per fold, or None when some partition has no pairs.

    Written from the partition rules position by position, sharing no code
    with `splitting`: label every position of the axis (window starts in
    leaky mode, raw indices in clean mode) with its partition, then read
    each partition's pairs off its labels.
    """
    span = w + lag  # raw points one pair covers
    if mode == "leaky":
        axis = list(range(max(0, n - span + 1)))
        if order == "random":
            axis = [axis[i] for i in np.random.default_rng(seed).permutation(len(axis))]
    else:
        axis = list(range(n))
    size = len(axis)
    if plan.kind == "k_fold":
        names = ["train", "test"]
        blocks = []
        for i in range(plan.k):
            blocks += [i] * (size // plan.k + (1 if i < size % plan.k else 0))
        labellings = [["test" if b == i else "train" for b in blocks] for i in range(plan.k)]
    else:
        names = ["train", "test"] if plan.kind == "two_way" else ["train", "val", "test"]
        labels = []
        for name, fraction in zip(names, plan.fractions[:-1]):
            labels += [name] * int(fraction * size)
        labels += ["test"] * (size - len(labels))
        labellings = [labels]

    folds = []
    for labels in labellings:
        fold = {}
        for name in names:
            if mode == "leaky":
                starts = sorted(t for t, label in zip(axis, labels) if label == name)
                ranges = ((0, n),)
            else:
                runs = []
                for t, label in enumerate(labels):
                    if label != name:
                        continue
                    if runs and runs[-1][1] == t:
                        runs[-1][1] = t + 1
                    else:
                        runs.append([t, t + 1])
                starts = [t for lo, hi in runs for t in range(lo, hi - span + 1)]
                ranges = tuple((lo, hi) for lo, hi in runs)
            if not starts:
                return None
            fold[name] = (starts, ranges)
        folds.append(fold)
    return folds


@st.composite
def plans(draw):
    kind = draw(st.sampled_from(["two_way", "three_way", "k_fold"]))
    if kind == "k_fold":
        return SplitPlan.k_fold(draw(st.integers(min_value=2, max_value=12)))
    train = draw(st.floats(min_value=0.05, max_value=0.85))
    if kind == "two_way":
        return SplitPlan.two_way(train)
    return SplitPlan.three_way(train, draw(st.floats(min_value=0.05, max_value=0.9 - train)))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=80),
    w=st.integers(min_value=1, max_value=6),
    lag=st.integers(min_value=1, max_value=3),
    plan=plans(),
    mode_order=st.sampled_from(
        [("leaky", "sequential"), ("leaky", "random"), ("clean", "sequential")]
    ),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_split_matches_naive_partition_loop(n, w, lag, plan, mode_order, seed):
    mode, order = mode_order
    s = spec(plan, mode=mode, w=w, lag=lag, order=order, seed=seed)
    series = make_series(np.arange(float(n)))
    expected = naive_split(n, w, lag, plan, mode, order, seed)
    if expected is None:
        with pytest.raises(SplitError):
            split(series, s)
        return
    results = split(series, s)
    assert [res.fold_index for res in results] == list(range(len(expected)))
    for res, fold in zip(results, expected):
        assert (res.val is None) == ("val" not in fold)
        for name, (starts, ranges) in fold.items():
            got = getattr(res, name)
            assert got.starts.tolist() == starts
            assert got.source_range == ranges
            # values[t] == t, so the buffer must line up with raw indices
            assert got.inputs()[:, 0].tolist() == starts
            assert got.targets().tolist() == [t + w + lag - 1 for t in starts]


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize(
    "mode,order", [("leaky", "sequential"), ("leaky", "random"), ("clean", "sequential")]
)
@pytest.mark.parametrize(
    "plan", [SplitPlan.two_way(), SplitPlan.three_way(), SplitPlan.k_fold(10)],
    ids=lambda p: p.label,
)
def test_series_shorter_than_one_pair_is_split_error(plan, mode, order, n):
    # W=4, L=2: one pair spans 6 raw points
    series = make_series(np.arange(float(n)))
    with pytest.raises(SplitError):
        split(series, spec(plan, mode=mode, w=4, lag=2, order=order, seed=3))


def test_single_pair_leaves_k_fold_train_empty():
    # One pair: fold 0 tests on it and no range is left to train on.
    series = make_series(np.arange(4.0))
    with pytest.raises(SplitError, match=r"empty train partition \(fold 0\)"):
        split(series, spec(SplitPlan.k_fold(2), w=3, lag=1))


@pytest.mark.parametrize(
    "mode,order", [("leaky", "sequential"), ("leaky", "random"), ("clean", "sequential")]
)
@pytest.mark.parametrize(
    "plan", [SplitPlan.two_way(), SplitPlan.three_way(), SplitPlan.k_fold(5)],
    ids=lambda p: p.label,
)
def test_every_partition_indexes_the_series_buffer_by_raw_index(plan, mode, order):
    series = make_series(np.random.default_rng(8).normal(size=73))
    for res in split(series, spec(plan, mode=mode, w=4, lag=2, order=order, seed=5)):
        for seqs in (res.train, res.val, res.test):
            if seqs is None:
                continue
            assert np.shares_memory(seqs.values, series.values)
            assert seqs.values.shape == series.values.shape
            np.testing.assert_array_equal(
                seqs.values[seqs.starts], series.values[seqs.starts])
