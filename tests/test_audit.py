from __future__ import annotations

import importlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leakbench.audit import RUN_LIMIT, apply_buffer, audit, minimal_clearing_gap
from leakbench.errors import AuditError, SplitError
from leakbench.splitting import SplitPlan, SplitResult, SplitSpec, split
from leakbench.windowing import SequenceSet, WindowConfig

from conftest import make_series

# the package's `audit` attribute is the function, so name the module itself
audit_module = importlib.import_module("leakbench.audit")


def naive_audit(result: SplitResult):
    """Independent oracle: rebuild every footprint element-by-element from
    the window starts and intersect plain Python sets."""
    w, lag = result.test.config.window_size, result.test.config.lag_step

    def pair_indices(t):
        s = set()
        for j in range(w):
            s.add(t + j)
        s.add(t + w + lag - 1)
        return s

    train = set()
    for t in result.train.starts.tolist():
        train |= pair_indices(t)
    if result.val is not None:
        for t in result.val.starts.tolist():
            train |= pair_indices(t)
    test = set()
    contaminated_pairs = 0
    for t in result.test.starts.tolist():
        idx = pair_indices(t)
        test |= idx
        if idx & train:
            contaminated_pairs += 1
    return train, test, train & test, contaminated_pairs


def spec(plan, mode="leaky", w=3, lag=1, order="sequential", seed=None):
    return SplitSpec(plan=plan, mode=mode, window=WindowConfig(w, lag), order=order, seed=seed)


class TestAudit:
    def test_hand_enumerated_two_way(self):
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        report = audit(res)
        assert report.overlap_count == 3
        assert set(report.overlap_sample) >= {5, 6, 7}
        assert report.is_contaminated
        assert report.train_footprint_size == 8   # {0..7}
        assert report.test_footprint_size == 5    # {5..9}
        assert report.contaminated_test_pairs == 2

    def test_clean_split_is_uncontaminated(self, climate):
        (res,) = split(climate, spec(SplitPlan.two_way(), mode="clean", w=10, lag=1))
        report = audit(res)
        assert report.overlap_count == 0
        assert not report.is_contaminated
        assert report.contaminated_test_pairs == 0

    def test_leaky_k_fold_matches_oracle(self):
        results = split(make_series(np.arange(50.0)), spec(SplitPlan.k_fold(10), w=5, lag=1))
        fold0 = results[0]
        report = audit(fold0)
        train, test, overlap, contaminated = naive_audit(fold0)
        assert report.overlap_count == len(overlap) >= 1
        assert report.train_footprint_size == len(train)
        assert report.test_footprint_size == len(test)
        assert report.contaminated_test_pairs == contaminated

    def test_overlap_bounded_by_footprints(self):
        results = split(make_series(np.arange(50.0)), spec(SplitPlan.k_fold(5), w=4, lag=2))
        for res in results:
            r = audit(res)
            assert r.overlap_count <= min(r.train_footprint_size, r.test_footprint_size)

    def test_three_way_includes_val_in_training_side(self):
        (res,) = split(make_series(np.arange(30.0)), spec(SplitPlan.three_way()))
        report = audit(res)
        train, test, overlap, _ = naive_audit(res)
        assert report.overlap_count == len(overlap)
        assert report.train_footprint_size == len(train)

    def test_report_dict_round_trip(self):
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        from leakbench.audit import AuditReport

        report = audit(res)
        assert AuditReport.from_dict(report.to_dict()) == report

    @pytest.mark.parametrize("w", range(2, 9))
    def test_sequential_leaky_two_way_always_contaminated(self, w):
        # Adjacent windows straddle the cut whenever W >= 2.
        (res,) = split(make_series(np.arange(40.0)), spec(SplitPlan.two_way(), w=w))
        assert audit(res).overlap_count >= 1


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=30, max_value=64),
    w=st.integers(min_value=1, max_value=12),
    lag=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["two_way", "three_way", "k_fold"]),
    mode=st.sampled_from(["leaky", "clean"]),
    order=st.sampled_from(["sequential", "random"]),
)
def test_audit_equals_naive_oracle_exhaustively(n, w, lag, kind, mode, order):
    if mode == "clean" and order == "random":
        return
    plan = {
        "two_way": SplitPlan.two_way(),
        "three_way": SplitPlan.three_way(),
        "k_fold": SplitPlan.k_fold(4),
    }[kind]
    rng = np.random.default_rng(n * 1000 + w * 10 + lag)
    series = make_series(rng.normal(size=n))
    try:
        results = split(series, spec(plan, mode=mode, w=w, lag=lag, order=order, seed=7))
    except Exception:
        return
    for res in results:
        report = audit(res)
        train, test, overlap, contaminated = naive_audit(res)
        assert report.overlap_count == len(overlap)
        assert report.train_footprint_size == len(train)
        assert report.test_footprint_size == len(test)
        assert report.contaminated_test_pairs == contaminated
        assert report.is_contaminated == bool(overlap)
        assert report.overlap_sample == tuple(sorted(overlap)[:20])
        if mode == "clean":
            assert report.overlap_count == 0


class TestApplyBuffer:
    def test_gap_zero_is_identity_below_any_overlap(self):
        # No train footprint lies entirely inside the test range here, so
        # gap=0 must hand back the same partitions.
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        buffered = apply_buffer(res, 0)
        assert buffered.train.starts.tolist() == res.train.starts.tolist()
        assert buffered.test is res.test

    def test_gap_zero_is_identity_on_clean(self, climate):
        (res,) = split(climate, spec(SplitPlan.two_way(), mode="clean", w=10, lag=1))
        buffered = apply_buffer(res, 0)
        assert buffered.train.starts.tolist() == res.train.starts.tolist()

    def test_gap_w_plus_l_clears_hand_example(self):
        # Enumerated: at gap 4 the widened range [1, 13] swallows train
        # pairs t=1..4, leaving t=0 with footprint {0..3}: overlap cleared.
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        buffered = apply_buffer(res, 4)  # W + L
        assert buffered.train.starts.tolist() == [0]
        assert not audit(buffered).is_contaminated

    def test_test_set_unchanged(self):
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        buffered = apply_buffer(res, 3)
        assert buffered.test is res.test

    def test_oversized_buffer_errors(self):
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        with pytest.raises(AuditError, match="empties the train set"):
            apply_buffer(res, 100)

    def test_negative_gap_rejected(self):
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        with pytest.raises(AuditError, match=">= 0"):
            apply_buffer(res, -1)

    def test_monotone_in_gap(self):
        res = split(make_series(np.arange(40.0)), spec(SplitPlan.k_fold(4), w=4, lag=2))[1]
        prev = None
        for gap in range(0, 6):
            count = audit(apply_buffer(res, gap)).overlap_count
            if prev is not None:
                assert count <= prev
            prev = count

    def test_buffer_filters_val_pairs_too(self):
        (res,) = split(make_series(np.arange(100.0)), spec(SplitPlan.three_way(), w=3, lag=1))
        buffered = apply_buffer(res, 3)
        assert len(buffered.val) < len(res.val)
        assert not audit(buffered).is_contaminated


class TestMinimalClearingGap:
    def test_clean_result_needs_no_gap(self, climate):
        (res,) = split(climate, spec(SplitPlan.two_way(), mode="clean", w=10, lag=1))
        assert minimal_clearing_gap(res) == 0

    def test_hand_example_scanned_value(self):
        # Brute-force scan oracle: smallest g with uncontaminated buffer.
        (res,) = split(make_series(np.arange(10.0)), spec(SplitPlan.two_way()))
        g = 0
        while audit(apply_buffer(res, g)).is_contaminated:
            g += 1
        assert minimal_clearing_gap(res) == g == 3

    @pytest.mark.parametrize("w", range(2, 13))
    def test_sequential_two_way_bounded_by_w_plus_l(self, w):
        series = make_series(np.arange(64.0))
        (res,) = split(series, spec(SplitPlan.two_way(), w=w, lag=1))
        assert minimal_clearing_gap(res) <= w + 1

    def test_exhaustion_raises(self):
        (res,) = split(make_series(np.arange(9.0)), spec(SplitPlan.two_way(), w=2, lag=1))
        # Shrink train to a single pair adjacent to the test range so every
        # clearing gap empties it first.
        tight = SplitResult(
            train=replace(res.train, starts=res.train.starts[-1:]),
            val=None,
            test=res.test,
            fold_index=0,
        )
        assert audit(tight).is_contaminated
        with pytest.raises(AuditError, match="no finite gap"):
            minimal_clearing_gap(tight)

    def test_exhaustion_error_names_the_gap_set_and_cause(self):
        (res,) = split(make_series(np.arange(9.0)), spec(SplitPlan.two_way(), w=2, lag=1))
        tight = SplitResult(
            train=replace(res.train, starts=res.train.starts[-1:]),
            val=None, test=res.test, fold_index=0,
        )
        with pytest.raises(AuditError) as info:
            minimal_clearing_gap(tight)
        assert str(info.value) == (
            "no finite gap clears contamination before partition exhaustion "
            "(failed at gap 1: buffer gap 1 empties the train set)"
        )
        assert type(info.value.__cause__) is AuditError
        assert str(info.value.__cause__) == "buffer gap 1 empties the train set"


def without_test_pairs(result: SplitResult) -> SplitResult:
    return replace(result, test=replace(result.test, starts=result.test.starts[:0]))


class TestEmptyTestSet:
    def test_apply_buffer_names_the_empty_test_set(self):
        (res,) = split(make_series(np.arange(20.0)), spec(SplitPlan.two_way()))
        with pytest.raises(AuditError, match="the test set is empty"):
            apply_buffer(without_test_pairs(res), 2)

    def test_minimal_clearing_gap_names_the_empty_test_set(self):
        (res,) = split(make_series(np.arange(20.0)), spec(SplitPlan.three_way()))
        with pytest.raises(AuditError, match="the test set is empty"):
            minimal_clearing_gap(without_test_pairs(res))


def scanned_clearing_gap(result: SplitResult) -> int:
    """Oracle: try gap 0, 1, 2, ... until the buffered result audits
    uncontaminated, wrapping the first buffer error."""
    gap = 0
    while True:
        try:
            buffered = apply_buffer(result, gap)
        except AuditError as exc:
            raise AuditError(
                f"no finite gap clears contamination before partition exhaustion "
                f"(failed at gap {gap}: {exc})"
            ) from exc
        if not audit(buffered).is_contaminated:
            return gap
        gap += 1


def capped(seqs: SequenceSet, first: int, last: int, cap: int, exact: bool) -> SequenceSet:
    """Keep the pairs that a buffer of `cap` drops, so the set empties at
    gap `cap` or below; with `exact`, add a pair that empties exactly
    there when the series holds one."""
    starts = seqs.starts
    drop = np.maximum(0, np.maximum(first - starts, starts - last))
    kept = starts[drop <= cap]
    if exact:
        bound = seqs.values.shape[0] - seqs.config.target_offset
        extra = [t for t in (first - cap, last + cap) if 0 <= t < bound][:1]
        kept = np.union1d(kept, np.asarray(extra, dtype=np.int64))
    return replace(seqs, starts=kept)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=400),
    w=st.integers(min_value=1, max_value=12),
    lag=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["two_way", "three_way", "k_fold"]),
    order=st.sampled_from(["sequential", "random"]),
    fold=st.integers(min_value=0, max_value=9),
    truncate=st.sampled_from(["none", "train", "val", "both", "tie"]),
    caps=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    seed=st.integers(0, 2**32 - 1),
)
def test_minimal_clearing_gap_equals_the_scan(n, w, lag, kind, order, fold, truncate, caps,
                                              seed):
    plan = {
        "two_way": SplitPlan.two_way(),
        "three_way": SplitPlan.three_way(),
        "k_fold": SplitPlan.k_fold(10),
    }[kind]
    try:
        results = split(make_series(np.zeros(n)), spec(plan, w=w, lag=lag, order=order, seed=seed))
    except SplitError:
        assume(False)
    res = results[fold % len(results)]
    first, last = int(res.test.starts[0]), int(res.test.starts[-1])
    train, val = res.train, res.val
    if truncate == "tie":
        caps = (caps[0], caps[0])
    if truncate in ("train", "both", "tie"):
        train = capped(train, first, last, caps[0], truncate == "tie")
    if val is not None and truncate in ("val", "both", "tie"):
        val = capped(val, first, last, caps[1], truncate == "tie")
    res = SplitResult(train=train, val=val, test=res.test, fold_index=res.fold_index)
    try:
        expected = scanned_clearing_gap(res)
    except AuditError as exc:
        with pytest.raises(AuditError) as info:
            minimal_clearing_gap(res)
        assert str(info.value) == str(exc)
        assert type(info.value.__cause__) is type(exc.__cause__)
        assert str(info.value.__cause__) == str(exc.__cause__)
    else:
        assert minimal_clearing_gap(res) == expected


def by_masks(fn, result: SplitResult):
    """`fn(result)` with the interval path off: every set goes through
    footprint masks, the representation the interval path must equal."""
    with mock.patch.object(audit_module, "_runs", return_value=None):
        return fn(result)


def assert_paths_agree(result: SplitResult) -> None:
    """The interval path and the mask path give the same report, with the
    same Python types, and the same gap or the same error and cause."""
    report = audit(result)
    assert repr(report) == repr(by_masks(audit, result))
    assert report == by_masks(audit, result)
    try:
        expected = by_masks(minimal_clearing_gap, result)
    except AuditError as exc:
        with pytest.raises(AuditError) as info:
            minimal_clearing_gap(result)
        assert str(info.value) == str(exc)
        assert type(info.value.__cause__) is type(exc.__cause__)
        assert str(info.value.__cause__) == str(exc.__cause__)
    else:
        assert minimal_clearing_gap(result) == expected


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=400),
    w=st.integers(min_value=1, max_value=12),
    lag=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["two_way", "three_way", "k_fold"]),
    mode_order=st.sampled_from([("leaky", "sequential"), ("leaky", "random"),
                                ("clean", "sequential")]),
    fold=st.integers(min_value=0, max_value=9),
    gap=st.one_of(st.none(), st.integers(0, 20)),
    seed=st.integers(0, 2**32 - 1),
)
def test_interval_path_equals_the_mask_path(n, w, lag, kind, mode_order, fold, gap, seed):
    mode, order = mode_order
    plan = {
        "two_way": SplitPlan.two_way(),
        "three_way": SplitPlan.three_way(),
        "k_fold": SplitPlan.k_fold(10),
    }[kind]
    try:
        results = split(make_series(np.zeros(n)),
                        spec(plan, mode=mode, w=w, lag=lag, order=order, seed=seed))
    except SplitError:
        assume(False)
    res = results[fold % len(results)]
    if gap is not None:
        try:
            res = apply_buffer(res, gap)
        except AuditError:
            assume(False)
    if order == "sequential":
        # every sequential partition, buffered or not, is one or two runs
        assert audit_module._runs(res) is not None
    assert_paths_agree(res)


def with_starts(result: SplitResult, **starts) -> SplitResult:
    """`result` with the named sets' starts replaced."""
    sets = {name: replace(getattr(result, name), starts=np.asarray(s, dtype=np.int64))
            for name, s in starts.items()}
    return replace(result, **sets)


class TestIntervalPath:
    @staticmethod
    def three_way(n=60, w=4, lag=2):
        (res,) = split(make_series(np.zeros(n)), spec(SplitPlan.three_way(), w=w, lag=lag))
        return res

    def test_run_limit_is_what_a_sequential_k_fold_train_set_needs(self):
        # the runs before and after the test block
        res = split(make_series(np.zeros(100)), spec(SplitPlan.k_fold(5)))[2]
        assert audit_module._runs(res)["train"] == [(0, 40), (59, 97)]
        assert RUN_LIMIT == 2

    @pytest.mark.parametrize("runs, interval_path", [
        (RUN_LIMIT, True), (RUN_LIMIT + 1, False)])
    def test_the_run_limit_chooses_the_path(self, runs, interval_path):
        res = self.three_way()
        # train runs of four starts, two apart, each ending before the val set
        train = [t for r in range(runs) for t in range(6 * r, 6 * r + 4)]
        res = with_starts(res, train=train)
        assert (audit_module._runs(res) is not None) is interval_path
        assert_paths_agree(res)
        train_fp, test_fp, overlap, contaminated = naive_audit(res)
        report = audit(res)
        assert report.train_footprint_size == len(train_fp)
        assert report.contaminated_test_pairs == contaminated

    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_a_repeated_start_goes_through_masks(self, name):
        res = self.three_way()
        starts = getattr(res, name).starts
        res = with_starts(res, **{name: np.insert(starts, 1, starts[1])})
        assert audit_module._runs(res) is None
        assert_paths_agree(res)
        # a repeated test start is a second pair: it counts twice
        assert audit(res).contaminated_test_pairs == naive_audit(res)[3]

    def test_an_empty_val_set(self):
        res = with_starts(self.three_way(), val=[])
        assert audit_module._runs(res)["val"] == []
        assert_paths_agree(res)
        with pytest.raises(AuditError, match="buffer gap 0 empties the val set"):
            minimal_clearing_gap(res)

    def test_an_empty_test_set(self):
        res = with_starts(self.three_way(), test=[])
        assert_paths_agree(res)
        assert audit(res).test_footprint_size == 0

    def test_a_long_overlap_keeps_the_first_twenty_indices(self):
        # W 12, L 4 on both sides of a middle test block: 30 shared indices
        res = split(make_series(np.zeros(200)), spec(SplitPlan.k_fold(5), w=12, lag=4))[2]
        report = audit(res)
        assert report.overlap_count == len(naive_audit(res)[2]) > 20
        assert report.overlap_sample == tuple(sorted(naive_audit(res)[2])[:20])
        assert_paths_agree(res)

    def test_touching_intervals_join(self):
        assert audit_module._merge([(5, 8), (0, 3), (3, 5), (9, 10), (9, 12)]) == [
            (0, 8), (9, 12)]

    @pytest.mark.parametrize("order, masks", [("sequential", 0), ("random", 2)])
    def test_sequential_splits_take_intervals_and_shuffled_ones_masks(self, order, masks):
        res = split(make_series(np.zeros(400)),
                    spec(SplitPlan.k_fold(10), w=10, order=order, seed=3))[1]
        with mock.patch.object(audit_module, "footprint_mask",
                               wraps=audit_module.footprint_mask) as footprint_mask:
            audit(res)
        assert footprint_mask.call_count == masks
