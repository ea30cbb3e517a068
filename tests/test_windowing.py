from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbench.audit import footprint_mask
from leakbench.errors import WindowError
from leakbench.splitting import SplitPlan, SplitSpec, split
from leakbench.windowing import SequenceSet, WindowConfig, make_sequences

from conftest import make_series


def brute_force_windows(values, w, lag):
    """Independent oracle: slide index-by-index with explicit bounds checks."""
    out = []
    n = len(values)
    t = 0
    while True:
        last_input = t + w - 1
        target = t + w + lag - 1
        if target > n - 1:
            break
        out.append((list(values[t : t + w]), values[target], t, target))
        t += 1
    return out


class TestWindowConfig:
    @pytest.mark.parametrize("w,lag", [(0, 1), (1, 0), (-3, 2)])
    def test_rejects_non_positive(self, w, lag):
        with pytest.raises(WindowError):
            WindowConfig(w, lag)

    def test_dict_round_trip(self):
        cfg = WindowConfig(7, 2)
        assert WindowConfig.from_dict(cfg.to_dict()) == cfg


class TestMakeSequences:
    def test_reference_length_count(self):
        seqs = make_sequences(np.zeros(1462), WindowConfig(10, 1))
        assert len(seqs) == 1452

    def test_hand_enumerated_pair(self):
        seqs = make_sequences([1.0, 2.0, 3.0, 4.0, 5.0], WindowConfig(3, 2))
        assert len(seqs) == 1
        assert list(seqs.inputs()[0]) == [1.0, 2.0, 3.0]
        assert seqs.targets()[0] == 5.0
        assert seqs.starts[0] == 0
        assert seqs.target_indices()[0] == 4

    def test_insufficient_length_yields_empty(self):
        seqs = make_sequences([1.0, 2.0, 3.0], WindowConfig(3, 1))
        assert len(seqs) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=64),
        w=st.integers(min_value=1, max_value=12),
        lag=st.integers(min_value=1, max_value=3),
    )
    def test_count_matches_brute_force(self, n, w, lag):
        values = np.arange(float(n))
        seqs = make_sequences(values, WindowConfig(w, lag))
        oracle = brute_force_windows(values, w, lag)
        assert len(seqs) == len(oracle) == max(0, n - w - lag + 1)
        inputs, targets = seqs.inputs(), seqs.targets()
        for k, (inp, target, t, target_idx) in enumerate(oracle):
            assert list(inputs[k]) == inp
            assert targets[k] == target
            assert seqs.starts[k] == t
            assert seqs.target_indices()[k] == target_idx

    def test_reconstruction_of_segment_prefix(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        seqs = make_sequences(values, WindowConfig(3, 1))
        firsts = seqs.inputs()[:, 0]
        np.testing.assert_array_equal(firsts, values[: len(seqs)])
        np.testing.assert_array_equal(seqs.inputs()[-1], values[len(seqs) - 1 : len(seqs) + 2])

    def test_causality(self):
        seqs = make_sequences(np.arange(30.0), WindowConfig(4, 3))
        assert np.all(seqs.target_indices() >= seqs.starts + 4)


class TestFootprint:
    """A pair's footprint is the mask of its window indices plus its target."""

    @staticmethod
    def footprint_of(seqs, t):
        (k,) = np.flatnonzero(seqs.starts == t)
        single = replace(seqs, starts=seqs.starts[k : k + 1])
        return frozenset(int(i) for i in np.flatnonzero(footprint_mask(single, len(seqs.values))))

    def test_w3_l1(self):
        seqs = make_sequences(np.arange(10.0), WindowConfig(3, 1))
        assert self.footprint_of(seqs, 0) == frozenset({0, 1, 2, 3})

    def test_w3_l3_gap(self):
        seqs = make_sequences(np.arange(20.0), WindowConfig(3, 3))
        assert self.footprint_of(seqs, 5) == frozenset({5, 6, 7, 10})

    def test_minimal_config(self):
        seqs = make_sequences(np.arange(5.0), WindowConfig(1, 1))
        assert self.footprint_of(seqs, 0) == frozenset({0, 1})

    @settings(max_examples=50, deadline=None)
    @given(
        w=st.integers(min_value=1, max_value=12),
        lag=st.integers(min_value=1, max_value=5),
    )
    def test_cardinality_is_w_plus_one(self, w, lag):
        seqs = make_sequences(np.arange(float(w + lag)), WindowConfig(w, lag))
        assert len(self.footprint_of(seqs, 0)) == w + 1


class TestSequenceSet:
    def test_rejects_unordered_pairs(self):
        seqs = make_sequences(np.arange(8.0), WindowConfig(2, 1))
        with pytest.raises(WindowError, match="ordered"):
            replace(seqs, starts=seqs.starts[::-1])

    def test_rejects_out_of_range_pair(self):
        seqs = make_sequences(np.arange(8.0), WindowConfig(2, 1))
        with pytest.raises(WindowError, match="outside source range"):
            replace(seqs, source_range=((0, 3),))

    @pytest.mark.parametrize("starts, ranges", [
        ([-2], ((-3, 4),)),  # numpy would wrap the negative start around
        ([], ((0, 9),)),
        ([4], ((4, 12),)),
    ])
    def test_rejects_source_range_outside_the_buffer(self, starts, ranges):
        with pytest.raises(WindowError, match=r"lies outside the buffer \[0, 8\]"):
            SequenceSet(np.arange(8.0), np.array(starts, dtype=np.int64), ranges,
                        WindowConfig(2, 1))

    def test_starts_and_values_are_read_only(self):
        seqs = make_sequences(np.arange(9.0), WindowConfig(2, 1))
        with pytest.raises(ValueError):
            seqs.starts[0] = 5
        with pytest.raises(ValueError):
            seqs.values[0] = 5.0

    def test_inputs_targets_shapes(self):
        seqs = make_sequences(np.arange(9.0), WindowConfig(3, 1))
        assert seqs.inputs().shape == (6, 3)
        assert seqs.targets().shape == (6,)
        empty = make_sequences(np.arange(2.0), WindowConfig(3, 1))
        assert empty.inputs().shape == (0, 3)


def naive_pairs(values, starts, w, lag):
    """Independent oracle: one window copy and one target per start."""
    inputs = [[values[t + j] for j in range(w)] for t in starts]
    targets = [values[t + w + lag - 1] for t in starts]
    return inputs, targets


class TestGather:
    """inputs()/targets() equal a per-window loop over the starts."""

    @pytest.mark.parametrize("plan", [SplitPlan.two_way(), SplitPlan.three_way(), SplitPlan.k_fold(4)])
    def test_random_order_leaky_partitions(self, plan):
        values = np.random.default_rng(3).normal(size=60)
        series = make_series(values)
        spec = SplitSpec(plan=plan, mode="leaky", window=WindowConfig(4, 2), order="random", seed=11)
        for res in split(series, spec):
            for seqs in (res.train, res.val, res.test):
                if seqs is None:
                    continue
                inputs, targets = naive_pairs(values, seqs.starts, 4, 2)
                assert seqs.inputs().tolist() == inputs
                assert seqs.targets().tolist() == targets

    def test_clean_k_fold_train_spans_two_runs(self):
        values = np.random.default_rng(4).normal(size=60)
        series = make_series(values)
        spec = SplitSpec(plan=SplitPlan.k_fold(5), mode="clean", window=WindowConfig(3, 1))
        for res in split(series, spec):
            for seqs in (res.train, res.test):
                inputs, targets = naive_pairs(values, seqs.starts, 3, 1)
                assert seqs.inputs().tolist() == inputs
                assert seqs.targets().tolist() == targets

    @pytest.mark.parametrize("plan", [SplitPlan.two_way(), SplitPlan.three_way()])
    @pytest.mark.parametrize("lag", [1, 3])
    def test_clean_holdout_partitions(self, plan, lag):
        values = np.random.default_rng(5).normal(size=91)
        series = make_series(values)
        spec = SplitSpec(plan=plan, mode="clean", window=WindowConfig(4, lag))
        (res,) = split(series, spec)
        for seqs in (res.train, res.val, res.test):
            if seqs is None:
                continue
            inputs, targets = naive_pairs(values, seqs.starts, 4, lag)
            assert seqs.inputs().tolist() == inputs
            assert seqs.targets().tolist() == targets
