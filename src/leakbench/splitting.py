"""Train/validation/test materialization for each validation technique.

Two timing modes exist for every plan:

* leaky  — windows are generated over the whole series first, then the
  resulting *window starts* are partitioned. Pairs near partition
  boundaries share raw observations across partitions.
* clean  — the *raw series* is partitioned first into contiguous
  chronological segments and windows are generated independently inside
  each segment, so raw footprints of train/val and test are disjoint.

Every partition is a SequenceSet over the series' own values buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import SplitError
from .records import Record
from .series import TimeSeries
from .windowing import SequenceSet, WindowConfig, make_sequences

TWO_WAY = "two_way"
THREE_WAY = "three_way"
K_FOLD = "k_fold"

MODE_LEAKY = "leaky"
MODE_CLEAN = "clean"

ORDER_SEQUENTIAL = "sequential"
ORDER_RANDOM = "random"


@dataclass(frozen=True)
class SplitPlan(Record):
    """A validation technique: holdout fractions or a fold count.

    fractions: (train, test) for two_way, (train, val, test) for three_way,
    unused for k_fold. Defaults follow the 80/20 and 70/10/20 sequential
    conventions; k defaults to 10.
    """

    kind: str
    fractions: tuple[float, ...] = ()
    k: int = 10

    def __post_init__(self) -> None:
        if self.kind not in (TWO_WAY, THREE_WAY, K_FOLD):
            raise SplitError(f"unknown plan kind {self.kind!r}")
        defaults = {TWO_WAY: (0.8, 0.2), THREE_WAY: (0.7, 0.1, 0.2), K_FOLD: ()}
        fractions = tuple(self.fractions) or defaults[self.kind]
        object.__setattr__(self, "fractions", fractions)
        if self.kind == K_FOLD:
            if self.k < 2:
                raise SplitError(f"k must be >= 2, got {self.k}")
            return
        expected = 2 if self.kind == TWO_WAY else 3
        if len(fractions) != expected:
            raise SplitError(
                f"{self.kind} needs {expected} fractions, got {len(fractions)}"
            )
        if any(f <= 0 for f in fractions):
            raise SplitError(f"fractions must be positive, got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise SplitError(f"fractions must sum to 1, got {fractions}")

    @property
    def label(self) -> str:
        if self.kind == TWO_WAY:
            return "2-way"
        if self.kind == THREE_WAY:
            return "3-way"
        return f"{self.k}-fold"

    @classmethod
    def two_way(cls, train: float | None = None) -> "SplitPlan":
        if train is None:
            return cls(kind=TWO_WAY)
        return cls(kind=TWO_WAY, fractions=(train, 1.0 - train))

    @classmethod
    def three_way(
        cls, train: float | None = None, val: float | None = None
    ) -> "SplitPlan":
        if train is None and val is None:
            return cls(kind=THREE_WAY)
        train = 0.7 if train is None else train
        val = 0.1 if val is None else val
        return cls(kind=THREE_WAY, fractions=(train, val, 1.0 - train - val))

    @classmethod
    def k_fold(cls, k: int = 10) -> "SplitPlan":
        return cls(kind=K_FOLD, k=k)


@dataclass(frozen=True)
class SplitSpec(Record):
    """Plan + timing mode + pair ordering + window geometry + seed."""

    plan: SplitPlan
    mode: str
    window: WindowConfig
    order: str = ORDER_SEQUENTIAL
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in (MODE_LEAKY, MODE_CLEAN):
            raise SplitError(f"unknown mode {self.mode!r}")
        if self.order not in (ORDER_SEQUENTIAL, ORDER_RANDOM):
            raise SplitError(f"unknown order {self.order!r}")
        if self.mode == MODE_CLEAN and self.order == ORDER_RANDOM:
            raise SplitError(
                "clean mode requires sequential order: shuffling raw points "
                "destroys the contiguity that post-split windowing needs"
            )


@dataclass(frozen=True, eq=False)
class SplitResult:
    """Concrete train/val/test sequence sets for one fold (fold_index 0
    for holdout plans)."""

    train: SequenceSet
    val: Optional[SequenceSet]
    test: SequenceSet
    fold_index: int = 0


def _holdout_counts(n: int, fractions: tuple[float, ...]) -> tuple[int, ...]:
    """Floor every partition except the last; the remainder goes to test."""
    counts = [math.floor(f * n) for f in fractions[:-1]]
    counts.append(n - sum(counts))
    return tuple(counts)


def _fold_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """k near-equal contiguous blocks; the first n % k blocks get one extra."""
    base, extra = divmod(n, k)
    bounds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _require_pairs(s: SequenceSet, partition: str, raw_len: int, fold: int | None = None):
    if len(s) == 0:
        where = f" (fold {fold})" if fold is not None else ""
        raise SplitError(
            f"empty {partition} partition{where}: raw length {raw_len} yields no "
            f"pairs for W={s.config.window_size}, L={s.config.lag_step}"
        )


def split(series: TimeSeries, spec: SplitSpec) -> list[SplitResult]:
    """Materialize every SplitResult a spec describes.

    Leaky mode builds one sequence set over the whole series and partitions
    its window starts: sequential takes contiguous prefix/middle/suffix with
    the train (and val) counts floored and the remainder assigned to test;
    random permutes the starts first (seeded); k_fold cuts the (possibly
    permuted) starts into k contiguous blocks and uses block i as the test
    set of fold i. Partition membership is what the ordering decides; each
    partition's starts are stored sorted.

    Clean mode applies the same flooring rules to the raw series, keeps the
    segments chronological (train earliest, then val, then test), and
    windows each segment independently. Clean k_fold cuts the raw series
    into k contiguous blocks; fold i tests on sequences inside block i and
    trains on sequences generated within each maximal contiguous run of the
    remaining blocks (before/after the test block), as one set.

    Raises SplitError when any resulting partition has no pairs.
    """
    n = len(series)
    if spec.mode == MODE_LEAKY:
        return _split_leaky(series, spec, n)
    return _split_clean(series, spec, n)


def _split_leaky(series: TimeSeries, spec: SplitSpec, n: int) -> list[SplitResult]:
    full = make_sequences(series.values, spec.window, offset=0)
    total = len(full)
    if not total:
        raise SplitError(
            f"series of length {n} yields no pairs for "
            f"W={spec.window.window_size}, L={spec.window.lag_step}"
        )
    starts = full.starts
    if spec.order == ORDER_RANDOM:
        starts = starts[np.random.default_rng(spec.seed).permutation(total)]

    def part(selection: np.ndarray, name: str) -> SequenceSet:
        if not len(selection):
            raise SplitError(
                f"empty {name} partition: {total} total pairs (raw length {n}) "
                f"leave none for it under plan {spec.plan.label}"
            )
        return replace(full, starts=np.sort(selection))

    plan = spec.plan
    if plan.kind == TWO_WAY:
        a, _ = _holdout_counts(total, plan.fractions)
        return [
            SplitResult(
                train=part(starts[:a], "train"),
                val=None,
                test=part(starts[a:], "test"),
            )
        ]
    if plan.kind == THREE_WAY:
        a, b, _ = _holdout_counts(total, plan.fractions)
        return [
            SplitResult(
                train=part(starts[:a], "train"),
                val=part(starts[a : a + b], "val"),
                test=part(starts[a + b :], "test"),
            )
        ]
    results = []
    for i, (lo, hi) in enumerate(_fold_bounds(total, plan.k)):
        results.append(
            SplitResult(
                train=part(np.concatenate([starts[:lo], starts[hi:]]), "train"),
                val=None,
                test=part(starts[lo:hi], "test"),
                fold_index=i,
            )
        )
    return results


def _segment_set(
    series: TimeSeries, lo: int, hi: int, window: WindowConfig
) -> SequenceSet:
    return make_sequences(series.values[lo:hi], window, offset=lo)


def _split_clean(series: TimeSeries, spec: SplitSpec, n: int) -> list[SplitResult]:
    plan = spec.plan
    window = spec.window
    if plan.kind in (TWO_WAY, THREE_WAY):
        counts = _holdout_counts(n, plan.fractions)
        names = ("train", "test") if plan.kind == TWO_WAY else ("train", "val", "test")
        segments = {}
        start = 0
        for name, size in zip(names, counts):
            seg = _segment_set(series, start, start + size, window)
            _require_pairs(seg, name, size)
            segments[name] = seg
            start += size
        return [
            SplitResult(
                train=segments["train"],
                val=segments.get("val"),
                test=segments["test"],
            )
        ]

    bounds = _fold_bounds(n, plan.k)
    results = []
    for i, (lo, hi) in enumerate(bounds):
        test = _segment_set(series, lo, hi, window)
        _require_pairs(test, "test", hi - lo, fold=i)
        runs = [(a, b) for a, b in ((0, lo), (hi, n)) if a < b]
        train = SequenceSet(
            values=series.values[runs[0][0] :],
            starts=np.concatenate(
                [_segment_set(series, a, b, window).starts for a, b in runs]
            ),
            source_range=tuple(runs),
            config=window,
        )
        if len(train) == 0:
            raise SplitError(
                f"empty train partition (fold {i}): remaining raw runs of "
                f"lengths {[b - a for a, b in runs]} yield no pairs"
            )
        results.append(SplitResult(train=train, val=None, test=test, fold_index=i))
    return results
