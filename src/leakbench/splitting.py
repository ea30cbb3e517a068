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
from .rng import default_rng
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
        if not all(math.isfinite(f) and f > 0 for f in fractions):
            raise SplitError(f"fractions must be finite and positive, got {fractions}")
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

    @property
    def seed_read(self) -> int | None:
        """The seed `split` reads: the pair permutation's under random
        order, none under sequential order. Specs that differ only in an
        unread seed give the same split."""
        return self.seed if self.order == ORDER_RANDOM else None


@dataclass(frozen=True, eq=False)
class SplitResult:
    """Concrete train/val/test sequence sets for one fold (fold_index 0
    for holdout plans)."""

    train: SequenceSet
    val: Optional[SequenceSet]
    test: SequenceSet
    fold_index: int = 0


def _partitions(plan: SplitPlan, n: int) -> list[dict[str, list[tuple[int, int]]]]:
    """For each fold, the half-open ranges of every partition on an axis of
    n positions, in the order their emptiness is checked. Every partition
    has at least one range; one with no positions is one empty range.

    Holdout plans floor every count except the last, which takes the
    remainder. k_fold cuts k near-equal blocks, the first n % k one longer;
    fold i tests on block i and trains on the runs before and after it.
    """
    if plan.kind == K_FOLD:
        base, extra = divmod(n, plan.k)
        folds = []
        for i in range(plan.k):
            lo = i * base + min(i, extra)
            hi = lo + base + (i < extra)
            runs = [(0, lo), (hi, n)]
            train = [(a, b) for a, b in runs if a < b] or runs[:1]
            folds.append({"test": [(lo, hi)], "train": train})
        return folds
    names = ("train", "test") if plan.kind == TWO_WAY else ("train", "val", "test")
    cuts = [0]
    for f in plan.fractions[:-1]:
        cuts.append(cuts[-1] + math.floor(f * n))
    cuts.append(n)
    return [{name: [(a, b)] for name, a, b in zip(names, cuts, cuts[1:])}]


def _leaky_starts(axis: np.ndarray, ranges: list[tuple[int, int]], order: str) -> np.ndarray:
    """A leaky partition's starts, cut from the (permuted) start axis in at
    most one allocation: under sequential order one range is a slice of the
    axis and several are one concatenation; under random order the cut is
    sorted, in place where it already is a copy."""
    if len(ranges) == 1:
        (a, b), = ranges
        return axis[a:b] if order == ORDER_SEQUENTIAL else np.sort(axis[a:b])
    starts = np.concatenate([axis[a:b] for a, b in ranges])
    if order == ORDER_RANDOM:
        starts.sort()
    return starts


def _clean_starts(ranges: list[tuple[int, int]], offset: int) -> np.ndarray:
    """A clean partition's starts, each range's [a, b - offset) in turn, as
    one `arange` whose later ranges are shifted in place."""
    counts = [max(0, b - offset - a) for a, b in ranges]
    starts = np.arange(sum(counts), dtype=np.int64)
    at = 0
    for (a, _), count in zip(ranges, counts):
        if a != at:
            starts[at:at + count] += a - at
        at += count
    return starts


def split(series: TimeSeries, spec: SplitSpec) -> list[SplitResult]:
    """Materialize every SplitResult a spec describes.

    Both modes cut an axis by the same `_partitions` rule and differ only in
    the axis. Leaky mode cuts the window starts of one sequence set over the
    whole series, permuted first (seeded) under random order; partition
    membership is what the ordering decides, and each partition's starts are
    stored sorted (under sequential order the axis is `arange` and the
    ranges ascend, so they already are). Clean mode cuts the raw indices
    0..n, so segments stay chronological (train earliest, then val, then
    test), and windows each range of a partition independently: a clean
    k_fold train set holds the sequences of the raw runs before and after
    the test block, as one set.

    Raises SplitError when any resulting partition has no pairs.
    """
    n = len(series)
    plan, window = spec.plan, spec.window
    geometry = f"W={window.window_size}, L={window.lag_step}"
    leaky = spec.mode == MODE_LEAKY
    if leaky:
        full = make_sequences(series.values, window)
        axis = full.starts
        if not len(axis):
            raise SplitError(f"series of length {n} yields no pairs for {geometry}")
        if spec.order == ORDER_RANDOM:
            axis = axis[default_rng(spec.seed).permutation(len(axis))]

    results = []
    for fold, parts in enumerate(_partitions(plan, len(axis) if leaky else n)):
        sets = {}
        for name, ranges in parts.items():
            if leaky:
                part = replace(full, starts=_leaky_starts(axis, ranges, spec.order))
            else:
                part = SequenceSet(series.values, _clean_starts(ranges, window.target_offset),
                                   tuple(ranges), window)
            if not len(part):
                where = f" (fold {fold})" if plan.kind == K_FOLD else ""
                if leaky:
                    detail = (
                        f"{len(axis)} total pairs (raw length {n}) leave none "
                        f"for it under plan {plan.label}"
                    )
                else:
                    raw = " + ".join(str(b - a) for a, b in ranges)
                    detail = f"raw length {raw} yields no pairs for {geometry}"
                raise SplitError(f"empty {name} partition{where}: {detail}")
            sets[name] = part
        results.append(SplitResult(
            train=sets["train"], val=sets.get("val"), test=sets["test"], fold_index=fold
        ))
    return results
