"""Ground-truth contamination oracle over raw-index footprints.

The footprint of the pair whose window starts at raw index t is
[t, t+W) plus {t+W+L-1}: its window indices and its target index.
Contamination is defined on raw indices including the target index: a test
observation appearing inside any training-side window (or vice versa) is
exactly the mechanism that inflates leaky evaluations. The buffer
mitigation removes training-side pairs near the test range, as the buffer
zone of hv-block cross-validation (Racine 2000) and the purge of purged
k-fold (Lopez de Prado 2018) do.

A footprint union has two representations, chosen by the sets' shape.
Where every set of a split is at most RUN_LIMIT runs of consecutive starts
(a sequential partition is one or two: a block, or the runs before and
after a test block), the union is a few half-open intervals: a run of
starts [a, b] covers [a, b+W) and its targets [a+W+L-1, b+W+L], and the
audit and the clearing gap are interval arithmetic on Python ints, with no
array over the series (at 30k points, W = 10: about 0.05 ms an audit
against 0.50 ms with masks). Any other set (a shuffled partition is
hundreds of runs, and a set may repeat a start) keeps boolean masks over
raw indices, array arithmetic on the window starts, for which Python
intervals ran 4-44x slower. Both give the same results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .errors import AuditError
from .records import Record
from .splitting import SplitResult
from .windowing import SequenceSet


@dataclass(frozen=True)
class AuditReport(Record):
    """Raw-index overlap between the training side (train + val) and test."""

    train_footprint_size: int
    test_footprint_size: int
    overlap_count: int
    overlap_sample: tuple[int, ...]
    is_contaminated: bool
    contaminated_test_pairs: int


def footprint_mask(seqs: SequenceSet, size: int) -> np.ndarray:
    """Boolean mask over raw indices [0, size) of the union of the pairs'
    footprints: window coverage from a difference array, then the targets.
    `audit` and `minimal_clearing_gap` use it for sets of more than
    RUN_LIMIT runs, such as shuffled partitions.

    The buffers are int32 and bool, and `a[k:][starts]` (which is
    a[starts + k]) stands in for a shifted copy of `starts`: at 30k points
    an int64 temporary passes malloc's mmap threshold, and a fresh mapping
    page-faults on every page it touches. Repeated starts add their window
    once, which leaves the union as it is."""
    config = seqs.config
    edges = np.zeros(size + 1, dtype=np.int32)
    edges[seqs.starts] += 1
    edges[config.window_size:][seqs.starts] -= 1
    mask = np.cumsum(edges[:size], out=edges[:size]) > 0
    mask[config.target_offset:][seqs.starts] = True
    return mask


def _prefix_counts(mask: np.ndarray) -> np.ndarray:
    """int32 counts of `mask`'s set indices below each raw index 0..size."""
    seen = np.zeros(mask.shape[0] + 1, dtype=np.int32)
    np.cumsum(mask, dtype=np.int32, out=seen[1:])
    return seen


def _reaching(seqs: SequenceSet, mask: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Per pair of `seqs`, whether its window holds an index of `mask` (the
    prefix counts `seen` tell) or its target is one."""
    starts, config = seqs.starts, seqs.config
    window_hits = seen[config.window_size:][starts] - seen[starts]
    return (window_hits > 0) | mask[config.target_offset:][starts]


RUN_LIMIT = 2
"""Most runs of consecutive starts a set may have for the interval path."""

Intervals = list[tuple[int, int]]


def _runs(result: SplitResult) -> dict[str, Intervals] | None:
    """Each set's maximal runs of consecutive starts as half-open intervals,
    by name, or None when a set repeats a start or has more than RUN_LIMIT
    runs. The test set, the smallest, is checked first, so a shuffled split
    pays one difference pass over it before falling back to masks."""
    runs = {}
    for name in ("test", "train", "val"):
        seqs = getattr(result, name)
        if seqs is None:
            continue
        starts = seqs.starts
        steps = starts[1:] - starts[:-1]
        cuts = np.flatnonzero(steps != 1)
        if len(cuts) >= RUN_LIMIT or 0 in steps[cuts]:
            return None
        edges = [0, *(cuts + 1).tolist(), len(starts)] if len(starts) else []
        runs[name] = [(int(starts[i]), int(starts[j - 1]) + 1) for i, j in zip(edges, edges[1:])]
    return runs


def _merge(intervals: Intervals) -> Intervals:
    """The union of half-open intervals as sorted maximal ones: overlapping
    and touching intervals join."""
    merged: Intervals = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _intersect(xs: Intervals, ys: Intervals) -> Intervals:
    """The common part of two sorted lists of disjoint intervals, sorted."""
    return [(max(a, c), min(b, d)) for a, b in xs for c, d in ys if max(a, c) < min(b, d)]


def _size(intervals: Intervals) -> int:
    return sum(b - a for a, b in intervals)


def _cover(runs: Intervals, seqs: SequenceSet) -> Intervals:
    """The footprints of the pairs of `seqs` that start in `runs`, unmerged:
    a run's window cover and its targets."""
    w, offset = seqs.config.window_size, seqs.config.target_offset
    return [iv for a, b in runs for iv in ((a, b + w - 1), (a + offset, b + offset))]


def _reach(footprint: Intervals, seqs: SequenceSet) -> Intervals:
    """The starts t at which a pair of `seqs`'s window size and lag step
    has its window or its target on an index of `footprint`."""
    w, offset = seqs.config.window_size, seqs.config.target_offset
    return _merge([iv for c, d in footprint for iv in ((c - w + 1, d), (c - offset, d - offset))])


def audit(result: SplitResult) -> AuditReport:
    """Intersect the training-side (train + val) and test raw footprints:
    as intervals when every set is at most RUN_LIMIT runs, else as masks."""
    runs = _runs(result)
    if runs is None:
        size = len(result.test.values)
        train_fp = footprint_mask(result.train, size)
        if result.val is not None:
            train_fp |= footprint_mask(result.val, size)
        test_fp = footprint_mask(result.test, size)
        overlap = np.flatnonzero(train_fp & test_fp)
        contaminated = _reaching(result.test, train_fp, _prefix_counts(train_fp))
        train_size, test_size = int(train_fp.sum()), int(test_fp.sum())
        overlap_count = len(overlap)
        sample = tuple(int(i) for i in overlap[:20])
        contaminated_pairs = int(contaminated.sum())
    else:
        train_fp = _merge([iv for name in ("train", "val") if name in runs
                           for iv in _cover(runs[name], getattr(result, name))])
        test_fp = _merge(_cover(runs["test"], result.test))
        overlap = _intersect(train_fp, test_fp)
        train_size, test_size, overlap_count = _size(train_fp), _size(test_fp), _size(overlap)
        sample = tuple(islice(chain.from_iterable(range(a, b) for a, b in overlap), 20))
        contaminated_pairs = _size(_intersect(runs["test"], _reach(train_fp, result.test)))
    return AuditReport(
        train_footprint_size=train_size,
        test_footprint_size=test_size,
        overlap_count=overlap_count,
        overlap_sample=sample,
        is_contaminated=bool(overlap_count),
        contaminated_test_pairs=contaminated_pairs,
    )


def apply_buffer(result: SplitResult, gap: int) -> SplitResult:
    """Drop training-side pairs whose footprints lie within `gap` raw
    indices of the test range.

    The test range is [min, max] of the test footprint union. A pair is
    dropped when every index of its footprint sits within distance `gap`
    of that range, i.e. the footprint is contained in the range widened by
    `gap` on both sides. At gap=0 only pairs falling entirely inside the
    test range are dropped, so a result whose training side merely touches
    the range is returned unchanged. Val pairs count as training side and
    are filtered the same way; the test set is never touched. An empty
    test set has no range and raises AuditError.
    """
    if gap < 0:
        raise AuditError(f"gap must be >= 0, got {gap}")
    _require_test_pairs(result)
    offset = result.test.config.target_offset
    lo = int(result.test.starts.min()) - gap
    hi = int(result.test.starts.max()) + offset + gap

    def keep(seqs: SequenceSet, name: str) -> SequenceSet:
        # a footprint spans [t, t+W+L-1], so containment in the widened
        # range reduces to its two extremes
        kept = (seqs.starts < lo) | (seqs.starts > hi - offset)
        if not kept.any():
            raise AuditError(f"buffer gap {gap} empties the {name} set")
        return replace(seqs, starts=seqs.starts[kept])

    return SplitResult(
        train=keep(result.train, "train"),
        val=None if result.val is None else keep(result.val, "val"),
        test=result.test,
        fold_index=result.fold_index,
    )


def _require_test_pairs(result: SplitResult) -> None:
    if not len(result.test):
        raise AuditError("the test set is empty: there is no test range to buffer")


def minimal_clearing_gap(result: SplitResult) -> int:
    """Smallest gap whose buffered result audits uncontaminated.

    Closed form of the scan that tries gap 0, 1, 2, ... with `apply_buffer`
    and `audit`, and equal to it, errors included. With first and last the
    test set's first and last start, `apply_buffer` drops the training-side
    pair t from gap d(t) = max(0, first - t, t - last) on. A buffered result
    is contaminated while it keeps a pair that reaches the test footprint
    (its window or its target holds a test index), so the answer is the
    largest d(t) over the reaching pairs, 0 if none reaches. A set empties
    at the largest d(t) over its pairs. Over ascending starts both maxima
    are read off the first and last start; the reaching pairs come from
    the test footprint's intervals or mask, as in `audit`. When a set
    empties at a gap at or below the answer, the scan fails there first, so
    this raises what it raised: `apply_buffer`'s AuditError for that gap
    and set (train before val on a tie), wrapped. An empty test set raises
    AuditError.
    """
    _require_test_pairs(result)
    first, last = int(result.test.starts[0]), int(result.test.starts[-1])

    def widest(starts) -> int:
        """The largest d(t) over ascending `starts`, 0 for none."""
        return max(0, first - int(starts[0]), int(starts[-1]) - last) if len(starts) else 0

    runs = _runs(result)
    if runs is None:
        test_fp = footprint_mask(result.test, len(result.test.values))
        seen = _prefix_counts(test_fp)
    else:
        test_fp = _merge(_cover(runs["test"], result.test))
    sides = [("train", result.train)]
    if result.val is not None:
        sides.append(("val", result.val))
    gap, empties = 0, []
    for name, seqs in sides:
        empties.append((widest(seqs.starts), name))
        if runs is None:
            reaching = seqs.starts[_reaching(seqs, test_fp, seen)]
        else:
            spans = _intersect(runs[name], _reach(test_fp, seqs))
            reaching = (spans[0][0], spans[-1][1] - 1) if spans else ()
        gap = max(gap, widest(reaching))
    exhausted, name = min(empties, key=lambda e: e[0])
    if exhausted <= gap:
        exc = AuditError(f"buffer gap {exhausted} empties the {name} set")
        raise AuditError(
            f"no finite gap clears contamination before partition exhaustion "
            f"(failed at gap {exhausted}: {exc})"
        ) from exc
    return gap
