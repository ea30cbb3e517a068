"""Ground-truth contamination oracle over raw-index footprints.

The footprint of the pair whose window starts at raw index t is
[t, t+W) plus {t+W+L-1}: its window indices and its target index.
Contamination is defined on raw indices including the target index: a test
observation appearing inside any training-side window (or vice versa) is
exactly the mechanism that inflates leaky evaluations. Footprint unions are
boolean masks over raw indices, so the audit is array arithmetic on the
window starts. The buffer mitigation removes training-side pairs near the
test range, as the buffer zone of hv-block cross-validation (Racine 2000)
and the purge of purged k-fold (Lopez de Prado 2018) do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def audit(result: SplitResult) -> AuditReport:
    """Intersect the training-side (train + val) and test raw footprints."""
    size = len(result.test.values)
    train_fp = footprint_mask(result.train, size)
    if result.val is not None:
        train_fp |= footprint_mask(result.val, size)
    test_fp = footprint_mask(result.test, size)
    overlap = np.flatnonzero(train_fp & test_fp)
    # a test pair is contaminated when its window holds a training-side index
    # (prefix sums count them) or its target is one
    seen = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(train_fp, dtype=np.int32, out=seen[1:])
    starts, config = result.test.starts, result.test.config
    window_hits = seen[config.window_size:][starts] - seen[starts]
    contaminated = (window_hits > 0) | train_fp[config.target_offset:][starts]
    return AuditReport(
        train_footprint_size=int(train_fp.sum()),
        test_footprint_size=int(test_fp.sum()),
        overlap_count=len(overlap),
        overlap_sample=tuple(int(i) for i in overlap[:20]),
        is_contaminated=bool(len(overlap)),
        contaminated_test_pairs=int(contaminated.sum()),
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
    are filtered the same way; the test set is never touched.
    """
    if gap < 0:
        raise AuditError(f"gap must be >= 0, got {gap}")
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


def minimal_clearing_gap(result: SplitResult) -> int:
    """Smallest gap whose buffered result audits uncontaminated (linear scan)."""
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
