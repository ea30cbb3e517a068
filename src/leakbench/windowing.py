"""Sliding-window construction of supervised sequence pairs.

A sequence set is an array of raw window starts over one shared values
buffer; no pair is stored as an object of its own. The pair that starts at
raw index t has its window on [t, t+W-1] and its target at t+W+L-1, so with
lag step L=1 the target is the observation immediately after the window.
Its footprint [t, t+W) plus {t+W+L-1} is what the leakage audit intersects,
built from the starts: as half-open intervals where each set is a few runs
of consecutive starts, else as boolean masks over raw indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import WindowError
from .records import Record


@dataclass(frozen=True)
class WindowConfig(Record):
    """Window size W (observations per input) and lag step L (horizon)."""

    window_size: int
    lag_step: int

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise WindowError(f"window_size must be >= 1, got {self.window_size}")
        if self.lag_step < 1:
            raise WindowError(f"lag_step must be >= 1, got {self.lag_step}")

    @property
    def target_offset(self) -> int:
        """W + L - 1: how far a pair's target lies after its window start."""
        return self.window_size + self.lag_step - 1


@dataclass(frozen=True, eq=False)
class SequenceSet:
    """Window starts over a series' read-only values buffer, plus the raw
    interval(s) that produced them.

    `values` is the whole series: `values[t]` is the observation at raw
    index t, and sets cut from one series share it. `starts` holds each
    pair's raw window start t, ascending. source_range holds half-open
    [start, stop) raw-index intervals inside [0, len(values)], and every
    pair's raw span [t, t+W+L-1] must lie inside one of them. Empty sets
    are legal.
    """

    values: np.ndarray
    starts: np.ndarray
    source_range: tuple[tuple[int, int], ...]
    config: WindowConfig

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).view()
        values.flags.writeable = False
        starts = np.asarray(self.starts, dtype=np.int64).view()
        starts.flags.writeable = False
        ranges = tuple((int(a), int(b)) for a, b in self.source_range)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "source_range", ranges)
        n = values.shape[0]
        if not all(0 <= lo and hi <= n for lo, hi in ranges):
            raise WindowError(f"source range {ranges} lies outside the buffer [0, {n}]")
        if np.any(starts[1:] < starts[:-1]):
            raise WindowError("pairs must be ordered by input_start")
        # a pair lies in [lo, hi) when its start and its target do
        offset = self.config.target_offset
        inside = np.zeros(starts.shape, dtype=bool)
        for lo, hi in ranges:
            inside |= (lo <= starts) & (starts < hi - offset)
        if not inside.all():
            raise WindowError(
                f"pair at t={int(starts[~inside][0])} falls outside source range"
                f" {ranges}"
            )

    def __len__(self) -> int:
        return self.starts.shape[0]

    def target_indices(self) -> np.ndarray:
        """Raw index t + W + L - 1 of every pair's target."""
        return self.starts + self.config.target_offset

    def inputs(self) -> np.ndarray:
        """The (n_pairs, W) matrix of windows, gathered from the buffer."""
        return windows(self.values, self.starts, self.config.window_size)

    def targets(self) -> np.ndarray:
        return self.values[self.target_indices()]


def windows(buffer: np.ndarray, starts: np.ndarray, window_size: int) -> np.ndarray:
    """buffer[t : t + W] for every raw start t, gathered by one fancy index:
    starts of any shape give windows of that shape plus a trailing W axis."""
    return buffer[starts[..., None] + np.arange(window_size)]


def make_sequences(values: Sequence[float] | np.ndarray, config: WindowConfig) -> SequenceSet:
    """Slide a (W, L) window over a whole series: pair k has window start k.

    The set keeps `values` as its buffer (a view, not a copy, when it
    already is a float array). A series shorter than W + L yields an empty
    set; callers decide whether that is an error.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.shape[0]
    return SequenceSet(vals, np.arange(max(0, n - config.target_offset)), ((0, n),), config)
