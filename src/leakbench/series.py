"""Univariate daily series: CSV loading, descriptive statistics, and a
classical moving-average seasonal decomposition."""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError, reading

# date.toordinal() of 1970-01-01, day 0 of datetime64[D]
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# strings numpy reads as the current date or time
_KEYWORDS = ("today", "now", b"today", b"now")
# datetime64 units coarser than a day, which numpy reads as their first day
_COARSE_UNITS = {"Y": "year", "M": "month", "W": "week"}


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered univariate observations at daily granularity.

    `timestamps` is a read-only `datetime64[D]` array and `values` a
    read-only float array; the constructor copies whatever sequences it is
    given (dates, ISO strings, datetime64). Timestamps are whole days,
    strictly increasing, values are finite, and both run the same length
    (>= 1).
    Instances are immutable and safe to share.
    """

    name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        stamps = _day_stamps(self.timestamps)
        vals = np.array(self.values, dtype=float)
        stamps.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "timestamps", stamps)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise DataError("series values must be one-dimensional")
        if stamps.ndim != 1:
            raise DataError("series timestamps must be one-dimensional")
        if stamps.shape[0] != vals.shape[0]:
            raise DataError(
                f"timestamp/value length mismatch: {stamps.shape[0]} vs {vals.shape[0]}"
            )
        if vals.shape[0] < 1:
            raise DataError("series must contain at least one observation")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise DataError(f"non-finite value at position {bad[0]}")
        bad = np.flatnonzero(np.isnat(stamps))
        if bad.size:
            raise DataError(f"missing timestamp at position {bad[0]}")
        bad = np.flatnonzero(stamps[1:] <= stamps[:-1])
        if bad.size:
            i = bad[0] + 1
            raise DataError(
                f"timestamps not strictly increasing at position {i} "
                f"({stamps[i - 1]} -> {stamps[i]})"
            )

    def __len__(self) -> int:
        return self.values.shape[0]


def _day_stamps(timestamps) -> np.ndarray:
    """A `datetime64[D]` copy of `timestamps`: dates, ISO strings,
    datetime64 or integer day numbers. An unparseable date, a time of day,
    a year, month or week in place of a day, numpy's "today" and "now"
    keywords and any other kind of value raise DataError, naming the (flat)
    position where there is one."""
    stamps = np.asarray(timestamps)
    if stamps.dtype.kind in "OSU":
        # Each string on its own: parsed together, "2020-02" next to
        # "2020-01-01" would silently become 2020-02-01.
        for i, stamp in enumerate(stamps.ravel().tolist()):
            if isinstance(stamp, (str, bytes)) and stamp.lower() in _KEYWORDS:
                raise DataError(f"timestamp at position {i} is {stamp!r}, not a date")
            try:
                unit, _ = np.datetime_data(np.array([stamp]).astype("datetime64").dtype)
            except (TypeError, ValueError) as bad:
                raise DataError(f"invalid timestamp at position {i}: {bad}") from bad
            if unit in _COARSE_UNITS:
                raise DataError(
                    f"timestamp at position {i} is a {_COARSE_UNITS[unit]}, not a day: {stamp!r}")
        try:
            stamps = stamps.astype("datetime64")
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid timestamps: {exc}") from exc
    elif stamps.dtype.kind not in "iuM" and stamps.size:
        raise DataError(f"timestamps must be dates, got {stamps.dtype} values")
    unit = np.datetime_data(stamps.dtype)[0] if stamps.dtype.kind == "M" else None
    if unit in _COARSE_UNITS:
        named = np.flatnonzero(~np.isnat(stamps))
        if named.size:
            i = named[0]
            raise DataError(
                f"timestamp at position {i} is a {_COARSE_UNITS[unit]}, not a day: "
                f"{stamps.flat[i]}")
    days = stamps.astype("datetime64[D]")
    if stamps.dtype.kind == "M" and stamps.dtype != days.dtype:
        partial = np.flatnonzero((days != stamps) & ~np.isnat(stamps))
        if partial.size:
            i = partial[0]
            raise DataError(f"timestamp at position {i} has a time of day: {stamps.flat[i]}")
    return days


@dataclass(frozen=True)
class DescriptiveStats:
    """Summary statistics of a series, in the series' own units."""

    count: int
    mean: float
    std: float
    min: float
    median: float
    max: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Additive decomposition: value = trend + seasonal + residual.

    Trend (and hence residual) is undefined at the edges where the centered
    moving average has no full window; those entries are NaN and excluded
    from the reconstruction identity.
    """

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int


def load_csv(path: str | Path, value_column: str, date_column: str = "date") -> TimeSeries:
    """Load a univariate series from a comma-separated file.

    The file must be UTF-8 (a leading byte-order mark is skipped) with a
    header row; dates are ISO-8601. Blank rows are skipped, a short row
    reads its missing fields as empty, and a header name that repeats names
    its last column. Rows are sorted by date; duplicate dates, unparseable
    rows and non-finite values are rejected, a bad row with the file line
    it ends on. Each row's day and value go straight into flat arrays, so
    no per-row object outlives its row.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such file: {p}")
    days = array("q")
    values = array("d")
    with reading(p), open(p, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{p}: no data rows")
        for col in (date_column, value_column):
            if col not in header:
                raise DataError(f"{p}: missing column '{col}' (have {header})")
        # the last column of a repeated name, as csv.DictReader reads it
        date_at = len(header) - 1 - header[::-1].index(date_column)
        value_at = len(header) - 1 - header[::-1].index(value_column)
        for row in reader:
            if not row:
                continue
            raw_date = row[date_at].strip() if date_at < len(row) else ""
            raw_value = row[value_at].strip() if value_at < len(row) else ""
            try:
                day = date.fromisoformat(raw_date).toordinal()
                value = float(raw_value)
            except ValueError as exc:
                raise DataError(
                    f"{p}: line {reader.line_num}: cannot parse row: {exc}") from exc
            if not math.isfinite(value):
                raise DataError(
                    f"{p}: line {reader.line_num}: non-finite value {raw_value!r}")
            days.append(day)
            values.append(value)
    if not days:
        raise DataError(f"{p}: no data rows")
    stamps = np.frombuffer(days, dtype=np.int64)
    stamps -= _EPOCH_ORDINAL
    stamps = stamps.view("datetime64[D]")
    vals = np.frombuffer(values, dtype=np.float64)
    if not np.all(stamps[1:] > stamps[:-1]):
        order = np.argsort(stamps, kind="stable")
        stamps, vals = stamps[order], vals[order]
        dup = np.flatnonzero(stamps[1:] == stamps[:-1])
        if dup.size:
            raise DataError(f"{p}: duplicate date {stamps[dup[0]]}")
    return TimeSeries(name=value_column, timestamps=stamps, values=vals)


def write_csv(
    series: TimeSeries, path: str | Path, date_column: str = "date"
) -> Path:
    """Write a series as a two-column CSV that load_csv round-trips exactly."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([date_column, series.name])
        for stamp, value in zip(np.datetime_as_string(series.timestamps), series.values):
            writer.writerow([stamp, repr(float(value))])
    return p


def describe(series: TimeSeries) -> DescriptiveStats:
    """Summarize a series.

    Uses the sample standard deviation (n-1 denominator; 0.0 for a single
    observation) and the midpoint-of-two median for even lengths.
    """
    vals = series.values
    n = vals.shape[0]
    std = float(vals.std(ddof=1)) if n > 1 else 0.0
    return DescriptiveStats(
        count=n,
        mean=float(vals.mean()),
        std=std,
        min=float(vals.min()),
        median=float(np.median(vals)),
        max=float(vals.max()),
    )


def seasonal_decompose(series: TimeSeries, period: int) -> Decomposition:
    """Classical additive decomposition by centered moving average.

    trend: centered moving average of length `period` (even periods use the
    standard 2x`period` weighted average with half weights at the ends);
    NaN where the window does not fit.
    seasonal: per-phase mean of the detrended values, re-centered so the
    seasonal profile sums to zero over one period.
    residual: value - trend - seasonal (NaN wherever trend is NaN).
    """
    if period < 1:
        raise DataError(f"period must be >= 1, got {period}")
    n = len(series)
    if n < 2 * period:
        raise DataError(
            f"series too short for period {period}: need >= {2 * period} points, have {n}"
        )
    x = series.values
    if period % 2 == 0:
        half = period // 2
        weights = np.concatenate(([0.5], np.ones(period - 1), [0.5])) / period
    else:
        half = (period - 1) // 2
        weights = np.full(period, 1.0 / period)
    trend = np.full(n, np.nan)
    trend[half : n - half] = np.convolve(x, weights, mode="valid")

    detrended = x - trend
    phase = np.arange(n) % period
    profile = np.array(
        [np.nanmean(detrended[phase == j]) for j in range(period)]
    )
    profile -= profile.mean()
    seasonal = profile[phase]
    residual = x - trend - seasonal
    for arr in (trend, seasonal, residual):
        arr.flags.writeable = False
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual, period=period)
