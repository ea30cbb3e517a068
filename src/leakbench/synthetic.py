"""Bundled reference dataset: a deterministic synthetic daily
mean-temperature series.

Four years plus one day (1462 observations, 2013-01-01 through 2017-01-01)
of an annual cycle with a slight warming trend and autocorrelated weather
noise. The value distribution is pinned to a fixed profile (mean 25.5,
sample std 7.35, min 6.00, max 38.71) by a monotone rank-preserving warp,
so descriptive statistics are stable regression fixtures. All generator
parameters are frozen; changing any of them invalidates recorded fixtures.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path

import numpy as np

from .series import TimeSeries, write_csv

REFERENCE_COUNT = 1462
REFERENCE_START = date(2013, 1, 1)
REFERENCE_MEAN = 25.5
REFERENCE_STD = 7.35
REFERENCE_MIN = 6.00
REFERENCE_MAX = 38.71

_SEED = 20130101
_NOISE = 0.15
_AR_COEFF = 0.80
_PEAK_SHIFT_DAYS = 105.0
_WARMING_PER_DAY = 0.00025

_cached_values: np.ndarray | None = None


def _shape() -> np.ndarray:
    """Seasonal shape: annual sine + warming trend + AR(1) weather noise."""
    rng = np.random.default_rng(_SEED)
    t = np.arange(REFERENCE_COUNT)
    annual = np.sin(2.0 * np.pi * (t - _PEAK_SHIFT_DAYS) / 365.25)
    warming = _WARMING_PER_DAY * t
    innovations = rng.normal(0.0, 1.0, REFERENCE_COUNT)
    ar = np.empty(REFERENCE_COUNT)
    ar[0] = innovations[0] / np.sqrt(1.0 - _AR_COEFF**2)
    for i in range(1, REFERENCE_COUNT):
        ar[i] = _AR_COEFF * ar[i - 1] + innovations[i]
    return annual + warming + _NOISE * ar


def _pin_profile(shape: np.ndarray) -> np.ndarray:
    """Warp the shape monotonically so min/max are exact and mean/std match.

    The shape is mapped to [0, 1], passed through a beta CDF whose two
    parameters are solved so the rescaled values hit the target mean and
    sample std, then mapped to [REFERENCE_MIN, REFERENCE_MAX]. The warp is
    monotone, so the temporal structure (seasonality, autocorrelation) is
    preserved.
    """
    from scipy import optimize, stats  # slow to import; only the data build needs them

    u = (shape - shape.min()) / (shape.max() - shape.min())
    span = REFERENCE_MAX - REFERENCE_MIN

    def residuals(log_pq: np.ndarray) -> list[float]:
        p, q = np.exp(log_pq)
        v = REFERENCE_MIN + span * stats.beta.cdf(u, p, q)
        return [v.mean() - REFERENCE_MEAN, v.std(ddof=1) - REFERENCE_STD]

    sol = optimize.root(residuals, x0=[0.0, 0.0], method="hybr", tol=1e-12)
    if not sol.success:
        raise RuntimeError(f"profile pinning failed to converge: {sol.message}")
    p, q = np.exp(sol.x)
    return REFERENCE_MIN + span * stats.beta.cdf(u, p, q)


def reference_values() -> np.ndarray:
    """The reference value vector (cached; read-only)."""
    global _cached_values
    if _cached_values is None:
        vals = _pin_profile(_shape())
        vals.flags.writeable = False
        _cached_values = vals
    return _cached_values


def reference_series() -> TimeSeries:
    """The bundled reference series as a TimeSeries named `meantemp`."""
    stamps = np.datetime64(REFERENCE_START, "D") + np.arange(REFERENCE_COUNT)
    return TimeSeries(name="meantemp", timestamps=stamps, values=reference_values())


def write_reference_csv(path: str | Path) -> Path:
    """Write the reference series to a CSV usable by the CLI and runner."""
    return write_csv(reference_series(), path)
