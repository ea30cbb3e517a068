"""RMSE, repeated-run aggregation with t-based confidence intervals, the
clean-vs-leaky gain metric, and leakage-sensitivity ranking.

gain_percent = (rmse_clean - rmse_leaky) / rmse_clean * 100. Positive gain
means the leaky setup looked *better* than the clean one (optimistic bias);
negative gain is degradation or run-to-run noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .errors import LeakbenchError
from .records import Record


@dataclass(frozen=True)
class RunStats(Record):
    """Aggregate RMSE statistics over repeated runs.

    std/stderr/ci95 need at least two runs and are None below that.
    The confidence interval is mean +/- t(0.975, n-1) * stderr.
    """

    n_runs: int
    min: float
    max: float
    mean: float
    std: Optional[float]
    stderr: Optional[float]
    ci95: Optional[tuple[float, float]]
    mean_optimal_epoch: Optional[float] = None
    mean_last_epoch: Optional[float] = None


@dataclass(frozen=True)
class GainRecord(Record):
    """Clean-vs-leaky comparison for one (window, lag, plan) cell."""

    window: int
    lag: int
    plan: str
    rmse_clean: float
    rmse_leaky: float
    gain_percent: float
    direction: str
    leakage_rank: Optional[int] = None


def rmse(predictions: Sequence[float] | np.ndarray, targets: Sequence[float] | np.ndarray) -> float:
    """Root mean squared error."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise LeakbenchError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise LeakbenchError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def aggregate(
    run_rmses: Sequence[float],
    optimal_epochs: Sequence[float] | None = None,
    last_epochs: Sequence[float] | None = None,
) -> RunStats:
    """Aggregate per-run RMSEs: sample std, stderr = std/sqrt(n), and a
    Student-t 95% confidence interval (n >= 2; suppressed otherwise)."""
    vals = np.asarray(run_rmses, dtype=float)
    if vals.size == 0:
        raise LeakbenchError("cannot aggregate zero runs")
    n = int(vals.size)
    mean = float(vals.mean())
    std = stderr = None
    ci = None
    if n >= 2:
        std = float(vals.std(ddof=1))
        stderr = std / math.sqrt(n)
        half = _t975(n - 1) * stderr
        ci = (mean - half, mean + half)
    return RunStats(
        n_runs=n,
        min=float(vals.min()),
        max=float(vals.max()),
        mean=mean,
        std=std,
        stderr=stderr,
        ci95=ci,
        mean_optimal_epoch=(
            float(np.mean(optimal_epochs)) if optimal_epochs else None
        ),
        mean_last_epoch=(float(np.mean(last_epochs)) if last_epochs else None),
    )


def _t_abs_cdf(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df >= 1: the finite sums in
    cos(theta), theta = atan(t / sqrt(df)), of Abramowitz & Stegun 26.7.3
    (odd df) and 26.7.4 (even df). Each power of cos^2(theta) comes from one
    log1p, not a running product, so its rounding does not grow with df."""
    log_cos2 = -math.log1p(t * t / df)
    odd = df % 2
    coef = total = 1.0
    for j, k in enumerate(range(2 + odd, df - 1, 2), 1):
        coef *= (k - 1) / k
        total += coef * math.exp(j * log_cos2)
    sin = t / math.sqrt(df + t * t)
    if not odd:
        return sin * total
    series = sin * math.exp(0.5 * log_cos2) * total if df > 1 else 0.0
    return 2 / math.pi * (math.atan(t / math.sqrt(df)) + series)


@cache
def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with integer df >= 1, the value of
    scipy.stats.t.ppf(0.975, df), from the standard library alone.

    Below df 1000 it is Newton's method on `_t_abs_cdf` from t = 0. That
    CDF is concave for t >= 0, so the iterates rise to the root without
    overshooting it. From df 1000 on it is the Cornish-Fisher expansion
    (A&S 26.7.5) to 1/df^4, whose first omitted term is below 1e-15
    relative there. Over df 1..19,999 the result lies within 1e-14 relative
    of scipy.special.stdtrit, which is itself up to 3.5e-15 off the exact
    quantile, so the two cannot agree to the last bit.
    """
    if df >= 1000:
        x = 1.959963984540054  # the standard normal's 0.975 quantile
        x2 = x * x
        g1 = (x2 + 1) * x / 4
        g2 = ((5 * x2 + 16) * x2 + 3) * x / 96
        g3 = (((3 * x2 + 19) * x2 + 17) * x2 - 15) * x / 384
        g4 = ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945) * x / 92160
        return x + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
    log_norm = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                - 0.5 * math.log(df * math.pi))
    t = 0.0
    while True:
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (0.95 - _t_abs_cdf(t, df)) / (2 * density)
        t += step
        # convergence is quadratic: after a step this small, what is left
        # of the error is below rounding
        if step <= 1e-12 * t:
            return t


def rmse_gain(clean: float, leaky: float) -> tuple[float, str]:
    """(gain_percent, direction) for one clean/leaky RMSE pair."""
    if clean <= 0:
        raise LeakbenchError(f"clean RMSE must be positive, got {clean}")
    gain = (clean - leaky) / clean * 100.0
    return gain, ("up" if gain > 0 else "down")


def make_gain_record(
    window: int, lag: int, plan: str, clean: float, leaky: float
) -> GainRecord:
    gain, direction = rmse_gain(clean, leaky)
    return GainRecord(
        window=window,
        lag=lag,
        plan=plan,
        rmse_clean=clean,
        rmse_leaky=leaky,
        gain_percent=gain,
        direction=direction,
    )


def plan_sort_key(plan_label: str) -> int:
    """Plan order 2-way, 3-way, k-fold: the one ordering of plan labels."""
    return {"2-way": 0, "3-way": 1}.get(plan_label, 2)


def leakage_rank(records: Sequence[GainRecord]) -> list[GainRecord]:
    """Assign ranks within one config group by ascending |gain_percent|
    (1 = least sensitive); ties break by plan order 2-way, 3-way, k-fold."""
    if not records:
        raise LeakbenchError("cannot rank an empty group")
    ordered = sorted(
        records, key=lambda r: (abs(r.gain_percent), plan_sort_key(r.plan))
    )
    ranked = {id(r): i + 1 for i, r in enumerate(ordered)}
    return [replace(r, leakage_rank=ranked[id(r)]) for r in records]
