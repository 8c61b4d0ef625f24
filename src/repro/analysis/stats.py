"""Interval estimates used by experiment tables and statistical tests."""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from ..rng import make_rng

__all__ = ["mean_ci", "bootstrap_ci", "wilson_interval"]


def _z(confidence: float) -> float:
    """Two-sided normal quantile for ``confidence``.

    ``scipy.special.ndtri`` is the function ``scipy.stats.norm.ppf``
    evaluates (bit-identical results) without importing
    ``scipy.stats``, which costs about half a second.
    """
    from scipy.special import ndtri

    return float(ndtri(0.5 + confidence / 2.0))


def mean_ci(values: Iterable[float], confidence: float = 0.95) -> tuple[float, float, float]:
    """(mean, lo, hi) normal-approximation CI for the mean."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return (math.nan, math.nan, math.nan)
    m = float(arr.mean())
    if arr.size == 1:
        return (m, m, m)
    z = _z(confidence)
    half = z * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return (m, m - half, m + half)


def bootstrap_ci(
    values: Iterable[float],
    statistic: Callable[[np.ndarray], float] = np.median,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed=None,
) -> tuple[float, float, float]:
    """(stat, lo, hi) percentile-bootstrap CI for an arbitrary statistic.

    Used for medians/quantiles of completion time where the normal
    approximation is inappropriate.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return (math.nan, math.nan, math.nan)
    rng = make_rng(seed)
    stat = float(statistic(arr))
    if arr.size == 1:
        return (stat, stat, stat)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    boot = np.apply_along_axis(statistic, 1, arr[idx])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(boot, [alpha, 1.0 - alpha])
    return (stat, float(lo), float(hi))


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float, float]:
    """(rate, lo, hi) Wilson score interval for a binomial proportion.

    The right tool for completion/failure *rates* (E6, E7), which sit
    near 0 or 1 where the normal interval is useless.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (math.nan, 0.0, 1.0)
    z = _z(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (p, max(0.0, center - half), min(1.0, center + half))
