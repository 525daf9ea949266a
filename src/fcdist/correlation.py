"""Pearson correlation with exact-t significance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import ConstantSeries, InvalidData, TooFewPoints


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p: float
    n: int
    stars: str


def significance_stars(p: float) -> str:
    """Conventional significance label: *, **, *** below .05/.01/.001."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def pearson_correlation(x, y) -> CorrelationResult:
    """Pearson r with a two-sided p from the exact t distribution.

    p uses the regularized incomplete beta form of the t CDF with n - 2
    degrees of freedom; |r| = 1 short-circuits to p = 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidData("correlation needs finite x and y")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 3:
        raise TooFewPoints(f"need n >= 3, got {n}")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ConstantSeries("correlation undefined for a constant series")

    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    if denom == 0.0:
        raise ConstantSeries("correlation undefined for a constant series")
    r = float(np.clip(np.sum(dx * dy) / denom, -1.0, 1.0))

    df = n - 2
    if abs(r) >= 1.0:
        p = 0.0
    else:
        t_sq = df * r * r / (1.0 - r * r)
        p = float(betainc(df / 2.0, 0.5, df / (df + t_sq)))
    return CorrelationResult(r=r, p=p, n=n, stars=significance_stars(p))
