"""Pearson correlation with exact-t significance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeries, TooFewPoints, checked_array

_TINY = 1e-300  # keeps the Lentz recurrences off zero denominators
# About 3 * 2**-53, as in Cephes; a bound below the spacing of doubles at 1.0
# is met only when c * d rounds to exactly 1.0.
_EPS = 3e-16
_MAX_TERMS = 10_000  # a = b = 1e6 needs about 530 at x = 1/2


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


def regularized_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), for a, b > 0.

    The continued fraction of Numerical Recipes §6.4 (Cephes ``incbet``),
    evaluated by the modified Lentz method; it converges fast for
    x < (a + 1) / (a + b + 2), and above that I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - regularized_beta(b, a, 1.0 - x)
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    c, frac = 1.0, d
    for m in range(1, _MAX_TERMS):
        for coeff in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                      -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + coeff / c
            c = c if abs(c) > _TINY else _TINY
            frac *= c * d
        if abs(c * d - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"I_x(a, b) did not converge at a={a}, b={b}, x={x}")
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * frac / a


def pearson_p(r: float, n: int) -> float:
    """Two-sided p of a Pearson ``r`` from ``n`` points, by the t test with n - 2 dof.

    p = I_x(df / 2, 1 / 2) with x = df / (df + t^2), which keeps a tiny p
    accurate relative to its size; |r| = 1 gives p = 0.
    """
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t_sq = df * r * r / (1.0 - r * r)
    return regularized_beta(df / 2.0, 0.5, df / (df + t_sq))


def pearson_correlation(x, y) -> CorrelationResult:
    """Pearson r with a two-sided p from the exact t distribution (``pearson_p``)."""
    x = checked_array(np.ravel(x), "x", ndim=1)
    y = checked_array(np.ravel(y), "y", ndim=1)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 3:
        raise TooFewPoints(f"need n >= 3, got {n}")
    # Each series scaled by a power of two to a largest magnitude in [1/2, 1). That
    # is exact, so r keeps its bits, and no mean, sum or product below overflows;
    # a series that is not constant then has a positive sum of squares.
    x, y = (np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1]) for v in (x, y))
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ConstantSeries("correlation undefined for a constant series")

    dx = x - x.mean()
    dy = y - y.mean()
    r = float(np.clip(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)), -1.0, 1.0))
    p = pearson_p(r, n)
    return CorrelationResult(r=r, p=p, n=n, stars=significance_stars(p))
