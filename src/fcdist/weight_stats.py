"""Distribution statistics of connectivity weight vectors.

One connectivity matrix reduces to its strict upper triangle; the summary
is the mean weight, the population skewness and kurtosis (plain
standardized moments, no small-sample correction), and the normalized
Shannon entropy of a fixed 100-bin histogram on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidData, checked_array

DEFAULT_BINS = 100
MAX_BINS = 2**20


@dataclass(frozen=True)
class DistributionSummary:
    """Shape summary of one weight vector.

    ``skewness`` and ``kurtosis`` are None for a zero-variance vector.
    """

    mcw: float
    skewness: float | None
    kurtosis: float | None
    entropy: float
    n_pairs: int

    @property
    def degenerate(self) -> bool:
        return self.skewness is None


def _values(w) -> np.ndarray:
    return checked_array(np.ravel(w), "weights", ndim=1)


def _check_range(x: np.ndarray) -> None:
    if x.min() < 0.0 or x.max() > 1.0:
        raise InvalidData(f"weights span [{x.min():.6g}, {x.max():.6g}], outside [0, 1]")


def upper_triangle_weights(matrix) -> np.ndarray:
    """Row-major strict upper triangle (i < j) of a symmetric matrix, in [0, 1]."""
    m = checked_array(matrix, "matrix", ndim=2)
    if m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise InvalidData("need a square matrix with n >= 2")
    asym = np.max(np.abs(m - m.T))
    if asym > 1e-9:
        raise InvalidData(f"matrix asymmetric by {asym:.3g}")
    w = m[np.triu_indices(m.shape[0], k=1)]
    _check_range(w)
    return w


def _shape_moments(w) -> tuple[float, float] | None:
    """Population skewness and kurtosis; None at zero spread."""
    x = _values(w)
    if x.size < 2:
        raise InvalidData("need at least two values")
    d = x - x.mean()
    m2 = np.mean(d * d)
    if m2 == 0.0 or np.ptp(x) == 0.0:
        return None
    return float(np.mean(d**3) / m2**1.5), float(np.mean(d**4) / (m2 * m2))


def _defined_moments(w) -> tuple[float, float]:
    """``_shape_moments``; a constant sample is bad data, as a constant library row is."""
    moments = _shape_moments(w)
    if moments is None:
        raise InvalidData("zero-variance sample")
    return moments


def skewness(w) -> float:
    """Third standardized moment E(x - mu)^3 / sigma^3 (population form)."""
    return _defined_moments(w)[0]


def kurtosis(w) -> float:
    """Fourth standardized moment E(x - mu)^4 / sigma^4; normal -> 3."""
    return _defined_moments(w)[1]


def check_bins(n_bins: int) -> None:
    """ValueError unless 2 <= ``n_bins`` <= ``MAX_BINS``; a histogram is allocated whole."""
    if not 2 <= n_bins <= MAX_BINS:
        raise ValueError(f"n_bins must be >= 2 and <= {MAX_BINS}, got {n_bins}")


def shannon_entropy(w, n_bins: int = DEFAULT_BINS) -> float:
    """Normalized histogram entropy on [0, 1].

    Equal-width bins: x falls in bin ``floor(x * n_bins)``, clamped to the
    last bin so that 1.0 is counted there; empty bins contribute nothing.
    0 = fully concentrated, 1 = uniform histogram.
    """
    x = _values(w)
    if x.size < 1:
        raise InvalidData("need at least one value")
    check_bins(n_bins)
    _check_range(x)
    bins = np.minimum((x * n_bins).astype(np.intp), n_bins - 1)
    counts = np.bincount(bins, minlength=n_bins)
    p = counts[counts > 0] / x.size
    return float(-(p * np.log2(p)).sum() / np.log2(n_bins))


def summarize(w, n_bins: int = DEFAULT_BINS) -> DistributionSummary:
    """Bundle mean weight, skewness, kurtosis and entropy of one vector."""
    x = _values(w)
    entropy = shannon_entropy(x, n_bins)
    skew, kurt = _shape_moments(x) or (None, None)
    return DistributionSummary(
        mcw=float(x.mean()),
        skewness=skew,
        kurtosis=kurt,
        entropy=entropy,
        n_pairs=x.size,
    )
