"""Coupling metrics collapsed to one symmetric weight matrix per band.

COH and iCOH come from the full-record cross-spectrum; PLV, PLI and AEC
from windowed analytic signals. Weights live in [0, 1]; metrics whose raw
value is signed (iCOH, AEC) fold the signed band/window average to
magnitude. Every matrix is built from one value per unordered pair and
mirrored, so symmetry is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateEnvelope, InvalidData, TooShort, check_field_types, frozen_field
from .forward import _one_blas_thread
from .spectral import AnalyticRecord, Band, CoherencyMatrix, band_slice


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window protocol for the time-domain metrics."""

    window_seconds: float = 6.0
    overlap_seconds: float = 0.5

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.window_seconds < float("inf"):
            raise ValueError(f"window_seconds must be finite, got {self.window_seconds}")
        if not 0.0 <= self.overlap_seconds < self.window_seconds:
            raise ValueError("need 0 <= overlap_seconds < window_seconds")


# Per-protocol defaults: PLV uses non-overlapping windows, PLI and AEC a
# 0.5 s overlap.
PLV_WINDOW = WindowConfig(6.0, 0.0)
SLIDING_WINDOW = WindowConfig(6.0, 0.5)


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Symmetric channel x channel weights for one metric and one band."""

    metric: str
    band: Band
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        w = frozen_field(self, "weights", ndim=2)
        if w.shape[0] != w.shape[1]:
            raise InvalidData("weights must be square")
        if np.max(np.abs(w - w.T), initial=0.0) > 1e-12:
            raise InvalidData("weights must be symmetric")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise InvalidData("weights must lie in [0, 1]")

    @property
    def n_channels(self) -> int:
        return self.weights.shape[0]


def _finish(metric: str, band: Band, upper: np.ndarray, diagonal: float) -> ConnectivityMatrix:
    """The matrix of ``upper`` clipped to [0, 1], strict upper triangle mirrored."""
    w = np.triu(np.clip(upper, 0.0, 1.0), 1)
    w = w + w.T
    np.fill_diagonal(w, diagonal)
    return ConnectivityMatrix(metric=metric, band=band, weights=w)


def window_samples(fs: float, w: WindowConfig) -> tuple[int, int]:
    """Window length and step in samples at ``fs``; ValueError if unusable."""
    if not w.window_seconds * fs < float("inf"):  # then the shorter overlap fits too
        raise ValueError(f"window of {w.window_seconds} s at {fs} Hz has too many samples")
    win = int(round(w.window_seconds * fs))
    step = win - int(round(w.overlap_seconds * fs))
    if win < 2:
        raise ValueError(f"window of {w.window_seconds} s is shorter than two samples at {fs} Hz")
    if step < 1:
        raise ValueError(f"overlap of {w.overlap_seconds} s rounds to the whole window at {fs} Hz")
    return win, step


def window_starts(n_samples: int, fs: float, w: WindowConfig) -> tuple[np.ndarray, int]:
    """Start indices of full sliding windows and the window length."""
    win, step = window_samples(fs, w)
    if n_samples < win:
        raise TooShort(f"{n_samples} samples < one {win}-sample window")
    n_windows = (n_samples - win) // step + 1
    return np.arange(n_windows) * step, win


def coherence_matrix(c: CoherencyMatrix, band: Band) -> ConnectivityMatrix:
    """Squared coherency magnitude averaged over the band bins."""
    idx = band_slice(c.freqs, band)
    return _finish("COH", band, (np.abs(c.mats[idx]) ** 2).mean(axis=0), diagonal=1.0)


def icoh_matrix(c: CoherencyMatrix, band: Band) -> ConnectivityMatrix:
    """Imaginary coherency averaged over band bins, folded to magnitude.

    The signed imaginary parts are averaged first and the magnitude taken
    once.
    """
    idx = band_slice(c.freqs, band)
    return _finish("iCOH", band, np.abs(c.mats[idx].imag.mean(axis=0)), diagonal=0.0)


@_one_blas_thread()
def plv_matrix(a: AnalyticRecord, w: WindowConfig = PLV_WINDOW) -> ConnectivityMatrix:
    """Phase-locking value: |mean unit phasor of the phase difference|.

    Computed per window and averaged across windows.
    """
    starts, win = window_starts(a.n_samples, a.fs, w)
    n = a.n_channels
    acc = np.zeros((n, n))
    for s in starts:
        u = np.exp(1j * a.phase[:, s : s + win])
        acc += np.abs(u @ u.conj().T) / win
    return _finish("PLV", a.band, acc / len(starts), diagonal=1.0)


def _wrap_phase(d: np.ndarray) -> np.ndarray:
    """Wrap phase differences to (-pi, pi].

    Equal bit for bit to ``np.mod(d, 2 pi)`` followed by subtracting 2 pi
    above pi, at a fraction of the cost: fmod keeps the sign of d, so
    negatives (and both zeros, which then end as +0) are lifted by 2 pi.
    """
    d = np.fmod(d, 2.0 * np.pi)
    np.add(d, 2.0 * np.pi, out=d, where=d <= 0.0)
    np.subtract(d, 2.0 * np.pi, out=d, where=d > np.pi)
    return d


# Phase differences below float rounding noise count as ties (sign 0), so
# channels that are exact scalar multiples of each other score 0 instead of
# picking up the deterministic rounding bias of atan2.
_PHASE_TIE = 1e-12

# Integer phase steps per radian: pi is 2^31 steps, so int32 arithmetic on
# the steps wraps modulo 2 pi. One step is pi / 2^31 = 1.46e-9 rad.
_PHASE_STEPS = 2**31 / np.pi


def pli_matrix(a: AnalyticRecord, w: WindowConfig = SLIDING_WINDOW) -> ConnectivityMatrix:
    """Phase-lag index: |mean sign of the wrapped phase difference|.

    sign(0) counts as 0; window values are averaged across windows. Blind
    to zero-lag coupling by construction.

    The signs come from integer phases. Each window's phases are rounded to
    q = rint(phi 2^31 / pi) and held as int32, where pi becomes -2^31, the
    same angle, and the difference d = q_j - q_i wraps modulo 2^32, that is
    modulo 2 pi. Rounding moves a phase by at most half a step, so
    |d| in [2, 2^31 - 2] puts the true wrapped difference at least one step
    (1.46e-9 rad) away from 0 and from pi, far outside the ``_PHASE_TIE``
    rule and the ~4e-16 error of the float difference, and sign(d) is the
    sign the wrapped float difference gives. A pair-window with any sample
    at |d| <= 1 or |d| >= 2^31 - 1 is counted again from the wrapped float
    difference with the ``_PHASE_TIE`` rule.
    """
    starts, win = window_starts(a.n_samples, a.fs, w)
    n = a.n_channels
    acc = np.zeros((n, n))
    u = np.empty((n, win), dtype=np.int32)
    low = np.empty_like(u)
    for s in starts:
        t = slice(s, s + win)
        # Through int64: a float-to-int32 cast of 2^31 is undefined.
        q = np.rint(a.phase[:, t] * _PHASE_STEPS).astype(np.int64).astype(np.int32)
        q1 = q + 1
        for i in range(n - 1):
            rows = slice(0, n - 1 - i)  # buffer rows for channels j > i
            # u = d + 1, which has the sign of d wherever d needs no fallback.
            ur = np.subtract(q1[i + 1 :], q[i], out=u[rows])
            # (d + 1) mod 2^31 <= 2 exactly when |d| <= 1 or |d| >= 2^31 - 1.
            near = np.bitwise_and(ur, 0x7FFFFFFF, out=low[rows]).min(axis=1) <= 2
            net = np.sign(ur, out=ur).sum(axis=1, dtype=np.int32)
            if near.any():
                tied = np.flatnonzero(near)
                d = _wrap_phase(a.phase[i + 1 + tied, t] - a.phase[i, t])
                net[tied] = (np.count_nonzero(d > _PHASE_TIE, axis=1)
                             - np.count_nonzero(d < -_PHASE_TIE, axis=1))
            acc[i, i + 1 :] += np.abs(net / win)
    return _finish("PLI", a.band, acc / len(starts), diagonal=0.0)


@_one_blas_thread()
def aec_matrix(a: AnalyticRecord, w: WindowConfig = SLIDING_WINDOW) -> ConnectivityMatrix:
    """Amplitude envelope correlation, folded to magnitude.

    Pearson correlation of the envelopes per window, averaged across
    windows. Pair-windows with a constant envelope are skipped; a pair with
    no usable window at all is an error.
    """
    starts, win = window_starts(a.n_samples, a.fs, w)
    n = a.n_channels
    acc = np.zeros((n, n))
    count = np.zeros((n, n), dtype=int)
    for s in starts:
        env = a.envelope[:, s : s + win]
        centred = env - env.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.sum(centred * centred, axis=1))
        ok = norms > 0.0
        z = np.zeros_like(centred)
        z[ok] = centred[ok] / norms[ok, None]
        # a constant channel's row of z is zero, so its products add only +-0
        acc += z @ z.T
        count += np.outer(ok, ok)
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(count[off_diag] == 0):
        i, j = np.argwhere((count == 0) & off_diag)[0]
        raise DegenerateEnvelope(
            f"channel pair ({i}, {j}) had a constant envelope in every window"
        )
    return _finish("AEC", a.band, np.abs(acc / count), diagonal=1.0)


# The metric table, in reporting order: name -> (input, call). The input is
# "coherency" (the record's CoherencyMatrix) or "analytic" (the band's
# AnalyticRecord); the call takes that input, the band and the experiment's
# sliding-window protocol. PLV keeps only the window length and never
# overlaps its windows; PLI and AEC use the protocol as given.
METRICS: dict[str, tuple[str, Callable[..., ConnectivityMatrix]]] = {
    "COH": ("coherency", lambda c, band, w: coherence_matrix(c, band)),
    "iCOH": ("coherency", lambda c, band, w: icoh_matrix(c, band)),
    "PLV": ("analytic", lambda a, band, w: plv_matrix(a, WindowConfig(w.window_seconds, 0.0))),
    "PLI": ("analytic", lambda a, band, w: pli_matrix(a, w)),
    "AEC": ("analytic", lambda a, band, w: aec_matrix(a, w)),
}
