"""Cross-spectral estimation, coherency, and band-limited analytic signals.

Cross-spectra use plain averaged periodograms over consecutive
non-overlapping segments (no taper), with per-segment mean removal and the
DC/Nyquist bins dropped. Power is scaled so the diagonal sums over bins to
the segment variance (one-sided convention).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BandOutOfRange,
    EmptyBand,
    FewSegmentsWarning,
    InvalidData,
    TooFewSegments,
    ZeroPowerChannel,
    frozen_field,
)
from .forward import MultichannelRecord

# Averaging fewer segments than this is allowed but flagged as a diagnostic.
RECOMMENDED_MIN_SEGMENTS = 20


@dataclass(frozen=True)
class Band:
    """A named frequency band [lo, hi] in Hz."""

    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lo < self.hi:
            raise ValueError(f"need 0 < lo < hi, got ({self.lo}, {self.hi})")


# Default analysis bands, aligned with the 0.390625 Hz grid of
# 512-sample segments at fs = 200 (bins 3..49 span 1.17..19.14 Hz).
DEFAULT_BANDS: tuple[Band, ...] = (
    Band("delta", 1.17, 4.0),
    Band("theta", 4.0, 8.0),
    Band("alpha", 8.0, 13.0),
    Band("beta", 13.0, 19.15),
)
ALPHA = DEFAULT_BANDS[2]


@dataclass(frozen=True)
class CrossSpectrum:
    """Per-frequency Hermitian channel x channel matrices."""

    freqs: np.ndarray = field(repr=False)  # (n_freqs,)
    mats: np.ndarray = field(repr=False)  # (n_freqs, n_ch, n_ch) complex
    n_segments: int

    def __post_init__(self) -> None:
        freqs = frozen_field(self, "freqs", ndim=1)
        mats = frozen_field(self, "mats", dtype=complex, ndim=3)
        if mats.shape[1] != mats.shape[2]:
            raise InvalidData("mats must be (n_freqs, n, n)")
        if freqs.shape != (mats.shape[0],):
            raise InvalidData("freqs length must match mats")
        if np.any(freqs[1:] <= freqs[:-1]):
            raise InvalidData("freqs must be strictly increasing")
        # One bin at a time keeps the temporaries small.
        herm = np.max([np.max(np.abs(m - m.conj().T)) for m in mats]) if mats.size else 0.0
        if herm > 1e-10:
            raise InvalidData(f"matrices not Hermitian (max deviation {herm:.3g})")
        diag = np.einsum("fii->fi", mats)
        if np.any(diag.real < 0) or np.max(np.abs(diag.imag), initial=0.0) > 1e-10:
            raise InvalidData("diagonal must be real and non-negative")
        if self.n_segments < 1:
            raise InvalidData("n_segments must be >= 1")

    @property
    def n_channels(self) -> int:
        return self.mats.shape[1]


@dataclass(frozen=True)
class CoherencyMatrix:
    """Cross-spectrum normalized by channel powers; unit diagonal."""

    freqs: np.ndarray = field(repr=False)
    mats: np.ndarray = field(repr=False)  # (n_freqs, n, n) complex

    def __post_init__(self) -> None:
        frozen_field(self, "freqs", ndim=1)
        mats = frozen_field(self, "mats", dtype=complex, ndim=3)
        if np.max(np.abs(mats), initial=0.0) > 1.0 + 1e-9:
            raise InvalidData("coherency magnitudes exceed 1")

    @property
    def n_channels(self) -> int:
        return self.mats.shape[1]


@dataclass(frozen=True)
class AnalyticRecord:
    """Instantaneous phase and amplitude envelope of a band-limited record."""

    phase: np.ndarray = field(repr=False)  # radians, wrapped to (-pi, pi]
    envelope: np.ndarray = field(repr=False)  # >= 0
    fs: float
    band: Band

    def __post_init__(self) -> None:
        phase = frozen_field(self, "phase", ndim=2)
        envelope = frozen_field(self, "envelope", ndim=2)
        if phase.shape != envelope.shape:
            raise InvalidData("phase and envelope shapes must match")
        if np.any(envelope < 0):
            raise InvalidData("envelope must be non-negative")
        if np.any(phase > np.pi) or np.any(phase <= -np.pi):
            raise InvalidData("phase must lie in (-pi, pi]")

    @property
    def n_channels(self) -> int:
        return self.phase.shape[0]

    @property
    def n_samples(self) -> int:
        return self.phase.shape[1]


def bartlett_cross_spectrum(rec: MultichannelRecord, segment_samples: int = 512,
                            band: Band | None = None) -> CrossSpectrum:
    """Averaged-periodogram cross-spectrum over non-overlapping segments.

    The record is cut into K = floor(n_samples / segment_samples) segments;
    each is mean-removed per channel and transformed, and the per-frequency
    outer products x_i(f) conj(x_j(f)) are averaged over segments. The
    frequency axis is k * fs / segment_samples for k = 1 .. N/2 - 1 (DC and
    Nyquist excluded).

    With a ``band``, only the bins that ``band_slice`` selects on that full
    axis are formed; each is bit for bit the full result's bin, and a band
    that selects none raises ``EmptyBand``. ``coherency`` of such a
    spectrum then checks channel power on the band's bins only, so its
    ``ZeroPowerChannel`` names the band's first bin.
    """
    if segment_samples < 4 or segment_samples % 2:
        raise ValueError("segment_samples must be even and >= 4")
    n_ch, n_samples = rec.data.shape
    k_segments = n_samples // segment_samples
    if k_segments < 2:
        raise TooFewSegments(
            f"{n_samples} samples hold {k_segments} segment(s) of {segment_samples}; need >= 2"
        )
    if k_segments < RECOMMENDED_MIN_SEGMENTS:
        warnings.warn(
            f"averaging only {k_segments} segments (< {RECOMMENDED_MIN_SEGMENTS})",
            FewSegmentsWarning,
            stacklevel=2,
        )

    n = segment_samples
    segs = rec.data[:, : k_segments * n].reshape(n_ch, k_segments, n)
    segs = segs - segs.mean(axis=2, keepdims=True)
    freqs = np.arange(1, n // 2) * (rec.fs / n)
    lo, hi = 0, freqs.size
    if band is not None:
        idx = band_slice(freqs, band)
        lo, hi = idx[0], idx[-1] + 1
    # (bin, channel, segment), segments contiguous for the reduction below.
    spec = np.fft.rfft(segs, axis=2)[:, :, 1 + lo : 1 + hi].transpose(2, 0, 1).copy()
    # Plain einsum (no BLAS) sums the segments in order, as a running sum
    # over segments would; a BLAS product rounds differently and is not
    # exactly Hermitian.
    mats = np.einsum("fck,fdk->fcd", spec, spec.conj())
    mats *= 2.0 / (k_segments * n * n)
    return CrossSpectrum(freqs=freqs[lo:hi], mats=mats, n_segments=k_segments)


def coherency(cs: CrossSpectrum) -> CoherencyMatrix:
    """Normalize the cross-spectrum: C_ij = S_ij / sqrt(S_ii S_jj)."""
    power = np.einsum("fii->fi", cs.mats).real
    bad = np.argwhere(power <= 0.0)
    if bad.size:
        f_idx, ch = bad[0]
        raise ZeroPowerChannel(
            f"channel {ch} has zero power at {cs.freqs[f_idx]:.6g} Hz"
        )
    # One bin at a time, so no temporary spans the whole stack.
    mats = np.empty_like(cs.mats)
    for out, s, p in zip(mats, cs.mats, power):
        np.divide(s, np.sqrt(p[:, None] * p[None, :]), out=out)
        # Clamp rounding spill past unit magnitude, then pin the diagonal.
        mag = np.abs(out)
        np.divide(out, mag, out=out, where=mag > 1.0)
        np.fill_diagonal(out, 1.0)
    return CoherencyMatrix(freqs=cs.freqs, mats=mats)


_BUTTERWORTH_ORDER = 4


def _butterworth_bandpass_gain(freqs: np.ndarray, band: Band) -> np.ndarray:
    """Zero-phase (forward-backward) band-pass amplitude response.

    Squared-magnitude response of an analog Butterworth band-pass of order
    ``_BUTTERWORTH_ORDER``, i.e. the effective gain of filtering forward then backward.
    """
    f = np.abs(freqs)
    gain = np.zeros_like(f)
    nz = f > 0
    xi = (f[nz] ** 2 - band.lo * band.hi) / (f[nz] * (band.hi - band.lo))
    gain[nz] = 1.0 / (1.0 + xi ** (2 * _BUTTERWORTH_ORDER))
    return gain


def bandpass_analytic(rec: MultichannelRecord, band: Band) -> AnalyticRecord:
    """Band-pass a record (zero phase) and take its analytic signal.

    Filtering happens in the frequency domain with a Butterworth magnitude
    response applied forward-backward; the analytic signal zeroes negative
    frequencies and doubles positive ones. Phase is the angle wrapped to
    (-pi, pi], envelope the magnitude.
    """
    nyquist = rec.fs / 2.0
    if not 0.0 < band.lo < band.hi < nyquist:
        raise BandOutOfRange(f"band ({band.lo}, {band.hi}) outside (0, {nyquist})")
    n = rec.n_samples
    spec = np.fft.fft(rec.data, axis=1)
    freqs = np.fft.fftfreq(n, d=1.0 / rec.fs)
    gain = _butterworth_bandpass_gain(freqs, band)

    # Analytic-signal multiplier: keep DC and Nyquist as-is, double the
    # positive frequencies, zero the negative ones.
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[1 : n // 2] = 2.0
        h[n // 2] = 1.0
    else:
        h[1 : (n + 1) // 2] = 2.0

    analytic = np.fft.ifft(spec * (gain * h), axis=1)
    phase = np.angle(analytic)
    np.copyto(phase, np.pi, where=phase == -np.pi)
    return AnalyticRecord(
        phase=phase, envelope=np.abs(analytic), fs=rec.fs, band=band
    )


def band_slice(freqs: np.ndarray, band: Band) -> np.ndarray:
    """Indices of frequency bins with lo <= f <= hi; never empty."""
    freqs = np.asarray(freqs, dtype=float)
    idx = np.nonzero((freqs >= band.lo) & (freqs <= band.hi))[0]
    if idx.size == 0:
        grid = f"[{freqs[0]:.4g}, {freqs[-1]:.4g}] Hz" if freqs.size else "an empty grid"
        raise EmptyBand(f"band {band.name} ({band.lo}, {band.hi}) Hz selects no bins on {grid}")
    return idx
