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
    EmptyBand,
    FewSegmentsWarning,
    InvalidData,
    TooFewSegments,
    ZeroPowerChannel,
    check_field_types,
    check_number,
    check_rate,
    frozen_field,
)
from .forward import MultichannelRecord, _row_blocks

# Averaging fewer segments than this is allowed but flagged as a diagnostic.
RECOMMENDED_MIN_SEGMENTS = 20


@dataclass(frozen=True)
class Band:
    """A named frequency band [lo, hi] in Hz.

    The name labels result rows and output file names, so it must be a
    non-empty string free of path separators and NUL.
    """

    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.name or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"band name must be non-empty, without '/', '\\' or NUL, "
                             f"got {self.name!r}")
        if not 0.0 < self.lo < self.hi < np.inf:
            raise ValueError(f"band {self.name}: need 0 < lo < hi < inf, "
                             f"got ({self.lo}, {self.hi})")


# Default analysis bands, aligned with the 0.390625 Hz grid of
# 512-sample segments at fs = 200 (bins 3..49 span 1.17..19.14 Hz).
DEFAULT_BANDS: tuple[Band, ...] = (
    Band("delta", 1.17, 4.0),
    Band("theta", 4.0, 8.0),
    Band("alpha", 8.0, 13.0),
    Band("beta", 13.0, 19.15),
)
ALPHA = DEFAULT_BANDS[2]


def _frequency_stack(obj) -> np.ndarray:
    """Freeze and check ``obj.freqs`` and ``obj.mats``, and return ``mats``: one
    square matrix per frequency, frequencies strictly increasing.
    """
    freqs = frozen_field(obj, "freqs", ndim=1)
    mats = frozen_field(obj, "mats", dtype=complex, ndim=3)
    if mats.shape[1] != mats.shape[2]:
        raise InvalidData("mats must be (n_freqs, n, n)")
    if freqs.shape != (mats.shape[0],):
        raise InvalidData("freqs length must match mats")
    if np.any(freqs[1:] <= freqs[:-1]):
        raise InvalidData("freqs must be strictly increasing")
    return mats


@dataclass(frozen=True)
class CrossSpectrum:
    """Per-frequency Hermitian channel x channel matrices."""

    freqs: np.ndarray = field(repr=False)  # (n_freqs,)
    mats: np.ndarray = field(repr=False)  # (n_freqs, n_ch, n_ch) complex
    n_segments: int

    def __post_init__(self) -> None:
        mats = _frequency_stack(self)
        # One bin at a time keeps the temporaries small.
        herm = np.max([np.max(np.abs(m - m.conj().T)) for m in mats]) if mats.size else 0.0
        if herm > 1e-10:
            raise InvalidData(f"matrices not Hermitian (max deviation {herm:.3g})")
        diag = np.einsum("fii->fi", mats)
        if np.any(diag.real < 0) or np.max(np.abs(diag.imag), initial=0.0) > 1e-10:
            raise InvalidData("diagonal must be real and non-negative")
        if check_number("n_segments", self.n_segments, "int", InvalidData) < 1:
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
        mats = _frequency_stack(self)
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
        check_rate(self.fs)
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

    Fewer than ``RECOMMENDED_MIN_SEGMENTS`` segments give a ``FewSegmentsWarning``.
    """
    cs = _bartlett_spectrum(rec, segment_samples, band)
    if cs.n_segments < RECOMMENDED_MIN_SEGMENTS:
        warnings.warn(f"averaging only {cs.n_segments} segments "
                      f"(< {RECOMMENDED_MIN_SEGMENTS})", FewSegmentsWarning, stacklevel=2)
    return cs


def _bartlett_spectrum(rec: MultichannelRecord, segment_samples: int, band: Band | None
                       ) -> CrossSpectrum:
    """``bartlett_cross_spectrum`` without its warning, for callers in threads: silencing
    a warning for one call takes ``warnings.catch_warnings``, which is not thread-safe."""
    n_ch, n_samples = rec.data.shape
    k_segments, freqs, first = _bartlett_bins(segment_samples, n_samples, rec.fs, band)
    n = segment_samples
    # (bin, channel, segment), segments contiguous for the reduction below. Mean
    # removal and transform work row by row, so blocks of channels give the bits
    # of the whole record while only the kept bins of all channels are held.
    spec = np.empty((freqs.size, n_ch, k_segments), dtype=complex)
    kept = slice(first, first + freqs.size)
    for rows in _row_blocks(n_ch, 16 * k_segments * (n // 2 + 1)):
        segs = rec.data[rows, : k_segments * n].reshape(-1, k_segments, n)
        segs = segs - segs.mean(axis=2, keepdims=True)
        spec[:, rows] = np.fft.rfft(segs, axis=2)[:, :, kept].transpose(2, 0, 1)
    # Plain einsum (no BLAS) sums the segments in order, as a running sum
    # over segments would; a BLAS product rounds differently and is not
    # exactly Hermitian.
    mats = np.einsum("fck,fdk->fcd", spec, spec.conj())
    mats *= 2.0 / (k_segments * n * n)
    return CrossSpectrum(freqs=freqs, mats=mats, n_segments=k_segments)


def _check_segment(segment_samples: int) -> None:
    """ValueError unless ``segment_samples`` is an even integer of at least 4."""
    if check_number("segment_samples", segment_samples, "integral") < 4 or segment_samples % 2:
        raise ValueError("segment_samples must be even and >= 4")


def _bartlett_bins(segment_samples: int, n_samples: int, fs: float, band: Band | None = None
                   ) -> tuple[int, np.ndarray, int]:
    """Bartlett's argument rules: the segment's form, two segments in ``n_samples``
    (TooFewSegments) and a bin in ``band`` (EmptyBand). Returns the segment count,
    the frequencies kept (all but DC and Nyquist, or the band's) and the first's index."""
    _check_segment(segment_samples)
    k_segments = n_samples // int(segment_samples)  # an int, as CrossSpectrum takes
    if k_segments < 2:
        raise TooFewSegments(f"{n_samples} samples hold {k_segments} segment(s) of "
                             f"{segment_samples}; need >= 2")
    freqs = np.arange(1, segment_samples // 2) * (fs / segment_samples)
    idx = [0, freqs.size - 1] if band is None else band_slice(freqs, band)
    return k_segments, freqs[idx[0] : idx[-1] + 1], 1 + idx[0]


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


def _check_below_nyquist(band: Band, fs: float) -> None:
    """ValueError unless ``band`` lies below ``fs``'s Nyquist; ``Band`` keeps 0 < lo < hi < inf."""
    if band.hi >= fs / 2.0:
        raise ValueError(f"band {band.name} exceeds Nyquist ({fs / 2.0} Hz)")


def bandpass_analytic(rec: MultichannelRecord, band: Band) -> AnalyticRecord:
    """Band-pass a record (zero phase) and take its analytic signal.

    Filtering happens in the frequency domain with a Butterworth magnitude
    response applied forward-backward; the analytic signal zeroes negative
    frequencies and doubles positive ones. Phase is the angle wrapped to
    (-pi, pi], envelope the magnitude. The record is left as it is.
    """
    return _bandpass_analytic(rec, band, None)


def _bandpass_analytic(rec: MultichannelRecord, band: Band, phase: np.ndarray | None
                       ) -> AnalyticRecord:
    """``bandpass_analytic(rec, band)`` with the phase written into ``phase``, or into a
    new array when it is None.

    ``phase`` may be the writable array under ``rec.data``, which is then overwritten:
    each row block is transformed before its phase is written, and no later block
    reads those rows. The caller must own that array alone.
    """
    _check_below_nyquist(band, rec.fs)
    n_ch, n = rec.data.shape
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
    gain *= h

    # Each row's transforms are independent of the others', so blocks of rows
    # give the whole record's bits while no whole-record complex array exists.
    # Two complex arrays of a block live at once (the transform's input cast and
    # its output, then the spectrum and the analytic signal), so together they
    # come to about one block's bytes.
    phase = np.empty((n_ch, n)) if phase is None else phase
    envelope = np.empty((n_ch, n))
    for rows in _row_blocks(n_ch, 2 * 16 * n):
        spec = np.fft.fft(rec.data[rows], axis=1)
        spec *= gain
        analytic = np.fft.ifft(spec, axis=1)
        del spec
        # np.angle's definition, written into the block of ``phase``.
        np.arctan2(analytic.imag, analytic.real, out=phase[rows])
        np.abs(analytic, out=envelope[rows])
        del analytic  # before the next block's transform
    np.copyto(phase, np.pi, where=phase == -np.pi)
    return AnalyticRecord(phase=phase, envelope=envelope, fs=rec.fs, band=band)


def band_slice(freqs: np.ndarray, band: Band) -> np.ndarray:
    """Indices of frequency bins with lo <= f <= hi; never empty."""
    freqs = np.asarray(freqs, dtype=float)
    idx = np.nonzero((freqs >= band.lo) & (freqs <= band.hi))[0]
    if idx.size == 0:
        grid = f"[{freqs[0]:.4g}, {freqs[-1]:.4g}] Hz" if freqs.size else "an empty grid"
        raise EmptyBand(f"band {band.name} ({band.lo}, {band.hi}) Hz selects no bins on {grid}")
    return idx
