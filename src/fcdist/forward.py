"""Source assembly and forward projection to scalp channels.

Cortical activity is modelled as a stack of source rows; a gain matrix
maps sources to electrodes (scalp record = gain @ sources). Only the
active rows are held explicitly. The i.i.d. Gaussian fill of the other
sources reaches the scalp as G_n @ Z, which is Gaussian with channel
covariance sigma^2 G_n G_n^T and white in time, so it is drawn in channel
space at projection instead of source by source. Generators here are pure
functions of their arguments: same arguments, bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BandOutOfRange,
    EmptyRequest,
    InsufficientLibrary,
    InsufficientSamples,
    InvalidData,
    ShapeMismatch,
    frozen_field,
)
from .montages import Montage, get_montage

# Softening constant and power of the distance gain surrogate
# 1 / (eps + d^2)^power.
_GAIN_EPS = 0.7
_GAIN_POWER = 3


@dataclass(frozen=True)
class SourceLibrary:
    """Pool of candidate source time courses, one row per source."""

    data: np.ndarray = field(repr=False)  # (n_library, n_samples)
    fs: float
    origin: str = "synthetic"

    def __post_init__(self) -> None:
        data = frozen_field(self, "data", ndim=2)
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise InvalidData("library must hold at least one row and one sample")
        if not 0 < self.fs < np.inf:
            raise InvalidData("fs must be positive and finite")

    @property
    def n_library(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SourceActivity:
    """Dipole activity: explicit rows plus a described Gaussian fill.

    ``data`` holds the explicit rows, which sit at gain columns ``columns``
    (default 0..n-1) of an ``n_sources``-dipole space (default: the explicit
    rows only). Every other source carries i.i.d. N(0, noise_sigma^2) fill,
    which is not stored: ``project_to_scalp`` draws it in channel space from
    ``noise_seed``. A hand-built ``SourceActivity(data, fs)`` has every row
    explicit and no fill.
    """

    data: np.ndarray = field(repr=False)  # (n_explicit, n_samples)
    fs: float
    columns: np.ndarray | None = field(default=None, repr=False)  # (n_explicit,)
    n_sources: int | None = None
    noise_sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        data = frozen_field(self, "data", ndim=2)
        n_rows = data.shape[0]
        if self.columns is None:
            object.__setattr__(self, "columns", np.arange(n_rows))
        columns = frozen_field(self, "columns", dtype=np.intp, ndim=1)
        if self.n_sources is None:
            object.__setattr__(self, "n_sources", n_rows)
        if self.n_sources < 1 or data.shape[1] < 1:
            raise InvalidData("need at least one source and one sample")
        if not 0 < self.fs < np.inf:
            raise InvalidData("fs must be positive and finite")
        if columns.size != n_rows:
            raise InvalidData("one gain column per explicit row required")
        if n_rows and (columns.min() < 0 or columns.max() >= self.n_sources
                       or np.unique(columns).size != n_rows):
            raise InvalidData("columns must be distinct and lie in [0, n_sources)")
        if not 0 <= self.noise_sigma < np.inf:
            raise InvalidData("noise_sigma must be non-negative and finite")
        if self.noise_seed < 0:
            raise InvalidData("noise_seed must be non-negative")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LeadField:
    """Gain matrix binding a montage to a source space."""

    gain: np.ndarray = field(repr=False)  # (n_channels, n_sources)
    montage: str
    channel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        gain = frozen_field(self, "gain", ndim=2)
        if gain.shape[0] != len(self.channel_names):
            raise InvalidData("one channel name per gain row required")
        if np.any(np.all(gain == 0.0, axis=1)):
            raise InvalidData("gain matrix has an all-zero row")
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def n_channels(self) -> int:
        return self.gain.shape[0]

    @property
    def n_sources(self) -> int:
        return self.gain.shape[1]


@dataclass(frozen=True)
class MultichannelRecord:
    """Scalp-level multichannel time series."""

    data: np.ndarray = field(repr=False)  # (n_channels, n_samples)
    fs: float
    channel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        data = frozen_field(self, "data", ndim=2)
        if not 0 < self.fs < np.inf:
            raise InvalidData("fs must be positive and finite")
        if data.shape[0] != len(self.channel_names):
            raise InvalidData("one channel name per row required")
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def _spectral_noise(rng: np.random.Generator, amplitude: np.ndarray, n_samples: int) -> np.ndarray:
    """Stationary Gaussian noise with the given one-sided amplitude shape.

    Synthesized in the frequency domain (random phases), so circular
    shifts of the result are statistically equivalent to the original.
    """
    n_bins = amplitude.shape[0]
    coeff = amplitude * (rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins))
    coeff[0] = 0.0
    x = np.fft.irfft(coeff, n=n_samples)
    sd = x.std()
    if sd > 0:
        x /= sd
    return x


def _resonator_amplitude(freqs: np.ndarray, f0: float, q: float) -> np.ndarray:
    """Second-order resonator magnitude centred on f0."""
    ratio = freqs / f0
    return 1.0 / np.sqrt((1.0 - ratio**2) ** 2 + (ratio / q) ** 2)


def generate_synthetic_sources(
    n_sources: int,
    n_samples: int,
    fs: float,
    alpha_hz: float = 10.0,
    seed: int = 0,
) -> SourceLibrary:
    """Build a library of rhythm-bearing source time courses.

    The model imitates resting cortical activity. Every row carries a steep
    1/f-like background and a narrowband rhythm near ``alpha_hz``: strong
    in a sparse, per-call random fraction of rows, weak in the rest. Part of
    each row's rhythm is its own (individual peak frequency and bandwidth
    per row); the rest is the rhythm of one of a few independent networks
    (4 to 10 per call, each row joining one at random), delayed by a
    per-row circular time lag of up to half a cycle. Rows of one network
    are therefore lag-coupled and rows of different networks independent,
    so lagged coupling raises the weights of the channel pairs that span a
    network instead of lifting every pair as one global rhythm would. The
    rhythmic fraction and the coupling strength (the share of a rhythmic
    row's rhythm that comes from its network; half for the other rows) are
    drawn per call, so different seeds span a range of overall coupling
    levels. Deterministic in ``seed``.
    """
    if n_sources < 1:
        raise EmptyRequest("n_sources must be >= 1")
    if n_samples < 4:
        raise ValueError("n_samples must be >= 4")
    if not 0.0 < alpha_hz < fs / 2.0:
        raise BandOutOfRange(f"alpha_hz={alpha_hz} outside (0, {fs / 2.0})")

    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs)

    # Background: power ~ 1/(f + 1)^1.7, flattened below ~1 Hz.
    background_amp = (freqs + 1.0) ** -0.85

    # Library-level character, drawn once per call: fraction of rows with a
    # strong rhythm, number of networks, and the coupling strength.
    rhythm_fraction = rng.uniform(0.03, 0.22)
    n_networks = int(rng.integers(4, 11))
    coupling = rng.uniform(0.2, 0.8)

    # Network rhythms: narrowband, peaks placed well inside the band so
    # their energy stays within +/-25% of alpha_hz.
    networks = [
        _spectral_noise(
            rng, _resonator_amplitude(freqs, alpha_hz * rng.uniform(0.93, 1.17), q=16.0),
            n_samples,
        )
        for _ in range(n_networks)
    ]

    # Per-row mixture: rhythmic rows get most of their variance from the
    # rhythm, background rows almost none. The rhythmic rows form a leading
    # block (at least one, so a 1-row library still peaks at alpha_hz);
    # downstream assembly shuffles row order anyway.
    n_rhythmic = max(1, int(round(rhythm_fraction * n_sources)))
    rhythmic = np.arange(n_sources) < n_rhythmic
    t = np.where(
        rhythmic,
        rng.uniform(0.75, 0.95, size=n_sources),
        rng.uniform(0.002, 0.05, size=n_sources),
    )
    # Network share of each row's rhythm: the drawn coupling for rhythmic
    # rows, half of the weak rhythm for background rows.
    v = np.where(rhythmic, coupling, 0.5) * t
    member = rng.integers(0, n_networks, size=n_sources)
    cycle = max(fs / alpha_hz, 2.0)
    max_lag = max(int(round(0.5 * cycle)), 1)
    lags = rng.integers(-max_lag, max_lag + 1, size=n_sources)
    q_private = np.exp(rng.uniform(np.log(6.0), np.log(20.0), size=n_sources))
    f_private = alpha_hz * rng.uniform(0.85, 1.22, size=n_sources)

    data = np.empty((n_sources, n_samples))
    for k in range(n_sources):
        row = np.sqrt(1.0 - t[k]) * _spectral_noise(rng, background_amp, n_samples)
        row += np.sqrt(t[k] - v[k]) * _spectral_noise(
            rng, _resonator_amplitude(freqs, f_private[k], q_private[k]), n_samples
        )
        row += np.sqrt(v[k]) * np.roll(networks[member[k]], int(lags[k]))
        data[k] = row
    return SourceLibrary(data=data, fs=fs, origin=f"synthetic(seed={seed})")


def assemble_source_activity(
    library: SourceLibrary,
    n_total: int,
    n_active: int,
    noise_sigma: float,
    n_samples: int,
    seed: int = 0,
) -> SourceActivity:
    """Place active library rows among ``n_total`` sources; describe the fill.

    Exactly ``n_active`` distinct library rows are selected, truncated to
    ``n_samples`` and normalized to unit sample variance, and placed at
    seed-determined source positions (the head of a permutation of
    ``n_total``). The remaining ``n_total - n_active`` sources are i.i.d.
    zero-mean Gaussian with standard deviation ``noise_sigma``; they are
    not drawn here but at projection, in channel space, with covariance
    noise_sigma^2 G_n G_n^T and a seed taken from the same stream.
    """
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    if not 0 <= n_active <= n_total:
        raise ValueError("need 0 <= n_active <= n_total")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if n_active > library.n_library:
        raise InsufficientLibrary(
            f"requested {n_active} active sources from a {library.n_library}-row library"
        )
    if n_samples > library.n_samples:
        raise InsufficientSamples(
            f"requested {n_samples} samples; library rows hold {library.n_samples}"
        )
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    rng = np.random.default_rng(seed)
    chosen = rng.choice(library.n_library, size=n_active, replace=False)
    order = rng.permutation(n_total)
    noise_seed = int(rng.integers(2**63))

    # Indexing already copies. The second copy stays: without it, glibc's dynamic mmap
    # threshold left a worker that runs a 19- then a 64-channel cell 7 MB larger at peak.
    active = library.data[chosen, :n_samples].copy()
    sd = active.std(axis=1, keepdims=True)
    if np.any(sd == 0):
        raise InvalidData("selected library rows include a constant row")
    active /= sd
    return SourceActivity(data=active, fs=library.fs, columns=order[:n_active],
                          n_sources=n_total, noise_sigma=noise_sigma, noise_seed=noise_seed)


def generate_synthetic_leadfield(
    montage: str | int | Montage,
    n_sources: int,
    seed: int = 0,
) -> LeadField:
    """Distance-based stand-in for a boundary-element gain matrix.

    Sources are placed at random on a cortex-like shell (radius 0.75 to
    0.95 of the head radius) under the upper hemisphere that the electrode
    layouts cover, uniformly over the cap z >= 0. The gain from source s to
    electrode e is 1 / (eps + |e - s|^2)^3 with eps = 0.7, and every
    channel row is scaled to unit maximum: near its peak this is a bump of
    width ~sqrt(eps / 6) = 0.34 head radii, the blur of the skull, and far
    away it falls off as |e - s|^-6, so a source reaches its neighbourhood
    but not the whole scalp. Dense, strictly positive, and spatially
    smooth: nearby electrodes get correlated gain rows, the
    volume-conduction surrogate.
    """
    if n_sources < 1:
        raise EmptyRequest("n_sources must be >= 1")
    m = get_montage(montage)
    rng = np.random.default_rng(seed)

    # Uniform on the cap z >= 0: z uniform on [0, 1] (Archimedes), azimuth
    # uniform.
    z = rng.uniform(0.0, 1.0, n_sources)
    azimuth = rng.uniform(0.0, 2.0 * np.pi, n_sources)
    horizontal = np.sqrt(1.0 - z * z)
    direction = np.stack(
        [horizontal * np.cos(azimuth), horizontal * np.sin(azimuth), z], axis=1
    )
    radius = rng.uniform(0.75, 0.95, n_sources)
    points = direction * radius[:, None]

    # Squared distances |e|^2 + |s|^2 - 2 e.s, one matrix product instead of
    # an (n_channels, n_sources, 3) difference array.
    e = m.positions
    dist2 = np.sum(e * e, axis=1)[:, None] + np.sum(points * points, axis=1) - 2.0 * e @ points.T
    gain = (_GAIN_EPS + dist2) ** -_GAIN_POWER
    gain /= gain.max(axis=1, keepdims=True)
    return LeadField(gain=gain, montage=m.label, channel_names=m.names)


def project_to_scalp(lf: LeadField, src: SourceActivity) -> MultichannelRecord:
    """Forward solution: scalp record = gain @ source activity.

    The explicit rows project through their gain columns. The fill of the
    other columns G_n is added as noise_sigma * S @ z, where S is the
    symmetric square root of G_n G_n^T (from ``eigh``, eigenvalues clipped
    at 0, so a rank-deficient gain is fine) and z an (n_channels, n_samples)
    standard-normal draw seeded from ``noise_seed``: the same distribution
    as projecting the fill sources one by one.
    """
    if lf.n_sources != src.n_sources:
        raise ShapeMismatch(
            f"lead field has {lf.n_sources} sources, activity has {src.n_sources}"
        )
    data = lf.gain[:, src.columns] @ src.data
    if src.noise_sigma > 0 and src.columns.size < src.n_sources:
        fill = np.delete(lf.gain, src.columns, axis=1)
        w, v = np.linalg.eigh(fill @ fill.T)
        root = (v * (src.noise_sigma * np.sqrt(np.clip(w, 0.0, None)))) @ v.T
        z = np.random.default_rng(src.noise_seed).standard_normal((lf.n_channels, src.n_samples))
        data += root @ z
    return MultichannelRecord(
        data=data,
        fs=src.fs,
        channel_names=lf.channel_names,
    )
