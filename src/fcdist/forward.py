"""Source assembly and forward projection to scalp channels.

Cortical activity is modelled as a stack of source rows; a gain matrix
maps sources to electrodes (scalp record = gain @ sources). Only the
active rows are held explicitly. The i.i.d. Gaussian fill of the other
sources reaches the scalp as G_n @ Z, which is Gaussian with channel
covariance sigma^2 G_n G_n^T and white in time, so it is drawn in channel
space at projection instead of source by source. Generators here are pure
functions of their arguments: same arguments, bit-identical output.

A synthetic cell's sources come from ``synthetic_source_activity``, which
equals ``assemble_source_activity(generate_synthetic_sources(...))`` bit for
bit without holding the library: the two paths share one row synthesis, one
set of assembly draws and one normalisation. A grid cell hands the projection
a maker of its activity, so the active rows are freed once projected, before
the fill is drawn.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import (
    InsufficientLibrary,
    InsufficientSamples,
    InvalidData,
    ShapeMismatch,
    check_number,
    check_rate,
    frozen_field,
)
from .montages import Montage, get_montage

# Softening constant and power of the distance gain surrogate
# 1 / (eps + d^2)^power.
_GAIN_EPS = 0.7
_GAIN_POWER = 3

# Size of one row block. Whole-record steps that work a block of rows at a
# time hold temporaries of this size, not of the whole record.
_BLOCK_BYTES = 2 << 20


def _row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive row slices covering ``n_rows`` rows, each about ``_BLOCK_BYTES``."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


@lru_cache(maxsize=1)
def _openblas_thread_calls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count functions of each OpenBLAS mapped into this process
    (Linux), looked up once; empty where none is found, and BLAS keeps its default."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return ()
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            pair = tuple(getattr(lib, name.format(op), None) for op in ("get", "set"))
            if all(pair):
                calls.append(pair)
                break
    return tuple(calls)


def _blas_threads() -> list[int]:
    """The thread count of each OpenBLAS in this process."""
    return [get() for get, _ in _openblas_thread_calls()]


# A cell makes many small BLAS calls, and a second BLAS thread only spins between
# them: on a 2-vCPU x86 VM it nearly doubled a 128-channel cell's CPU time without
# shortening it, and in a pool, whose workers already use the cores, it cost a
# 2-worker grid about half its throughput. So each function that does BLAS work is
# run inside this block, and gives the caller its count back. The count is one per
# process, so threads that all set and restore it would race; a library already at
# one thread is left alone, and a block inside another block then changes nothing.
# Setting a count, even to one, restarts OpenBLAS's thread pool in a forked child.
@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Every OpenBLAS in this process at one thread in the block; each library this
    block changed gets its count back on any exit."""
    changed = [(set_threads, n) for get, set_threads in _openblas_thread_calls()
               if (n := get()) != 1]
    for set_threads, _ in changed:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, n in changed:
            set_threads(n)


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
        check_rate(self.fs)

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
        check_number("n_sources", self.n_sources, "int", InvalidData)
        check_number("noise_sigma", self.noise_sigma, "float", InvalidData)
        check_number("noise_seed", self.noise_seed, "int", InvalidData)
        if self.n_sources < 1 or data.shape[1] < 1:
            raise InvalidData("need at least one source and one sample")
        check_rate(self.fs)
        if columns.size != n_rows:
            raise InvalidData("one gain column per explicit row required")
        if n_rows and (columns.min() < 0 or columns.max() >= self.n_sources
                       or np.bincount(columns).max() > 1):
            raise InvalidData("columns must be distinct and lie in [0, n_sources)")
        _check_noise_sigma(self.noise_sigma, InvalidData)
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
        check_rate(self.fs)
        if data.shape[0] != len(self.channel_names):
            raise InvalidData("one channel name per row required")
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def _spectral_rows(rng: np.random.Generator, amp: np.ndarray, n_samples: int) -> np.ndarray:
    """Stationary Gaussian noise rows; row k has one-sided amplitude shape ``amp[k]`` > 0.

    Coefficients amp * (a + ib), a and b standard normal, DC zeroed, so
    circular shifts of a row are statistically equivalent to the row. One
    (rows, 2, n_bins) draw, real then imaginary parts row by row: the
    stream of one row at a time.
    """
    z = rng.standard_normal((amp.shape[0], 2, amp.shape[1]))
    coeff = np.empty(amp.shape, dtype=complex)
    np.multiply(amp, z[:, 0], out=coeff.real)
    np.multiply(amp, z[:, 1], out=coeff.imag)
    coeff[:, 0] = 0.0
    del amp, z  # callers pass amp as a temporary, so CPython 3.11+ frees it here
    return np.fft.irfft(coeff, n=n_samples)


def _resonator_denominator(freqs: np.ndarray, f0: float, q: float) -> np.ndarray:
    """Inverse squared magnitude of a second-order resonator centred on f0."""
    ratio = freqs / f0
    return (1.0 - ratio**2) ** 2 + (ratio / q) ** 2


def _check_synthetic(n_sources: int, n_samples: int, fs: float, alpha_hz: float | None) -> None:
    """The arguments of ``generate_synthetic_sources``, in order; None skips ``alpha_hz``."""
    check_rate(fs, ValueError)
    if n_sources < 1:
        raise ValueError("n_sources must be >= 1")
    if n_samples < 4:
        raise ValueError("n_samples must be >= 4")
    if alpha_hz is not None and not 0.0 < alpha_hz < fs / 2.0:
        raise ValueError(f"alpha_hz={alpha_hz} outside (0, {fs / 2.0})")


def _check_noise_sigma(noise_sigma: float, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless the fill's ``noise_sigma`` is non-negative and finite."""
    if not 0 <= noise_sigma < np.inf:
        raise error("noise_sigma must be non-negative and finite")


def _synthesize_rows(out: np.ndarray, slots: np.ndarray, fs: float, alpha_hz: float,
                     seed: int) -> None:
    """Write row k of the synthetic library into ``out[slots[k]]``.

    The library, and its model, is ``generate_synthetic_sources(slots.size,
    out.shape[1], fs, alpha_hz, seed)``, whose arguments the caller has
    checked with ``_check_synthetic``. Rows are synthesized a block at a
    time, each temporary about a quarter of ``_BLOCK_BYTES``; the random
    stream, and so every bit, is that of one row at a time.
    """
    n_sources, n_samples = slots.size, out.shape[1]
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs)

    # Background: power ~ 1/(f + 1)^1.7, flattened below ~1 Hz.
    background_power = (freqs + 1.0) ** -1.7

    # Library-level character, drawn once per call: fraction of rows with a
    # strong rhythm, number of networks, and the coupling strength.
    rhythm_fraction = rng.uniform(0.03, 0.22)
    n_networks = int(rng.integers(4, 11))
    coupling = rng.uniform(0.2, 0.8)

    # Network rhythms: narrowband, peaks placed well inside the band so
    # their energy stays within +/-25% of alpha_hz.
    networks = []
    for _ in range(n_networks):
        f0 = alpha_hz * rng.uniform(0.93, 1.17)
        x = _spectral_rows(rng, 1.0 / np.sqrt(_resonator_denominator(freqs[None], f0, 16.0)),
                           n_samples)[0]
        networks.append(x / x.std())

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

    # One spectral draw and irfft per row for background plus private rhythm.
    # Expected irfft variance per unit power of coefficients sqrt(p) (a + ib),
    # a, b standard normal: 4/n^2 on interior bins, 1/n^2 on an even-n
    # Nyquist bin (real part only), 0 on the zeroed DC bin.
    n_bins = freqs.shape[0]
    weights = np.full(n_bins, 4.0 / n_samples**2)
    weights[0] = 0.0
    if n_samples % 2 == 0:
        weights[-1] = 1.0 / n_samples**2
    background_scale = (1.0 - t) / np.sum(background_power * weights)

    def amplitude(rows: slice) -> np.ndarray:
        private_power = 1.0 / _resonator_denominator(freqs, f_private[rows, None],
                                                      q_private[rows, None])
        private_scale = (t[rows] - v[rows]) / np.sum(private_power * weights, axis=1)
        return np.sqrt(background_scale[rows, None] * background_power
                       + private_scale[:, None] * private_power)

    # The largest per-row temporary is the complex spectrum, 16 bytes a bin.
    for rows in _row_blocks(n_sources, 4 * 16 * n_bins):
        block = _spectral_rows(rng, amplitude(rows), n_samples)
        # The network part, circularly delayed: np.roll as two slice adds.
        for row, k in zip(block, range(*rows.indices(n_sources))):
            shift = int(lags[k]) % n_samples
            part = np.sqrt(v[k])
            network = networks[member[k]]
            row[shift:] += part * network[:n_samples - shift]
            row[:shift] += part * network[n_samples - shift:]
        out[slots[rows]] = block


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
    levels. A row's background and private rhythm are one spectral draw
    (one ``irfft``) whose power gives each its expected share of the row's
    unit variance; the network rhythm is sample-normalized, so its share is
    exact. Deterministic in ``seed``.
    """
    _check_synthetic(n_sources, n_samples, fs, alpha_hz)
    data = np.empty((n_sources, n_samples))
    _synthesize_rows(data, np.arange(n_sources), fs, alpha_hz, seed)
    return SourceLibrary(data=data, fs=fs, origin=f"synthetic(seed={seed})")


def _assembly_draws(n_library: int, n_total: int, n_active: int, noise_sigma: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Check the assembly's counts; draw its chosen rows, source order and fill seed."""
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    if not 0 <= n_active <= n_total:
        raise ValueError("need 0 <= n_active <= n_total")
    _check_noise_sigma(noise_sigma)
    if n_active > n_library:
        raise InsufficientLibrary(
            f"requested {n_active} active sources from a {n_library}-row library"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n_library, size=n_active, replace=False)
    order = rng.permutation(n_total)
    noise_seed = int(rng.integers(2**63))
    return chosen, order, noise_seed


def _normalised_activity(active: np.ndarray, fs: float, order: np.ndarray, n_total: int,
                         noise_sigma: float, noise_seed: int) -> SourceActivity:
    """Scale the active rows to unit sample variance in place, a row block at a time."""
    for rows in _row_blocks(active.shape[0], 8 * active.shape[1]):
        sd = active[rows].std(axis=1, keepdims=True)
        if np.any(sd == 0):
            raise InvalidData("selected library rows include a constant row")
        active[rows] /= sd
    return SourceActivity(data=active, fs=fs, columns=order[:active.shape[0]],
                          n_sources=n_total, noise_sigma=noise_sigma, noise_seed=noise_seed)


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
    chosen, order, noise_seed = _assembly_draws(library.n_library, n_total, n_active,
                                                noise_sigma, seed)
    if n_samples > library.n_samples:
        raise InsufficientSamples(
            f"requested {n_samples} samples; library rows hold {library.n_samples}"
        )
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    active = library.data[chosen, :n_samples]  # indexing copies
    return _normalised_activity(active, library.fs, order, n_total, noise_sigma, noise_seed)


def synthetic_source_activity(
    n_total: int,
    n_active: int,
    noise_sigma: float,
    n_samples: int,
    fs: float,
    alpha_hz: float = 10.0,
    library_seed: int = 0,
    seed: int = 0,
) -> SourceActivity:
    """``assemble_source_activity`` of an ``n_active``-row synthetic library, bit for bit.

    Equal to ``assemble_source_activity(generate_synthetic_sources(n_active,
    n_samples, fs, alpha_hz, library_seed), n_total, n_active, noise_sigma,
    n_samples, seed)``, but no library is held: the assembly's draws come
    first, and each library row is written straight to the row the assembly
    would copy it to.
    """
    _check_synthetic(n_active, n_samples, fs, alpha_hz)
    chosen, order, noise_seed = _assembly_draws(n_active, n_total, n_active, noise_sigma, seed)
    # Every library row is chosen; library row chosen[i] becomes row i.
    active = np.empty((n_active, n_samples))
    _synthesize_rows(active, np.argsort(chosen), fs, alpha_hz, library_seed)
    return _normalised_activity(active, fs, order, n_total, noise_sigma, noise_seed)


@_one_blas_thread()
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
        raise ValueError("n_sources must be >= 1")
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
    as projecting the fill sources one by one. The explicit rows' product is
    formed first; the caller's ``src`` lives through the fill's draw.
    """
    return _project(lf, lambda: src)


@_one_blas_thread()
def _project(lf: LeadField, make_src: Callable[[], SourceActivity]) -> MultichannelRecord:
    """``project_to_scalp(lf, make_src())``, in which the activity lives only until its
    rows are projected.

    This frame makes the activity, so where no caller keeps it, its rows are freed
    before the fill's Gram matrix and draw exist. The fill is added after the
    explicit rows' product; IEEE addition commutes, so the sum has the bits of
    adding them in either order.
    """
    src = make_src()
    if lf.n_sources != src.n_sources:
        raise ShapeMismatch(
            f"lead field has {lf.n_sources} sources, activity has {src.n_sources}"
        )
    data = lf.gain[:, src.columns] @ src.data
    fs, columns, n_samples = src.fs, src.columns, src.n_samples
    noise_sigma, noise_seed = src.noise_sigma, src.noise_seed
    del src
    if noise_sigma > 0 and columns.size < lf.n_sources:
        fill = np.delete(lf.gain, columns, axis=1)
        w, v = np.linalg.eigh(fill @ fill.T)
        del fill
        root = (v * (noise_sigma * np.sqrt(np.clip(w, 0.0, None)))) @ v.T
        z = np.random.default_rng(noise_seed).standard_normal((lf.n_channels, n_samples))
        data += root @ z
    return MultichannelRecord(data=data, fs=fs, channel_names=lf.channel_names)
