"""Independent reference implementations used as test oracles.

Deliberately naive: plain loops, math.fsum, direct O(N^2) transforms, or
the earlier, slower forms of code that was later rewritten. Nothing here
calls the code paths under test; only fcdist's containers and errors are
imported.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from pathlib import Path

import numpy as np

from fcdist.errors import (
    CrossSpectrumFormatError,
    InsufficientLibrary,
    InsufficientSamples,
    InvalidData,
)
from fcdist.forward import MultichannelRecord, SourceActivity
from fcdist.spectral import AnalyticRecord, CoherencyMatrix, CrossSpectrum

# Chunk size (rows) for streaming noise-source generation. Fixed so the
# random stream, and therefore the output, never depends on memory layout.
_NOISE_CHUNK = 256


def naive_mean(xs) -> float:
    xs = list(map(float, xs))
    return math.fsum(xs) / len(xs)


def naive_skewness(xs) -> float:
    xs = list(map(float, xs))
    mu = naive_mean(xs)
    m2 = math.fsum((x - mu) ** 2 for x in xs) / len(xs)
    m3 = math.fsum((x - mu) ** 3 for x in xs) / len(xs)
    return m3 / m2**1.5


def naive_kurtosis(xs) -> float:
    xs = list(map(float, xs))
    mu = naive_mean(xs)
    m2 = math.fsum((x - mu) ** 2 for x in xs) / len(xs)
    m4 = math.fsum((x - mu) ** 4 for x in xs) / len(xs)
    return m4 / (m2 * m2)


def naive_entropy(xs, n_bins: int = 100) -> float:
    """Histogram entropy on [0, 1]; last bin closed, 0 log 0 = 0."""
    counts = [0] * n_bins
    for x in xs:
        b = int(x * n_bins)
        if b == n_bins:  # x == 1.0
            b -= 1
        counts[b] += 1
    n = len(list(xs))
    h = 0.0
    for c in counts:
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h / math.log2(n_bins)


def naive_matmul(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def naive_cross_spectrum(data, fs: float, segment_samples: int):
    """Averaged-periodogram cross-spectrum via an explicit O(N^2) DFT.

    Mirrors the contract: per-segment mean removal, bins k = 1..N/2-1,
    scale 2 / (K N^2). Returns (freqs, mats[n_freqs, n_ch, n_ch]).
    """
    data = np.asarray(data, dtype=float)
    n_ch, n_samples = data.shape
    n = segment_samples
    k_segments = n_samples // n
    bins = list(range(1, n // 2))
    mats = np.zeros((len(bins), n_ch, n_ch), dtype=complex)
    for s in range(k_segments):
        seg = data[:, s * n:(s + 1) * n]
        seg = [row - naive_mean(row) for row in seg]
        spectra = []
        for row in seg:
            x = []
            for k in bins:
                acc = 0j
                for t_idx in range(n):
                    acc += row[t_idx] * cmath.exp(-2j * math.pi * k * t_idx / n)
                x.append(acc)
            spectra.append(x)
        for bi in range(len(bins)):
            for i in range(n_ch):
                for j in range(n_ch):
                    mats[bi, i, j] += spectra[i][bi] * spectra[j][bi].conjugate()
    mats *= 2.0 / (k_segments * n * n)
    freqs = np.array([k * fs / n for k in bins])
    return freqs, mats


def segment_loop_cross_spectrum(data, fs: float, segment_samples: int):
    """Averaged-periodogram cross-spectrum, one segment at a time.

    The running-sum form of the estimator: per-segment mean removal, an
    rfft per segment, the per-bin outer products added segment by segment
    and scaled by 2 / (K N^2) at the end. Trailing samples that do not fill
    a segment are dropped. Returns (freqs, mats[n_freqs, n_ch, n_ch]).
    """
    data = np.asarray(data, dtype=float)
    n_ch, n_samples = data.shape
    n = segment_samples
    k_segments = n_samples // n
    acc = np.zeros((n // 2 - 1, n_ch, n_ch), dtype=complex)
    for s in range(k_segments):
        seg = data[:, s * n:(s + 1) * n]
        seg = seg - seg.mean(axis=1, keepdims=True)
        spec = np.fft.rfft(seg, axis=1)[:, 1:n // 2]
        acc += np.einsum("cf,df->fcd", spec, spec.conj())
    mats = acc * (2.0 / (k_segments * n * n))
    freqs = np.arange(1, n // 2) * (fs / n)
    return freqs, mats


def _pli_sign(d: float) -> int:
    """Sign of a phase difference wrapped to (-pi, pi]; |d| <= 1e-12 is 0."""
    d = d % (2.0 * math.pi)  # floor modulo, as np.mod
    if d > math.pi:
        d -= 2.0 * math.pi
    if abs(d) <= 1e-12:
        return 0
    return 1 if d > 0 else -1


def naive_pli(phase, win: int, step: int):
    """Phase-lag index by plain loops over pairs, windows and samples.

    Per window, |mean sign of phi_j - phi_i|; averaged over the full
    windows that start every ``step`` samples. Returns the symmetric
    weight matrix with a zero diagonal.
    """
    phase = np.asarray(phase, dtype=float)
    n_ch, n_samples = phase.shape
    starts = list(range(0, n_samples - win + 1, step))
    out = np.zeros((n_ch, n_ch))
    for i in range(n_ch):
        for j in range(i + 1, n_ch):
            total = 0.0
            for s in starts:
                net = 0
                for t in range(s, s + win):
                    net += _pli_sign(float(phase[j, t]) - float(phase[i, t]))
                total += abs(net / win)
            out[i, j] = out[j, i] = min(max(total / len(starts), 0.0), 1.0)
    return out


def rowloop_pli(phase, win: int, step: int):
    """Phase-lag index with one vectorized wrapped difference per channel row.

    Same rule as ``naive_pli``; the speed baseline for the sine-sign kernel.
    """
    phase = np.asarray(phase, dtype=float)
    n_ch, n_samples = phase.shape
    starts = range(0, n_samples - win + 1, step)
    acc = np.zeros((n_ch, n_ch))
    for s in starts:
        ph = phase[:, s:s + win]
        for i in range(n_ch - 1):
            d = np.mod(ph[i + 1:] - ph[i], 2.0 * np.pi)
            d[d > np.pi] -= 2.0 * np.pi
            signs = np.sign(d)
            signs[np.abs(d) <= 1e-12] = 0.0
            acc[i, i + 1:] += np.abs(signs.mean(axis=1))
    upper = np.triu(np.clip(acc / len(starts), 0.0, 1.0), 1)
    return upper + upper.T


def sincos_pli(phase, win: int, step: int):
    """Phase-lag index from the signs of sin(phi_j - phi_i).

    The sine is formed as sin phi_j cos phi_i - cos phi_j sin phi_i from
    sines and cosines computed once; a sine beyond +-1e-9 gives the sign,
    and a pair-window with any sample inside that margin is counted again
    from the wrapped difference with the 1e-12 tie rule. Same rule as
    ``naive_pli``; the speed baseline for the integer-phase kernel.
    """
    phase = np.asarray(phase, dtype=float)
    n, n_samples = phase.shape
    margin, tie, two_pi = 1e-9, 1e-12, 2.0 * np.pi
    sin, cos = np.sin(phase), np.cos(phase)
    acc = np.zeros((n, n))
    x = np.empty((n, win))
    y = np.empty_like(x)
    above = np.empty(x.shape, dtype=bool)
    below = np.empty_like(above)
    signs = np.empty(x.shape, dtype=np.int8)
    starts = range(0, n_samples - win + 1, step)
    for s in starts:
        t = slice(s, s + win)
        sin_w, cos_w = sin[:, t].copy(), cos[:, t].copy()
        for i in range(n - 1):
            rows = slice(0, n - 1 - i)
            np.multiply(sin_w[i + 1:], cos_w[i], out=x[rows])
            np.multiply(cos_w[i + 1:], sin_w[i], out=y[rows])
            np.subtract(x[rows], y[rows], out=x[rows])
            np.greater(x[rows], margin, out=above[rows])
            np.less(x[rows], -margin, out=below[rows])
            sg = np.subtract(above[rows].view(np.int8), below[rows].view(np.int8), out=signs[rows])
            net = np.add.reduce(sg, axis=1, dtype=np.intp)
            if np.count_nonzero(sg) < sg.size:
                tied = np.flatnonzero(np.count_nonzero(sg, axis=1) < win)
                d = np.fmod(phase[i + 1 + tied, t] - phase[i, t], two_pi)
                np.add(d, two_pi, out=d, where=d <= 0.0)
                np.subtract(d, two_pi, out=d, where=d > np.pi)
                net[tied] = np.count_nonzero(d > tie, axis=1) - np.count_nonzero(d < -tie, axis=1)
            acc[i, i + 1:] += np.abs(net / win)
    upper = np.triu(np.clip(acc / len(starts), 0.0, 1.0), 1)
    return upper + upper.T


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    return float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))


def exact_permutation_pvalue(x, y) -> float:
    """Two-sided permutation p by full enumeration (small n only)."""
    r_obs = abs(pearson_r(x, y))
    hits = 0
    total = 0
    for perm in itertools.permutations(y):
        total += 1
        if abs(pearson_r(x, perm)) >= r_obs - 1e-12:
            hits += 1
    return hits / total


def mc_permutation_pvalue(x, y, n_draws: int, seed: int) -> float:
    """Two-sided Monte Carlo permutation p (vectorized draws)."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r_obs = abs(pearson_r(x, y))
    dx = x - x.mean()
    sx = math.sqrt((dx * dx).sum())
    perms = rng.permuted(np.tile(y, (n_draws, 1)), axis=1)
    dp = perms - perms.mean(axis=1, keepdims=True)
    r = (dp @ dx) / (np.sqrt((dp * dp).sum(axis=1)) * sx)
    return float(np.mean(np.abs(r) >= r_obs - 1e-12))


def count_windows(n_samples: int, win: int, step: int) -> int:
    """Count full windows by explicit simulation."""
    count = 0
    start = 0
    while start + win <= n_samples:
        count += 1
        start += step
    return count


def rowloop_synthetic_sources(
    n_sources: int,
    n_samples: int,
    fs: float,
    alpha_hz: float = 10.0,
    seed: int = 0,
) -> np.ndarray:
    """The synthetic source library's rows, synthesized one row at a time.

    The generator as it was before its rows were synthesized in blocks and
    written straight into the assembled activity: one ``(2, n_bins)`` draw,
    one ``irfft`` and one ``np.roll`` of the network rhythm per row.
    """
    if n_sources < 1:
        raise ValueError("n_sources must be >= 1")
    if n_samples < 4:
        raise ValueError("n_samples must be >= 4")
    if not 0.0 < alpha_hz < fs / 2.0:
        raise ValueError(f"alpha_hz={alpha_hz} outside (0, {fs / 2.0})")

    def spectral_noise(amplitude):
        z = rng.standard_normal((2, amplitude.shape[0]))
        coeff = amplitude * (z[0] + 1j * z[1])
        coeff[0] = 0.0
        return np.fft.irfft(coeff, n=n_samples)

    def resonator_denominator(f0, q):
        ratio = freqs / f0
        return (1.0 - ratio**2) ** 2 + (ratio / q) ** 2

    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs)
    background_power = (freqs + 1.0) ** -1.7
    rhythm_fraction = rng.uniform(0.03, 0.22)
    n_networks = int(rng.integers(4, 11))
    coupling = rng.uniform(0.2, 0.8)
    networks = []
    for _ in range(n_networks):
        f0 = alpha_hz * rng.uniform(0.93, 1.17)
        x = spectral_noise(1.0 / np.sqrt(resonator_denominator(f0, 16.0)))
        networks.append(x / x.std())
    n_rhythmic = max(1, int(round(rhythm_fraction * n_sources)))
    rhythmic = np.arange(n_sources) < n_rhythmic
    t = np.where(
        rhythmic,
        rng.uniform(0.75, 0.95, size=n_sources),
        rng.uniform(0.002, 0.05, size=n_sources),
    )
    v = np.where(rhythmic, coupling, 0.5) * t
    member = rng.integers(0, n_networks, size=n_sources)
    cycle = max(fs / alpha_hz, 2.0)
    max_lag = max(int(round(0.5 * cycle)), 1)
    lags = rng.integers(-max_lag, max_lag + 1, size=n_sources)
    q_private = np.exp(rng.uniform(np.log(6.0), np.log(20.0), size=n_sources))
    f_private = alpha_hz * rng.uniform(0.85, 1.22, size=n_sources)
    n_bins = freqs.shape[0]
    weights = np.full(n_bins, 4.0 / n_samples**2)
    weights[0] = 0.0
    if n_samples % 2 == 0:
        weights[-1] = 1.0 / n_samples**2
    background_scale = (1.0 - t) / np.sum(background_power * weights)
    data = np.empty((n_sources, n_samples))
    for k in range(n_sources):
        private_power = 1.0 / resonator_denominator(f_private[k], q_private[k])
        private_scale = (t[k] - v[k]) / np.sum(private_power * weights)
        amp = np.sqrt(background_scale[k] * background_power + private_scale * private_power)
        data[k] = spectral_noise(amp)
        data[k] += np.sqrt(v[k]) * np.roll(networks[member[k]], int(lags[k]))
    return data


def reference_source_activity(
    library,
    n_total: int,
    n_active: int,
    noise_sigma: float,
    n_samples: int,
    seed: int = 0,
) -> SourceActivity:
    """Full-matrix source assembly: every fill row drawn in source space.

    The assembly as it was before the fill moved to channel space. It draws
    the same ``choice`` and ``permutation`` from the seed, so its active rows
    sit at the folded form's ``columns``; the fill rows differ in value but
    not in distribution.
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

    data = np.empty((n_total, n_samples))
    active = library.data[chosen, :n_samples].copy()
    sd = active.std(axis=1, keepdims=True)
    if np.any(sd == 0):
        raise InvalidData("selected library rows include a constant row")
    active /= sd
    data[order[:n_active]] = active

    noise_rows = order[n_active:]
    for start in range(0, noise_rows.size, _NOISE_CHUNK):
        rows = noise_rows[start : start + _NOISE_CHUNK]
        data[rows] = noise_sigma * rng.standard_normal((rows.size, n_samples))

    return SourceActivity(data=data, fs=library.fs)


def explicit_first_projection(lf, src: SourceActivity) -> MultichannelRecord:
    """Forward projection that forms the explicit rows' product before the fill.

    The earlier operation order: gain[:, columns] @ data, then the fill
    root @ z added to it, with the fill drawn as ``project_to_scalp`` draws it.
    """
    data = lf.gain[:, src.columns] @ src.data
    if src.noise_sigma > 0 and src.columns.size < src.n_sources:
        fill = np.delete(lf.gain, src.columns, axis=1)
        w, v = np.linalg.eigh(fill @ fill.T)
        root = (v * (src.noise_sigma * np.sqrt(np.clip(w, 0.0, None)))) @ v.T
        z = np.random.default_rng(src.noise_seed).standard_normal((lf.n_channels, src.n_samples))
        data += root @ z
    return MultichannelRecord(data=data, fs=src.fs, channel_names=lf.channel_names)


def oneshot_bandpass_analytic(rec, band) -> AnalyticRecord:
    """Band-pass analytic signal of the whole record in one transform pair.

    The earlier form: ifft(fft(x) * (gain * h)) over all rows at once, with
    the order-4 forward-backward Butterworth gain and the analytic-signal
    multiplier h, then np.angle with -pi mapped to pi, and the magnitude.
    """
    n = rec.n_samples
    spec = np.fft.fft(rec.data, axis=1)
    f = np.abs(np.fft.fftfreq(n, d=1.0 / rec.fs))
    gain = np.zeros_like(f)
    nz = f > 0
    xi = (f[nz] ** 2 - band.lo * band.hi) / (f[nz] * (band.hi - band.lo))
    gain[nz] = 1.0 / (1.0 + xi ** 8)
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[1 : n // 2] = 2.0
        h[n // 2] = 1.0
    else:
        h[1 : (n + 1) // 2] = 2.0
    analytic = np.fft.ifft(spec * (gain * h), axis=1)
    phase = np.angle(analytic)
    phase[phase == -np.pi] = np.pi
    return AnalyticRecord(phase=phase, envelope=np.abs(analytic), fs=rec.fs, band=band)


def oneshot_bartlett_spectrum(rec, segment_samples: int, band) -> CrossSpectrum:
    """Bartlett cross-spectrum with whole-record mean removal and transform.

    The earlier form of ``spectral._bartlett_spectrum``: every channel's
    segments are mean-removed and transformed at once, then the kept bins
    are copied to a (bin, channel, segment) array for the same einsum.
    Assumes at least two segments and, with a ``band``, a bin in it.
    """
    n_ch, n_samples = rec.data.shape
    n = segment_samples
    k_segments = n_samples // n
    freqs = np.arange(1, n // 2) * (rec.fs / n)
    first = 1
    if band is not None:
        idx = np.nonzero((freqs >= band.lo) & (freqs <= band.hi))[0]
        freqs, first = freqs[idx[0] : idx[-1] + 1], 1 + idx[0]
    segs = rec.data[:, : k_segments * n].reshape(n_ch, k_segments, n)
    segs = segs - segs.mean(axis=2, keepdims=True)
    spec = np.fft.rfft(segs, axis=2)[:, :, first : first + freqs.size].transpose(2, 0, 1).copy()
    mats = np.einsum("fck,fdk->fcd", spec, spec.conj())
    mats *= 2.0 / (k_segments * n * n)
    return CrossSpectrum(freqs=freqs, mats=mats, n_segments=k_segments)


def fullstack_coherency(mats):
    """Coherency of a cross-spectrum stack with whole-stack temporaries.

    The form that builds the (n_freqs, n, n) denominator, quotient and
    magnitude at once; assumes every channel power is positive.
    """
    power = np.einsum("fii->fi", mats).real
    denom = np.sqrt(power[:, :, None] * power[:, None, :])
    out = mats / denom
    # Clamp rounding spill past unit magnitude, then pin the diagonal.
    mag = np.abs(out)
    np.divide(out, mag, out=out, where=mag > 1.0)
    idx = np.arange(mats.shape[1])
    out[:, idx, idx] = 1.0
    return out


def allbin_bartlett_coherency(rec, segment_samples: int) -> CoherencyMatrix:
    """Coherency of a record on every bin of its Bartlett grid.

    The grid's earlier COH/iCOH input: one all-bin coherency per cell that
    every band then sliced. Assumes at least two segments and positive
    channel power at every bin.
    """
    freqs, mats = segment_loop_cross_spectrum(rec.data, rec.fs, segment_samples)
    return CoherencyMatrix(freqs=freqs, mats=fullstack_coherency(mats))


_CS_HEADER = "freq_hz,ch_i,ch_j,re,im"


def _cs_sidecar(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def rowloop_write_cross_spectrum(path, cs: CrossSpectrum, labels) -> Path:
    """Cross-spectrum CSV written one ``f.write`` per upper-triangle entry.

    The byte-for-byte reference for ``matrix_io.write_cross_spectrum``.
    """
    path = Path(path)
    n = cs.n_channels
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} channels")
    with open(path, "w", newline="\n") as f:
        f.write(_CS_HEADER + "\n")
        for fi, freq in enumerate(cs.freqs):
            mat = cs.mats[fi]
            freq_s = repr(float(freq))
            for i in range(n):
                for j in range(i, n):
                    z = mat[i, j]
                    f.write(f"{freq_s},{i},{j},{float(z.real)!r},{float(z.imag)!r}\n")
    with open(_cs_sidecar(path), "w", newline="\n") as f:
        json.dump({"labels": list(labels), "n_segments": cs.n_segments}, f, indent=2)
        f.write("\n")
    return path


def rowloop_read_cross_spectrum(path) -> tuple[CrossSpectrum, list[str]]:
    """Cross-spectrum CSV parsed one line at a time with ``float``/``int``.

    The reference for ``matrix_io.read_cross_spectrum``: the same matrices,
    bit for bit, and CrossSpectrumFormatError for the same files.
    """
    path = Path(path)
    side = _cs_sidecar(path)
    if not side.exists():
        raise CrossSpectrumFormatError(f"{path}: missing sidecar {side.name}")
    try:
        with open(side) as f:
            meta = json.load(f)
        labels = list(meta["labels"])
        n_segments = int(meta["n_segments"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise CrossSpectrumFormatError(f"{side}: bad sidecar ({e})") from e

    n = len(labels)
    entries: dict[float, np.ndarray] = {}
    freq_order: list[float] = []
    n_rows = 0
    with open(path) as f:
        header = f.readline().strip()
        if header != _CS_HEADER:
            raise CrossSpectrumFormatError(
                f"{path}: expected header {_CS_HEADER!r}, got {header!r}"
            )
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise CrossSpectrumFormatError(f"{path}:{lineno}: expected 5 fields")
            try:
                freq = float(parts[0])
                i, j = int(parts[1]), int(parts[2])
                z = complex(float(parts[3]), float(parts[4]))
            except ValueError as e:
                raise CrossSpectrumFormatError(f"{path}:{lineno}: {e}") from e
            if not 0 <= i <= j < n:
                raise CrossSpectrumFormatError(
                    f"{path}:{lineno}: channel pair ({i}, {j}) outside 0..{n - 1} or i > j"
                )
            if freq not in entries:
                entries[freq] = np.full((n, n), np.nan, dtype=complex)
                freq_order.append(freq)
            entries[freq][i, j] = z
            entries[freq][j, i] = z.conjugate()
            n_rows += 1

    if not entries:
        raise CrossSpectrumFormatError(f"{path}: no data rows")
    # More rows than upper-triangle entries means some (freq, i, j) repeats.
    if n_rows > len(entries) * n * (n + 1) // 2:
        raise CrossSpectrumFormatError(f"{path}: duplicate (freq_hz, ch_i, ch_j) rows")
    freqs = np.array(freq_order)
    if np.any(freqs[1:] <= freqs[:-1]):
        raise CrossSpectrumFormatError(f"{path}: frequencies not strictly increasing")
    mats = np.stack([entries[f] for f in freq_order])
    if np.any(np.isnan(mats)):
        raise CrossSpectrumFormatError(f"{path}: incomplete upper triangle")
    try:
        cs = CrossSpectrum(freqs=freqs, mats=mats, n_segments=n_segments)
    except InvalidData as e:
        raise CrossSpectrumFormatError(f"{path}: {e}") from e
    return cs, labels
