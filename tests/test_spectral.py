import numpy as np
import pytest

from conftest import make_record, quiet_cross_spectrum
from oracles import (
    fullstack_coherency,
    naive_cross_spectrum,
    oneshot_bandpass_analytic,
    oneshot_bartlett_spectrum,
    segment_loop_cross_spectrum,
)

from fcdist import forward, spectral

from fcdist.errors import (
    EmptyBand,
    FewSegmentsWarning,
    InvalidData,
    TooFewSegments,
    ZeroPowerChannel,
)
from fcdist.spectral import (
    ALPHA,
    DEFAULT_BANDS,
    AnalyticRecord,
    Band,
    CrossSpectrum,
    band_slice,
    bandpass_analytic,
    bartlett_cross_spectrum,
    coherency,
)


class TestBartlett:
    def test_sinusoid_peak_at_bin(self):
        fs, n = 200.0, 512
        k = 40
        t = np.arange(n * 4) / fs
        rec = make_record(np.sin(2 * np.pi * (k * fs / n) * t), fs=fs)
        cs = quiet_cross_spectrum(rec, n)
        power = cs.mats[:, 0, 0].real
        assert int(np.argmax(power)) == k - 1  # bins start at k=1
        assert cs.freqs[k - 1] == pytest.approx(k * fs / n)

    def test_frequency_resolution_paper_grid(self, rng):
        rec = make_record(rng.standard_normal((1, 512 * 2)), fs=200.0)
        cs = quiet_cross_spectrum(rec, 512)
        assert cs.freqs[1] - cs.freqs[0] == pytest.approx(0.390625)
        assert cs.freqs[0] == pytest.approx(0.390625)
        assert cs.freqs[-1] == pytest.approx(200.0 / 2 - 0.390625)

    def test_hermitian_and_diagonal(self, rng):
        rec = make_record(rng.standard_normal((4, 64 * 5)), fs=64.0)
        cs = quiet_cross_spectrum(rec, 64)
        herm = np.max(np.abs(cs.mats - cs.mats.conj().transpose(0, 2, 1)))
        assert herm < 1e-10
        diag = np.einsum("fii->fi", cs.mats)
        assert np.all(diag.real >= 0)
        assert np.max(np.abs(diag.imag)) < 1e-12

    def test_matches_naive_dft_oracle(self, rng):
        data = rng.standard_normal((3, 32 * 4))
        rec = make_record(data, fs=32.0)
        cs = quiet_cross_spectrum(rec, 32)
        freqs, mats = naive_cross_spectrum(data, 32.0, 32)
        assert cs.n_segments == 4
        assert np.allclose(cs.freqs, freqs)
        assert np.max(np.abs(cs.mats - mats)) < 1e-10

    @pytest.mark.parametrize("n_ch, n_samples, segment", [
        (3, 32 * 4, 32),
        (5, 64 * 7 + 13, 64),  # trailing partial segment dropped
        (19, 512 * 3 + 100, 512),
        (1, 8 * 2, 8),
    ])
    def test_equals_segment_loop_exactly(self, rng, n_ch, n_samples, segment):
        data = 3.0 * rng.standard_normal((n_ch, n_samples)) + 1.5
        cs = quiet_cross_spectrum(make_record(data, fs=100.0), segment)
        freqs, mats = segment_loop_cross_spectrum(data, 100.0, segment)
        assert cs.n_segments == n_samples // segment
        assert np.array_equal(cs.freqs, freqs)
        assert np.array_equal(cs.mats, mats)

    def test_parseval_white_noise(self, rng):
        data = rng.standard_normal((1, 512 * 30))
        rec = make_record(data, fs=200.0)
        cs = quiet_cross_spectrum(rec, 512)
        seg = data[0, :512 * 30].reshape(30, 512)
        seg_var = np.mean([s.var() for s in seg])
        total = cs.mats[:, 0, 0].real.sum()
        assert abs(total - seg_var) / seg_var < 0.05

    def test_too_few_segments(self, rng):
        rec = make_record(rng.standard_normal((2, 700)), fs=100.0)
        with pytest.raises(TooFewSegments):
            bartlett_cross_spectrum(rec, 512)

    def test_few_segments_warning(self, rng):
        rec = make_record(rng.standard_normal((1, 64 * 5)), fs=64.0)
        with pytest.warns(FewSegmentsWarning):
            bartlett_cross_spectrum(rec, 64)

    def test_segment_count(self, rng):
        rec = make_record(rng.standard_normal((1, 2100)), fs=100.0)
        cs = quiet_cross_spectrum(rec, 512)
        assert cs.n_segments == 4

    def test_odd_segment_rejected(self, rng):
        rec = make_record(rng.standard_normal((1, 500)), fs=100.0)
        with pytest.raises(ValueError):
            bartlett_cross_spectrum(rec, 63)

    @pytest.mark.parametrize("band, first, last", [
        (DEFAULT_BANDS[0], 3, 10),    # delta: the first bin any default band reads
        (DEFAULT_BANDS[3], 34, 49),   # beta: ends at 19.140625 Hz
        (Band("one", 10.0, 10.2), 26, 26),
    ], ids=["delta", "beta", "one-bin"])
    def test_band_bins_equal_full_grid_slice(self, rng, band, first, last):
        # 19 channels on the 512-sample grid at 200 Hz; the duplicated
        # channel gives unit-magnitude coherencies that the clamp may touch.
        data = rng.standard_normal((19, 512 * 5))
        data[-1] = data[0]
        rec = make_record(data, fs=200.0)
        full = quiet_cross_spectrum(rec, 512)
        idx = band_slice(full.freqs, band)
        cs = quiet_cross_spectrum(rec, 512, band)
        assert np.array_equal(cs.freqs, np.arange(first, last + 1) * (200.0 / 512))
        assert np.array_equal(cs.freqs, full.freqs[idx])
        assert np.array_equal(cs.mats, full.mats[idx])
        assert cs.n_segments == full.n_segments
        assert np.array_equal(coherency(cs).mats, coherency(full).mats[idx])

    def test_band_without_bins(self, rng):
        rec = make_record(rng.standard_normal((2, 512 * 3)), fs=200.0)
        with pytest.raises(EmptyBand, match=r"on \[0.3906, 99.61\] Hz$"):
            quiet_cross_spectrum(rec, 512, Band("x", 10.0, 10.1))


@pytest.mark.parametrize("freqs, increasing", [
    ([-1.7e308, 1.7e308], True),  # their difference overflows to inf
    ([1.0, 1.0], False),
    ([2.0, 1.0], False),
])
def test_cross_spectrum_freqs_strictly_increasing(freqs, increasing):
    mats = np.stack([np.eye(2, dtype=complex)] * len(freqs))
    if increasing:
        assert CrossSpectrum(freqs=np.array(freqs), mats=mats, n_segments=3).freqs.size == 2
    else:
        with pytest.raises(InvalidData, match="strictly increasing"):
            CrossSpectrum(freqs=np.array(freqs), mats=mats, n_segments=3)


class TestBartlettBlocks:
    @pytest.mark.parametrize("band", [ALPHA, None], ids=["band", "all-bin"])
    @pytest.mark.parametrize("n_ch", [lambda block: 1, lambda block: block - 1,
                                      lambda block: block, lambda block: block + 1,
                                      lambda block: 128],
                             ids=["1", "block-1", "block", "block+1", "128"])
    def test_blocks_equal_oneshot_exactly(self, rng, n_ch, band):
        # 4000 samples hold 7 segments of 512 and 416 samples that are dropped.
        n_samples, n = 4000, 512
        block = forward._BLOCK_BYTES // (16 * (n_samples // n) * (n // 2 + 1))
        rec = make_record(rng.standard_normal((n_ch(block), n_samples)))
        cs = spectral._bartlett_spectrum(rec, n, band)
        ref = oneshot_bartlett_spectrum(rec, n, band)
        assert np.array_equal(cs.freqs, ref.freqs)
        assert np.array_equal(cs.mats, ref.mats)
        assert cs.n_segments == ref.n_segments == 7


class TestCoherency:
    def test_duplicated_channel_unit_magnitude(self, rng):
        x = rng.standard_normal(64 * 8)
        rec = make_record(np.vstack([x, x]), fs=64.0)
        c = coherency(quiet_cross_spectrum(rec, 64))
        assert np.max(np.abs(np.abs(c.mats[:, 0, 1]) - 1.0)) < 1e-9

    def test_diagonal_exactly_one(self, rng):
        rec = make_record(rng.standard_normal((3, 64 * 6)), fs=64.0)
        c = coherency(quiet_cross_spectrum(rec, 64))
        diag = np.einsum("fii->fi", c.mats)
        assert np.all(diag == 1.0)

    def test_magnitude_bounded(self, rng):
        rec = make_record(rng.standard_normal((5, 64 * 7)), fs=64.0)
        c = coherency(quiet_cross_spectrum(rec, 64))
        assert np.max(np.abs(c.mats)) <= 1.0 + 1e-9

    def test_zero_power_channel(self, rng):
        data = rng.standard_normal((2, 64 * 4))
        data[1] = 0.0
        rec = make_record(data, fs=64.0)
        with pytest.raises(ZeroPowerChannel):
            coherency(quiet_cross_spectrum(rec, 64))

    def test_zero_power_channel_band_bins(self, rng):
        # Only the band's bins are checked, so the error names its first bin.
        data = rng.standard_normal((2, 64 * 4))
        data[1] = 0.0
        rec = make_record(data, fs=64.0)
        with pytest.raises(ZeroPowerChannel, match="channel 1 has zero power at 10 Hz"):
            coherency(quiet_cross_spectrum(rec, 64, Band("mid", 10.0, 12.0)))

    def test_independent_noise_bias_monte_carlo(self):
        # mean |C|^2 for independent channels approaches 1/K
        k_segments, n = 50, 64
        rng = np.random.default_rng(777)
        vals = []
        for _ in range(200):
            rec = make_record(rng.standard_normal((2, n * k_segments)), fs=64.0)
            c = coherency(quiet_cross_spectrum(rec, n))
            vals.append(np.mean(np.abs(c.mats[:, 0, 1]) ** 2))
        mean = float(np.mean(vals))
        assert 0.5 / k_segments < mean < 1.5 / k_segments

    @pytest.mark.parametrize("n_ch", [2, 19, 128])
    def test_equals_fullstack_exactly(self, rng, n_ch):
        # 128 channels span several blocks of bins; the duplicated channel
        # gives unit-magnitude entries that the clamp may touch.
        data = rng.standard_normal((n_ch, 64 * 4))
        data[-1] = data[0]
        cs = quiet_cross_spectrum(make_record(data, fs=64.0), 64)
        assert np.array_equal(coherency(cs).mats, fullstack_coherency(cs.mats))

    def test_amplitude_invariance(self, rng):
        data = rng.standard_normal((3, 64 * 6))
        scaled = data.copy()
        scaled[1] *= 37.5
        c1 = coherency(quiet_cross_spectrum(make_record(data, fs=64.0), 64))
        c2 = coherency(quiet_cross_spectrum(make_record(scaled, fs=64.0), 64))
        assert np.max(np.abs(c1.mats - c2.mats)) < 1e-10


class TestBandpassAnalytic:
    @pytest.mark.parametrize("n_samples", [4000, 4001], ids=["even", "odd"])
    @pytest.mark.parametrize("n_ch", [lambda block: 1, lambda block: block - 1,
                                      lambda block: block, lambda block: block + 1,
                                      lambda block: 128],
                             ids=["1", "block-1", "block", "block+1", "128"])
    def test_blocks_equal_oneshot_exactly(self, rng, n_ch, n_samples):
        block = forward._BLOCK_BYTES // (16 * n_samples)
        rec = make_record(rng.standard_normal((n_ch(block), n_samples)))
        a = bandpass_analytic(rec, ALPHA)
        ref = oneshot_bandpass_analytic(rec, ALPHA)
        assert np.array_equal(a.phase, ref.phase)
        assert np.array_equal(a.envelope, ref.envelope)

    def test_sinusoid_envelope_flat(self):
        fs, n = 200.0, 2000
        t = np.arange(n) / fs
        rec = make_record(np.sin(2 * np.pi * 10.0 * t), fs=fs)
        a = bandpass_analytic(rec, ALPHA)
        interior = a.envelope[0, n // 10: -n // 10]
        assert interior.std() / interior.mean() < 0.05

    def test_quadrature_phase_difference(self):
        fs, n = 200.0, 2000
        t = np.arange(n) / fs
        data = np.vstack([np.cos(2 * np.pi * 10.0 * t), np.sin(2 * np.pi * 10.0 * t)])
        a = bandpass_analytic(make_record(data, fs=fs), ALPHA)
        d = a.phase[0] - a.phase[1]
        d = np.mod(d, 2 * np.pi)
        d[d > np.pi] -= 2 * np.pi
        interior = d[n // 10: -n // 10]
        assert np.max(np.abs(interior - np.pi / 2)) < 0.05

    def test_envelope_nonnegative(self, rng):
        rec = make_record(rng.standard_normal((3, 600)), fs=100.0)
        a = bandpass_analytic(rec, Band("mid", 10.0, 30.0))
        assert np.all(a.envelope >= 0)

    def test_phase_wrapped(self, rng):
        rec = make_record(rng.standard_normal((2, 500)), fs=100.0)
        a = bandpass_analytic(rec, Band("mid", 10.0, 30.0))
        assert np.all(a.phase > -np.pi)
        assert np.all(a.phase <= np.pi)

    @pytest.mark.parametrize("name", ["phase", "envelope"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, name, bad):
        arrays = {"phase": np.zeros((2, 8)), "envelope": np.ones((2, 8))}
        arrays[name][1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            AnalyticRecord(**arrays, fs=100.0, band=ALPHA)

    def test_band_out_of_range(self, rng):
        rec = make_record(rng.standard_normal((1, 400)), fs=100.0)
        with pytest.raises(ValueError, match=r"band bad exceeds Nyquist \(50.0 Hz\)"):
            bandpass_analytic(rec, Band("bad", 10.0, 60.0))

    def test_out_of_band_attenuation(self):
        fs, n = 200.0, 4000
        t = np.arange(n) / fs
        in_band = np.sin(2 * np.pi * 10.0 * t)
        out_band = np.sin(2 * np.pi * 40.0 * t)
        a = bandpass_analytic(make_record(in_band + out_band, fs=fs), ALPHA)
        # residual 40 Hz power should be tiny relative to the retained 10 Hz
        spec = np.abs(np.fft.rfft(np.real(a.envelope[0] * np.exp(1j * a.phase[0]))))
        freqs = np.fft.rfftfreq(n, 1 / fs)
        p10 = spec[np.argmin(np.abs(freqs - 10.0))]
        p40 = spec[np.argmin(np.abs(freqs - 40.0))]
        assert p40 < 0.01 * p10


class TestBandSlice:
    def test_normative_grid_alpha(self):
        freqs = 1.17 + 0.39 * np.arange(47)  # 1.17 .. 19.11
        idx = band_slice(freqs, Band("alpha", 8.0, 13.0))
        assert len(idx) == 13
        assert freqs[idx[0]] == pytest.approx(8.19)
        assert freqs[idx[-1]] == pytest.approx(12.87)

    def test_bartlett_grid_alpha(self):
        freqs = np.arange(1, 256) * (200.0 / 512.0)
        idx = band_slice(freqs, Band("alpha", 8.0, 13.0))
        assert len(idx) == 13
        assert freqs[idx[0]] == pytest.approx(8.203125)
        assert freqs[idx[-1]] == pytest.approx(12.890625)

    def test_empty_band(self):
        freqs = np.arange(5.0, 20.0)
        with pytest.raises(EmptyBand):
            band_slice(freqs, Band("low", 0.5, 2.0))

    def test_empty_grid(self):
        with pytest.raises(EmptyBand, match="selects no bins on an empty grid"):
            band_slice(np.array([]), Band("low", 0.5, 2.0))

    def test_full_axis(self):
        freqs = np.linspace(1.0, 40.0, 64)
        idx = band_slice(freqs, Band("all", 0.5, 50.0))
        assert len(idx) == 64

    def test_default_bands_cover_normative_range(self):
        freqs = np.arange(1, 256) * (200.0 / 512.0)
        covered = np.concatenate([band_slice(freqs, b) for b in DEFAULT_BANDS])
        covered = np.unique(covered)
        assert freqs[covered[0]] == pytest.approx(1.171875)   # ~1.17 Hz
        assert freqs[covered[-1]] == pytest.approx(19.140625)  # ~19.14 Hz
        # contiguous, non-overlapping coverage of bins 3..49
        assert np.array_equal(covered, np.arange(2, 49))
        sizes = sum(len(band_slice(freqs, b)) for b in DEFAULT_BANDS)
        assert sizes == len(covered)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            Band("bad", 5.0, 3.0)
        # An infinite edge would reach summary.json as the non-JSON token Infinity.
        with pytest.raises(ValueError, match=r"band hi: need 0 < lo < hi < inf, got \(8.0, inf\)"):
            Band("hi", 8.0, np.inf)

    @pytest.mark.parametrize("name", ["", "a/b", "a\\b", "a\0b"])
    def test_band_name_is_a_file_name_part(self, name):
        with pytest.raises(ValueError, match="band name"):
            Band(name, 8.0, 13.0)

    def test_band_name_must_be_a_string(self):
        with pytest.raises(ValueError, match="name must be a string, got 3"):
            Band(3, 8.0, 13.0)
