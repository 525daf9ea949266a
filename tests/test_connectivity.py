import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_analytic, make_record, quiet_cross_spectrum
from oracles import count_windows, naive_pli, rowloop_pli, sincos_pli

from fcdist.connectivity import (
    _wrap_phase,
    PLV_WINDOW,
    SLIDING_WINDOW,
    WindowConfig,
    aec_matrix,
    coherence_matrix,
    icoh_matrix,
    pli_matrix,
    plv_matrix,
    window_starts,
)
from fcdist.errors import DegenerateEnvelope, EmptyBand, TooShort
from fcdist.forward import (
    LeadField,
    SourceActivity,
    generate_synthetic_sources,
    project_to_scalp,
)
from fcdist.spectral import ALPHA, CoherencyMatrix, bandpass_analytic, coherency


def coherency_of(data, fs=200.0, segment=256):
    return coherency(quiet_cross_spectrum(make_record(data, fs=fs), segment))


def duplicated_pair_metrics(seed=0):
    """All five metrics for a record whose two channels are identical."""
    rng = np.random.default_rng(seed)
    fs, n = 200.0, 10000
    lib = generate_synthetic_sources(1, n, fs, 10.0, seed=seed)
    x = lib.data[0] + 0.1 * rng.standard_normal(n)
    rec = make_record(np.vstack([x, x]), fs=fs)
    c = coherency(quiet_cross_spectrum(rec, 512))
    a = bandpass_analytic(rec, ALPHA)
    return {
        "COH": coherence_matrix(c, ALPHA),
        "iCOH": icoh_matrix(c, ALPHA),
        "PLV": plv_matrix(a),
        "PLI": pli_matrix(a),
        "AEC": aec_matrix(a),
    }


class TestMetricIdentities:
    def test_duplicated_channel_pair(self):
        cms = duplicated_pair_metrics()
        assert cms["COH"].weights[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert cms["PLV"].weights[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert cms["AEC"].weights[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert cms["iCOH"].weights[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert cms["PLI"].weights[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_conventions(self):
        cms = duplicated_pair_metrics(seed=1)
        for name in ("COH", "PLV", "AEC"):
            assert np.all(np.diag(cms[name].weights) == 1.0)
        for name in ("iCOH", "PLI"):
            assert np.all(np.diag(cms[name].weights) == 0.0)


class TestCoherenceMatrix:
    def test_matches_direct_evaluation(self, rng):
        # straight-line recomputation: |S_ij / sqrt(S_ii S_jj)|^2 band mean
        data = rng.standard_normal((3, 256 * 6))
        rec = make_record(data, fs=200.0)
        cs = quiet_cross_spectrum(rec, 256)
        c = coherency(cs)
        cm = coherence_matrix(c, ALPHA)
        sel = [i for i, f in enumerate(cs.freqs) if 8.0 <= f <= 13.0]
        for i in range(3):
            for j in range(i + 1, 3):
                vals = []
                for fi in sel:
                    s = cs.mats[fi]
                    vals.append(abs(s[i, j] / np.sqrt(s[i, i].real * s[j, j].real)) ** 2)
                assert cm.weights[i, j] == pytest.approx(np.mean(vals), abs=1e-10)

    def test_diagonal_one(self, rng):
        c = coherency_of(rng.standard_normal((4, 256 * 4)))
        cm = coherence_matrix(c, ALPHA)
        assert np.all(np.diag(cm.weights) == 1.0)

    @pytest.mark.parametrize("metric", [coherence_matrix, icoh_matrix])
    def test_zero_bin_coherency_is_empty_band(self, metric):
        # An EmptyBand is recorded as a cell failure; an IndexError would crash the grid.
        c = CoherencyMatrix(freqs=np.empty(0), mats=np.empty((0, 3, 3), dtype=complex))
        with pytest.raises(EmptyBand, match="selects no bins on an empty grid"):
            metric(c, ALPHA)


class TestIcohMatrix:
    def test_quadrature_sinusoids_unit_imag(self):
        # channel 2 lagging channel 1 by a quarter cycle at an exact bin
        fs, n = 200.0, 512
        k = 26
        f0 = k * fs / n
        t = np.arange(n * 4) / fs
        data = np.vstack([
            np.cos(2 * np.pi * f0 * t),
            np.cos(2 * np.pi * f0 * t - np.pi / 2),
        ])
        cs = quiet_cross_spectrum(make_record(data, fs=fs), n)
        s = cs.mats[k - 1]
        imag = (s[0, 1] / np.sqrt(s[0, 0].real * s[1, 1].real)).imag
        assert imag == pytest.approx(1.0, abs=1e-9)

    def test_band_average_and_fold(self, rng):
        c = coherency_of(rng.standard_normal((3, 256 * 5)))
        cm = icoh_matrix(c, ALPHA)
        sel = [i for i, f in enumerate(c.freqs) if 8.0 <= f <= 13.0]
        signed = c.mats[sel].imag.mean(axis=0)
        assert cm.weights[0, 1] == pytest.approx(abs(signed[0, 1]), abs=1e-12)


class TestPlv:
    def test_identical_channels(self, rng):
        ph = rng.uniform(-np.pi, np.pi, size=1200 * 2)
        a = make_analytic(np.vstack([ph, ph]), fs=200.0)
        cm = plv_matrix(a)
        assert cm.weights[0, 1] == pytest.approx(1.0)

    def test_constant_offset(self, rng):
        ph = rng.uniform(-np.pi, np.pi, size=1200 * 2)
        ph2 = np.mod(ph + 1.234 + np.pi, 2 * np.pi) - np.pi
        a = make_analytic(np.vstack([ph, ph2]), fs=200.0)
        cm = plv_matrix(a)
        assert cm.weights[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_rayleigh_null_monte_carlo(self):
        # E[PLV] for n i.i.d. uniform phases is sqrt(pi) / (2 sqrt(n))
        rng = np.random.default_rng(31)
        n = 1200  # one 6 s window at 200 Hz
        vals = []
        for _ in range(200):
            ph = rng.uniform(-np.pi, np.pi, size=(2, n))
            cm = plv_matrix(make_analytic(ph, fs=200.0))
            vals.append(cm.weights[0, 1])
        expected = np.sqrt(np.pi) / (2 * np.sqrt(n))
        assert 0.5 * expected < np.mean(vals) < 1.5 * expected

    def test_default_window_no_overlap(self):
        assert PLV_WINDOW.overlap_seconds == 0.0

    def test_too_short(self, rng):
        a = make_analytic(rng.uniform(-np.pi, np.pi, size=(2, 100)), fs=200.0)
        with pytest.raises(TooShort):
            plv_matrix(a)


# One integer phase step of the PLI kernel, and the offsets (in steps) of
# the rows placed around a base row.
_STEP = np.pi / 2**31
_OFFSETS = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0, 3.0, -3.0)


def _wrapped(x):
    return np.where(x > np.pi, x - 2 * np.pi, np.where(x <= -np.pi, x + 2 * np.pi, x))


class TestPli:
    def test_identical_channels_zero(self, rng):
        ph = rng.uniform(-np.pi, np.pi, size=1300)
        a = make_analytic(np.vstack([ph, ph]), fs=200.0)
        cm = pli_matrix(a)
        assert cm.weights[0, 1] == 0.0

    def test_constant_lag_is_one(self, rng):
        ph = np.unwrap(rng.uniform(-np.pi, np.pi, size=1300))
        delta = 0.8
        ph1 = np.mod(ph + np.pi, 2 * np.pi) - np.pi
        ph2 = np.mod(ph - delta + np.pi, 2 * np.pi) - np.pi
        a = make_analytic(np.vstack([ph1, ph2]), fs=200.0)
        cm = pli_matrix(a)
        assert cm.weights[0, 1] == pytest.approx(1.0)

    def test_symmetric_phase_differences_near_zero(self):
        n = 1300
        delta = 0.6
        base = np.zeros(n)
        offsets = np.tile([delta, -delta], n // 2 + 1)[:n]
        a = make_analytic(np.vstack([base, base + offsets]), fs=200.0)
        cm = pli_matrix(a)
        assert cm.weights[0, 1] <= 2.0 / np.sqrt(n)

    def test_sign_zero_counts_zero(self):
        # half the samples at zero difference, half lagged: PLI = 0.5
        n = 1200
        base = np.zeros(n)
        offs = np.tile([0.0, 0.4], n // 2)[:n]
        a = make_analytic(np.vstack([base, base + offs]), fs=200.0)
        cm = pli_matrix(a, WindowConfig(6.0, 0.0))
        assert cm.weights[0, 1] == pytest.approx(0.5)

    def test_wrap_phase_bitwise_floor_modulo(self, rng):
        d = np.concatenate([
            rng.uniform(-2 * np.pi, 2 * np.pi, 1000),
            rng.uniform(-1e-11, 1e-11, 100),
            np.pi + rng.uniform(-1e-12, 1e-12, 100),
            rng.uniform(-1e6, 1e6, 100),
            [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e-300, -1e-300, -5e-324,
             np.inf, -np.inf, np.nan],
        ])
        with np.errstate(invalid="ignore"):  # inf and nan give nan
            expected = np.mod(d, 2 * np.pi)
            expected[expected > np.pi] -= 2 * np.pi
            got = _wrap_phase(d)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_oracle_random(self, seed):
        ph = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(6, 300))
        a = make_analytic(ph, fs=20.0)
        # 120-sample windows every 80 samples: overlapping
        assert np.array_equal(pli_matrix(a, WindowConfig(6.0, 2.0)).weights,
                              naive_pli(ph, 120, 80))

    def test_matches_naive_oracle_engineered_rows(self, rng):
        base = rng.uniform(-np.pi, np.pi, size=300)
        ph = np.vstack([
            base,
            base,  # identical: every difference is exactly 0
            np.zeros(300),
            np.full(300, np.pi),  # exactly pi against the zero row
            _wrapped(base + 1e-13),
            _wrapped(base - 1e-13),
            _wrapped(base + np.pi),  # near +-pi against the base row
            _wrapped(base + np.pi + 1e-13),
            _wrapped(base + 1e-9),  # under one integer phase step
            rng.uniform(-np.pi, np.pi, size=300),
        ])
        a = make_analytic(ph, fs=20.0)
        weights = pli_matrix(a, WindowConfig(6.0, 2.0)).weights
        assert np.array_equal(weights, naive_pli(ph, 120, 80))
        assert weights[0, 1] == 0.0 and weights[0, 4] == 0.0 and weights[0, 5] == 0.0
        assert weights[2, 3] == 1.0

    def test_matches_rowloop_on_band_passed_noise(self, rng):
        a = bandpass_analytic(make_record(rng.standard_normal((12, 2600))), ALPHA)
        assert np.array_equal(pli_matrix(a).weights, rowloop_pli(a.phase, 1200, 1100))

    def test_matches_sincos_kernel_and_not_slower(self, rng):
        mix = np.eye(64) + 0.3 * rng.standard_normal((64, 64))
        a = bandpass_analytic(make_record(mix @ rng.standard_normal((64, 6000))), ALPHA)
        assert np.array_equal(pli_matrix(a).weights, sincos_pli(a.phase, 1200, 1100))
        fast = min(timeit.repeat(lambda: pli_matrix(a), number=1, repeat=3))
        sincos = min(timeit.repeat(lambda: sincos_pli(a.phase, 1200, 1100), number=1, repeat=3))
        assert fast <= sincos

    @given(
        base=st.lists(
            st.one_of(
                st.floats(-np.pi, np.pi, exclude_min=True),
                st.sampled_from([0.0, np.pi, -np.pi + 1e-15, np.pi - _STEP, _STEP / 2, -_STEP]),
            ),
            min_size=24, max_size=24,
        ),
        overlap=st.sampled_from([0.0, 0.75]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle_near_quantization_steps(self, base, overlap):
        # Rows within a few integer steps of a base row and of base + pi, where
        # the rounded differences land on or next to the fallback values.
        base = np.array(base)
        rows = [_wrapped(base + lift + k * _STEP) for lift in (0.0, np.pi) for k in _OFFSETS]
        rows += [np.full(24, v) for v in (np.pi, -np.pi + 1e-15, np.pi - _STEP)]
        # A tie whose rounded difference is one step: 1e-13 either side of a half step.
        rows += [np.full(24, _STEP / 2 - 1e-13), np.full(24, _STEP / 2 + 1e-13)]
        ph = np.vstack(rows)
        # 8-sample windows every 8 (disjoint) or every 5 (overlapping) samples
        w = WindowConfig(2.0, overlap)
        weights = pli_matrix(make_analytic(ph, fs=4.0), w).weights
        assert np.array_equal(weights, naive_pli(ph, 8, 8 if overlap == 0.0 else 5))

    def test_all_tied_record_zero_and_not_slower_than_rowloop(self, rng):
        # Every pair-sample is a tie, so every sign takes the fallback path.
        ph = np.tile(rng.uniform(-np.pi, np.pi, size=2400), (64, 1))
        a = make_analytic(ph, fs=200.0)
        assert np.all(pli_matrix(a).weights == 0.0)
        fast = min(timeit.repeat(lambda: pli_matrix(a), number=1, repeat=3))
        loop = min(timeit.repeat(lambda: rowloop_pli(ph, 1200, 1100), number=1, repeat=3))
        assert fast <= loop


class TestAec:
    def test_identical_channels(self, rng):
        n = 1300
        ph = rng.uniform(-np.pi, np.pi, size=(1, n))
        env = 1.0 + 0.3 * np.abs(np.sin(np.linspace(0, 7, n)))
        a = make_analytic(np.vstack([ph, ph]), np.vstack([env, env]), fs=200.0)
        cm = aec_matrix(a)
        assert cm.weights[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_affine_envelope(self, rng):
        n = 1300
        ph = rng.uniform(-np.pi, np.pi, size=(2, n))
        env = 1.0 + rng.random(n)
        a = make_analytic(ph, np.vstack([env, 2.0 * env + 3.0]), fs=200.0)
        cm = aec_matrix(a)
        assert cm.weights[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_null_correlation_scale(self):
        rng = np.random.default_rng(77)
        n = 1200
        vals = []
        for _ in range(200):
            env = 1.5 + 0.2 * rng.standard_normal((2, n))
            ph = rng.uniform(-np.pi, np.pi, size=(2, n))
            cm = aec_matrix(make_analytic(ph, np.abs(env), fs=200.0))
            vals.append(cm.weights[0, 1])
        expected = np.sqrt(2.0 / (np.pi * n))
        assert 0.5 * expected < np.mean(vals) < 1.5 * expected

    def test_degenerate_envelope(self, rng):
        n = 1300
        ph = rng.uniform(-np.pi, np.pi, size=(2, n))
        env = np.ones((2, n))  # constant in every window
        with pytest.raises(DegenerateEnvelope):
            aec_matrix(make_analytic(ph, env, fs=200.0))

    def test_negative_correlation_folds_to_one(self, rng):
        n = 2400
        ph = rng.uniform(-np.pi, np.pi, size=(2, n))
        env = 1.5 + 0.4 * np.sin(np.linspace(0, 11, n))
        a = make_analytic(ph, np.vstack([env, -env + 4.0]), fs=200.0)
        cm = aec_matrix(a)
        assert cm.weights[0, 1] == pytest.approx(1.0, abs=1e-9)


class TestWindows:
    @pytest.mark.parametrize("n_samples,win_s,ovl_s,fs", [
        (10000, 6.0, 0.0, 200.0),
        (10000, 6.0, 0.5, 200.0),
        (10000, 6.0, 5.5, 200.0),
        (1200, 6.0, 0.0, 200.0),
        (2500, 2.0, 1.0, 100.0),
    ])
    def test_count_matches_oracle(self, n_samples, win_s, ovl_s, fs):
        starts, win = window_starts(n_samples, fs, WindowConfig(win_s, ovl_s))
        step = win - int(round(ovl_s * fs))
        assert len(starts) == count_windows(n_samples, win, step)
        formula = (n_samples - win) // step + 1
        assert len(starts) == formula

    def test_window_config_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(6.0, 6.0)
        with pytest.raises(ValueError):
            WindowConfig(6.0, -1.0)

    def test_default_sliding_overlap(self):
        assert SLIDING_WINDOW.window_seconds == 6.0
        assert SLIDING_WINDOW.overlap_seconds == 0.5


class TestInvariants:
    def build_all(self, data, fs=200.0):
        rec = make_record(data, fs=fs)
        c = coherency(quiet_cross_spectrum(rec, 512))
        a = bandpass_analytic(rec, ALPHA)
        return [
            coherence_matrix(c, ALPHA),
            icoh_matrix(c, ALPHA),
            plv_matrix(a),
            pli_matrix(a),
            aec_matrix(a),
        ]

    def test_range_and_symmetry(self, rng):
        data = rng.standard_normal((4, 512 * 4))
        for cm in self.build_all(data):
            assert np.all(cm.weights >= 0.0)
            assert np.all(cm.weights <= 1.0)
            assert np.array_equal(cm.weights, cm.weights.T)

    def test_amplitude_invariance(self, rng):
        data = rng.standard_normal((3, 512 * 4))
        scaled = data.copy()
        scaled[0] *= 12.5
        for cm1, cm2 in zip(self.build_all(data), self.build_all(scaled)):
            assert np.max(np.abs(cm1.weights - cm2.weights)) < 1e-9

    def test_zero_lag_blindness(self, rng):
        # rank-1 mixing of a single source: volume-conduction dichotomy
        lib = generate_synthetic_sources(1, 10000, 200.0, 10.0, seed=5)
        src = SourceActivity(data=lib.data, fs=200.0)
        gains = 0.2 + rng.random((6, 1))
        lf = LeadField(gain=gains, montage="custom",
                       channel_names=tuple(f"c{i}" for i in range(6)))
        rec = project_to_scalp(lf, src)
        c = coherency(quiet_cross_spectrum(rec, 512))
        a = bandpass_analytic(rec, ALPHA)
        off = ~np.eye(6, dtype=bool)
        assert np.all(coherence_matrix(c, ALPHA).weights[off] > 0.9)
        assert np.all(plv_matrix(a).weights[off] > 0.9)
        assert np.all(icoh_matrix(c, ALPHA).weights[off] < 0.05)
        assert np.all(pli_matrix(a).weights[off] < 0.05)
