import numpy as np
import pytest

from conftest import caller_blas_threads, make_analytic, make_record, quiet_cross_spectrum
from oracles import (
    explicit_first_projection,
    naive_matmul,
    reference_source_activity,
    rowloop_synthetic_sources,
)

from fcdist import (
    assemble_source_activity,
    forward,
    generate_synthetic_leadfield,
    generate_synthetic_sources,
    matrix_io,
    pipeline,
    project_to_scalp,
)
from fcdist.errors import (
    DegenerateEnvelope,
    FcdistError,
    InsufficientLibrary,
    InsufficientSamples,
    InvalidData,
    ShapeMismatch,
    TooShort,
)
from fcdist.connectivity import ConnectivityMatrix, aec_matrix, plv_matrix
from fcdist.forward import LeadField, MultichannelRecord, SourceActivity, SourceLibrary
from fcdist.montages import BUILTIN_MONTAGES, Montage, get_montage
from fcdist.spectral import ALPHA, AnalyticRecord, CoherencyMatrix, CrossSpectrum


def small_library(n=12, samples=600, fs=200.0, seed=7):
    return generate_synthetic_sources(n, samples, fs, 10.0, seed=seed)


class TestAssemble:
    def test_all_active_no_noise(self):
        lib = small_library()
        src = assemble_source_activity(lib, 5, 5, 0.3, 600, seed=1)
        assert src.data.shape == (5, 600)
        # every output row is a normalized library row
        normed = lib.data[:, :600] / lib.data[:, :600].std(axis=1, keepdims=True)
        lib_rows = {row.tobytes() for row in normed}
        for row in src.data:
            assert row.tobytes() in lib_rows

    def test_paper_scale_shapes(self):
        lib = generate_synthetic_sources(200, 10000, 200.0, 10.0, seed=3)
        src = assemble_source_activity(lib, 3002, 200, 0.01, 10000, seed=4)
        # only the active rows are explicit; the fill is described
        assert src.data.shape == (200, 10000)
        assert src.n_sources == 3002
        assert src.noise_sigma == 0.01
        assert np.unique(src.columns).size == 200
        assert src.columns.min() >= 0 and src.columns.max() < 3002
        # all 200 rows match normalized library rows bit-exactly
        normed = lib.data / lib.data.std(axis=1, keepdims=True)
        lib_rows = {row.tobytes() for row in normed}
        matches = sum(row.tobytes() in lib_rows for row in src.data)
        assert matches == 200

    def test_noise_sigma_monte_carlo(self):
        # fill only, seen on the scalp: channel c has variance
        # sigma^2 * sum_k G[c, k]^2 (relative standard error sqrt(2/T) = 1.4 %)
        lib = small_library(samples=10000)
        lf = generate_synthetic_leadfield("std19", 100, seed=5)
        src = assemble_source_activity(lib, 100, 0, 1.0, 10000, seed=11)
        rec = project_to_scalp(lf, src)
        expected = (lf.gain**2).sum(axis=1)
        assert np.max(np.abs(rec.data.var(axis=1) / expected - 1.0)) < 0.06

    def test_deterministic(self):
        lib = small_library()
        a = assemble_source_activity(lib, 30, 10, 0.05, 500, seed=42)
        b = assemble_source_activity(lib, 30, 10, 0.05, 500, seed=42)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.columns, b.columns)
        assert a.noise_seed == b.noise_seed

    def test_seed_changes_output(self):
        lib = small_library()
        a = assemble_source_activity(lib, 30, 10, 0.05, 500, seed=1)
        b = assemble_source_activity(lib, 30, 10, 0.05, 500, seed=2)
        assert not np.array_equal(a.data, b.data)
        assert a.noise_seed != b.noise_seed

    def test_active_rows_match_reference(self):
        lib = small_library()
        src = assemble_source_activity(lib, 30, 10, 0.05, 500, seed=42)
        ref = reference_source_activity(lib, 30, 10, 0.05, 500, seed=42)
        assert np.array_equal(src.data, ref.data[src.columns])

    def test_rows_in_library_order(self):
        # The chosen rows are listed by library row, each with the column the
        # seed drew for it, so the record is summed in library order.
        lib = small_library(30, 500)
        src = assemble_source_activity(lib, 40, 20, 0.05, 500, seed=42)
        normed = lib.data / lib.data.std(axis=1, keepdims=True)
        where = {row.tobytes(): i for i, row in enumerate(normed)}
        picked = [where[row.tobytes()] for row in src.data]
        assert picked == sorted(picked) and len(set(picked)) == 20
        ref = reference_source_activity(lib, 40, 20, 0.05, 500, seed=42)
        assert np.array_equal(src.data, ref.data[src.columns])

    def test_active_rows_match_reference_across_blocks(self):
        # 200 rows of 10,000 samples span several row blocks of the
        # normalisation, the last one partial.
        lib = small_library(200, 10000)
        src = assemble_source_activity(lib, 300, 200, 0.05, 10000, seed=42)
        ref = reference_source_activity(lib, 300, 200, 0.05, 10000, seed=42)
        assert np.array_equal(src.data, ref.data[src.columns])

    def test_insufficient_library(self):
        lib = small_library(n=4)
        with pytest.raises(InsufficientLibrary):
            assemble_source_activity(lib, 10, 5, 0.1, 500, seed=0)

    def test_insufficient_samples(self):
        lib = small_library(samples=300)
        with pytest.raises(InsufficientSamples):
            assemble_source_activity(lib, 10, 5, 0.1, 400, seed=0)

    def test_active_leq_total(self):
        lib = small_library()
        with pytest.raises(ValueError):
            assemble_source_activity(lib, 4, 5, 0.1, 300, seed=0)

    @pytest.mark.parametrize("n_total, n_active, samples, message", [
        (0, 0, 300, "n_total must be >= 1"),
        (10, 5, 0, "n_samples must be >= 1"),
    ], ids=["no-sources", "no-samples"])
    def test_no_sources_or_samples(self, n_total, n_active, samples, message):
        with pytest.raises(ValueError, match=message) as err:
            assemble_source_activity(small_library(), n_total, n_active, 0.1, samples)
        assert not isinstance(err.value, FcdistError)


class TestSyntheticSources:
    def test_alpha_peak(self):
        lib = generate_synthetic_sources(1, 10000, 200.0, 10.0, seed=5)
        rec = make_record(lib.data, fs=200.0)
        cs = quiet_cross_spectrum(rec, 512)
        power = cs.mats[:, 0, 0].real
        peak = cs.freqs[int(np.argmax(power))]
        assert 8.0 <= peak <= 13.0

    def test_alpha_peak_other_frequency(self):
        lib = generate_synthetic_sources(1, 10000, 250.0, 20.0, seed=6)
        rec = make_record(lib.data, fs=250.0)
        cs = quiet_cross_spectrum(rec, 512)
        power = cs.mats[:, 0, 0].real
        peak = cs.freqs[int(np.argmax(power))]
        assert 15.0 <= peak <= 25.0

    def test_deterministic(self):
        a = generate_synthetic_sources(6, 800, 200.0, 10.0, seed=9)
        b = generate_synthetic_sources(6, 800, 200.0, 10.0, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_empty_request(self):
        with pytest.raises(ValueError, match="n_sources must be >= 1"):
            generate_synthetic_sources(0, 800, 200.0, 10.0, seed=0)

    def test_band_out_of_range(self):
        with pytest.raises(ValueError, match=r"alpha_hz=120.0 outside \(0, 100.0\)"):
            generate_synthetic_sources(2, 800, 200.0, 120.0, seed=0)

    def test_rows_finite_and_shaped(self):
        lib = generate_synthetic_sources(7, 640, 128.0, 9.0, seed=2)
        assert lib.data.shape == (7, 640)
        assert np.all(np.isfinite(lib.data))

    @pytest.mark.parametrize("n_samples", [10000, 801])
    def test_expected_unit_variance(self, n_samples):
        # background and private rhythm are scaled to expected variance
        # 1 - v, the network rhythm to exactly v
        lib = generate_synthetic_sources(200, n_samples, 200.0, 10.0, seed=1)
        assert abs(lib.data.var(axis=1).mean() - 1.0) < 0.05


# Rows of 10,000 samples per block of the generator's row synthesis, and per
# block of active rows that the projection takes.
_BLOCK_ROWS = forward._BLOCK_BYTES // (4 * 16 * 5001)
_ACTIVE_BLOCK_ROWS = forward._BLOCK_BYTES // (8 * 10000)


class TestBlockedSynthesis:
    @pytest.mark.parametrize("n, samples, fs, alpha, seed", [
        (1, 10000, 200.0, 10.0, 3),
        (_BLOCK_ROWS - 1, 10000, 200.0, 10.0, 11),
        (_BLOCK_ROWS, 10000, 200.0, 10.0, 11),
        (_BLOCK_ROWS + 1, 10000, 200.0, 10.0, 11),
        (200, 10000, 200.0, 10.0, 1),
        (37, 801, 200.0, 10.0, 5),
        (3, 4, 200.0, 10.0, 2),
        (50, 4001, 250.0, 40.0, 123),
    ])
    def test_rows_equal_row_loop(self, n, samples, fs, alpha, seed):
        lib = generate_synthetic_sources(n, samples, fs, alpha, seed=seed)
        assert np.array_equal(lib.data, rowloop_synthetic_sources(n, samples, fs, alpha, seed))

    @pytest.mark.parametrize("n_total, n_active, samples, fs, alpha", [
        (3002, 200, 10000, 200.0, 10.0),
        (30, 1, 500, 200.0, 10.0),
        (7, 7, 333, 250.0, 40.0),
        (40, 12, 4, 200.0, 10.0),
        (3002, _ACTIVE_BLOCK_ROWS - 1, 10000, 200.0, 10.0),
        (3002, 2 * _ACTIVE_BLOCK_ROWS, 10000, 200.0, 10.0),
        (3002, 2 * _ACTIVE_BLOCK_ROWS + 1, 10000, 200.0, 10.0),
    ])
    def test_fused_equals_generate_then_assemble(self, n_total, n_active, samples, fs, alpha):
        # A grid cell synthesizes and assembles its rows a block at a time, and
        # its record equals projecting the library's assembled activity.
        cfg = pipeline.ExperimentConfig(montages=(19,), trials=3, fs=fs, n_samples=samples,
                                        n_sources=n_total, n_active=n_active,
                                        noise_sigma=0.05, alpha_hz=alpha, master_seed=4)
        lf = generate_synthetic_leadfield(19, n_total, seed=pipeline.mix64(4, 19, 3))
        lib = generate_synthetic_sources(n_active, samples, fs, alpha,
                                         seed=pipeline.mix64(4, 2, 19, 1))
        two_step = assemble_source_activity(lib, n_total, n_active, 0.05, samples,
                                            seed=pipeline.mix64(4, 2, 19, 2))
        assert np.array_equal(pipeline.cell_record(cfg, 19, 2).data,
                              project_to_scalp(lf, two_step).data)

    def test_library_record_equals_two_step(self, tmp_path):
        # 45 of 60 library rows, cut from 9,010 to 9,000 samples: one whole row
        # block and part of another, copied from rows longer than those used.
        lib = generate_synthetic_sources(60, 9010, 200.0, 10.0, seed=5)
        matrix_io.write_source_library(tmp_path / "lib.csv", lib)
        lib = matrix_io.read_source_library(tmp_path / "lib.csv")
        cfg = pipeline.ExperimentConfig(montages=(19,), trials=3, n_samples=9000,
                                        n_sources=300, n_active=45, master_seed=4,
                                        source_mode=f"file:{tmp_path / 'lib.csv'}")
        assert forward._BLOCK_BYTES // (8 * 9000) < 45
        lf = generate_synthetic_leadfield(19, 300, seed=pipeline.mix64(4, 19, 3))
        two_step = assemble_source_activity(lib, 300, 45, cfg.noise_sigma, 9000,
                                            seed=pipeline.mix64(4, 1, 19, 2))
        assert np.array_equal(pipeline.cell_record(cfg, 19, 1).data,
                              project_to_scalp(lf, two_step).data)

    @pytest.mark.parametrize("args, error", [
        ((30, 0, 0.05, 500, 200.0, 10.0), ValueError),
        ((30, 10, 0.05, 500, float("inf"), 10.0), ValueError),
        ((30, 10, 0.05, 500, 200.0, 120.0), ValueError),
        ((5, 10, 0.05, 500, 200.0, 10.0), ValueError),
        ((30, 10, -1.0, 500, 200.0, 10.0), ValueError),
        ((30, 10, np.inf, 500, 200.0, 10.0), ValueError),
    ])
    def test_fused_rejects_as_two_step(self, args, error):
        # The streamed activity calls the library's row count n_active.
        n_total, n_active, sigma, samples, fs, alpha = args
        with pytest.raises(error) as two_step:
            lib = generate_synthetic_sources(n_active, samples, fs, alpha)
            assemble_source_activity(lib, n_total, n_active, sigma, samples)
        with pytest.raises(error) as fused:
            forward._synthetic_activity(*args, library_seed=0, seed=0)
        assert str(fused.value) == str(two_step.value).replace("n_sources", "n_active")
        # A bad argument is a plain ValueError, bad data an InvalidData.
        assert isinstance(fused.value, FcdistError) == issubclass(error, FcdistError)


class TestSyntheticLeadfield:
    def test_std19_shape(self):
        lf = generate_synthetic_leadfield("std19", 3002, seed=1)
        assert lf.gain.shape == (19, 3002)
        assert lf.channel_names[:2] == ("Fp1", "Fp2")

    @pytest.mark.parametrize("label,n_ch", [("egi32", 32), ("egi64", 64), ("egi128", 128)])
    def test_builtin_sizes(self, label, n_ch):
        lf = generate_synthetic_leadfield(label, 50, seed=1)
        assert lf.gain.shape == (n_ch, 50)

    def test_all_positive(self):
        lf = generate_synthetic_leadfield("egi32", 400, seed=3)
        assert np.all(lf.gain > 0)

    def test_adjacent_rows_more_correlated(self):
        lf = generate_synthetic_leadfield("std19", 3002, seed=4)
        names = list(lf.channel_names)
        def row(name):
            return lf.gain[names.index(name)]
        def corr(a, b):
            return float(np.corrcoef(a, b)[0, 1])
        adjacent = corr(row("Fp1"), row("Fp2"))
        antipodal = corr(row("T3"), row("T4"))
        assert adjacent > antipodal

    def test_unknown_montage(self):
        with pytest.raises(ValueError, match="unknown montage") as err:
            generate_synthetic_leadfield("std21", 100, seed=0)
        assert not isinstance(err.value, FcdistError)

    def test_no_montage_of_that_size(self):
        for count in (21, np.int64(21), np.uint8(21)):
            with pytest.raises(ValueError, match="no built-in montage with 21 channels") as err:
                get_montage(count)
            assert not isinstance(err.value, FcdistError)

    def test_montage_by_count(self):
        for count in (64, np.int64(64), np.int16(64)):
            lf = generate_synthetic_leadfield(count, 80, seed=0)
            assert lf.montage == "egi64"
        assert get_montage(np.int32(19)) is BUILTIN_MONTAGES["std19"]

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_is_no_montage_count(self, flag):
        with pytest.raises(ValueError, match=f"got {flag} of type bool") as err:
            get_montage(flag)
        assert not isinstance(err.value, FcdistError)

    def test_custom_montage_object(self):
        lf = generate_synthetic_leadfield(BUILTIN_MONTAGES["egi32"], 60, seed=0)
        assert lf.n_channels == 32

    def test_deterministic(self):
        a = generate_synthetic_leadfield("std19", 100, seed=8)
        b = generate_synthetic_leadfield("std19", 100, seed=8)
        assert np.array_equal(a.gain, b.gain)


class TestProjection:
    def test_identity_gain(self, rng):
        data = rng.standard_normal((4, 50))
        src = SourceActivity(data=data, fs=100.0)
        lf = LeadField(gain=np.eye(4), montage="custom",
                       channel_names=("a", "b", "c", "d"))
        rec = project_to_scalp(lf, src)
        assert np.array_equal(rec.data, data)
        assert rec.fs == 100.0

    def test_single_source_column(self, rng):
        s = rng.standard_normal(40)
        src = SourceActivity(data=s[None, :], fs=50.0)
        lf = LeadField(gain=np.array([[2.0], [1.0]]), montage="custom",
                       channel_names=("a", "b"))
        rec = project_to_scalp(lf, src)
        assert np.allclose(rec.data[0], 2.0 * s)
        assert np.allclose(rec.data[1], s)

    def test_matches_naive_matmul(self, rng):
        gain = rng.standard_normal((4, 6))
        data = rng.standard_normal((6, 50))
        lf = LeadField(gain=gain, montage="custom",
                       channel_names=tuple("abcd"))
        src = SourceActivity(data=data, fs=10.0)
        rec = project_to_scalp(lf, src)
        assert np.max(np.abs(rec.data - naive_matmul(gain, data))) < 1e-12

    def test_linearity(self, rng):
        gain = rng.standard_normal((3, 5))
        lf = LeadField(gain=gain, montage="custom", channel_names=tuple("abc"))
        x = rng.standard_normal((5, 30))
        y = rng.standard_normal((5, 30))
        a, b = 1.7, -0.4
        combined = project_to_scalp(lf, SourceActivity(data=a * x + b * y, fs=1.0))
        separate = (a * project_to_scalp(lf, SourceActivity(data=x, fs=1.0)).data
                    + b * project_to_scalp(lf, SourceActivity(data=y, fs=1.0)).data)
        assert np.max(np.abs(combined.data - separate)) < 1e-10

    def test_shape_mismatch(self, rng):
        lf = LeadField(gain=rng.standard_normal((3, 5)), montage="custom",
                       channel_names=tuple("abc"))
        src = SourceActivity(data=rng.standard_normal((4, 20)), fs=1.0)
        with pytest.raises(ShapeMismatch):
            project_to_scalp(lf, src)


class TestChannelSpaceFill:
    def test_sigma_zero_equals_full_matrix(self):
        lib = generate_synthetic_sources(200, 2000, 200.0, 10.0, seed=3)
        lf = generate_synthetic_leadfield("egi64", 3002, seed=1)
        src = assemble_source_activity(lib, 3002, 200, 0.0, 2000, seed=4)
        ref = reference_source_activity(lib, 3002, 200, 0.0, 2000, seed=4)
        rec = project_to_scalp(lf, src)
        assert np.max(np.abs(rec.data - lf.gain @ ref.data)) < 1e-12

    # The fill's product is added one row block of the root at a time; the oracle
    # adds the single product root @ z. At 10,000 samples a block has 26 rows, so
    # 128 channels (4 x 26 + 24) end in a partial block; one channel is one row.
    @pytest.mark.parametrize("montage, n_channels, noise_sigma, n_samples", [
        ("std19", 19, 0.01, 2000), ("egi128", 128, 0.01, 2000), ("egi64", 64, 0.0, 2000),
        ("egi128", 128, 0.01, 10000), ("egi128", 1, 0.01, 2000),
    ], ids=["std19-0.01", "egi128-0.01", "egi64-0.0", "egi128-partial-block", "1-channel"])
    def test_fill_first_equals_explicit_first(self, montage, n_channels, noise_sigma,
                                              n_samples):
        lib = generate_synthetic_sources(200, n_samples, 200.0, 10.0, seed=3)
        lf = generate_synthetic_leadfield(montage, 3002, seed=1)
        lf = LeadField(gain=lf.gain[:n_channels], montage=lf.montage,
                       channel_names=lf.channel_names[:n_channels])
        src = assemble_source_activity(lib, 3002, 200, noise_sigma, n_samples, seed=4)
        assert np.array_equal(project_to_scalp(lf, src).data,
                              explicit_first_projection(lf, src).data)

    def test_fill_covariance(self):
        # Fill only (no active rows), sigma = 1: the empirical channel
        # covariance C^ of T white samples has entry-wise standard error
        # sqrt((C_ii C_jj + C_ij^2) / T) around C = G_n G_n^T; allow 5 of them.
        n_samples = 20000
        lib = small_library(samples=n_samples)
        lf = generate_synthetic_leadfield("std19", 300, seed=2)
        src = assemble_source_activity(lib, 300, 0, 1.0, n_samples, seed=3)
        rec = project_to_scalp(lf, src)
        expected = lf.gain @ lf.gain.T
        empirical = rec.data @ rec.data.T / n_samples
        d = np.diag(expected)
        se = np.sqrt((np.outer(d, d) + expected**2) / n_samples)
        assert np.all(np.abs(empirical - expected) < 5.0 * se)

    @pytest.mark.parametrize("gain", [
        np.arange(1.0, 25.0).reshape(8, 3),  # 8 channels, 3 fill columns
        np.repeat(np.arange(1.0, 9.0)[:, None], 6, axis=1),  # one column, six times
    ], ids=["more-channels-than-fill", "duplicated-columns"])
    def test_rank_deficient_gain(self, gain):
        lf = LeadField(gain=gain, montage="custom",
                       channel_names=tuple(str(c) for c in range(gain.shape[0])))
        src = SourceActivity(data=np.zeros((0, 400)), fs=100.0,
                             n_sources=gain.shape[1], noise_sigma=0.5, noise_seed=7)
        rec = project_to_scalp(lf, src)
        assert np.all(np.isfinite(rec.data))
        # The fill stays in the span of the gain columns: an eigenvalue that
        # is zero up to rounding (~1e-16 relative) adds at most ~1e-8 relative
        # amplitude outside it once square-rooted.
        tol = 1e-6 * np.abs(rec.data).max()
        assert np.linalg.matrix_rank(rec.data, tol=tol) == np.linalg.matrix_rank(gain)

    def test_hand_built_has_no_fill(self, rng):
        data = rng.standard_normal((3, 20))
        src = SourceActivity(data=data, fs=10.0)
        assert np.array_equal(src.columns, np.arange(3))
        assert src.n_sources == 3 and src.noise_sigma == 0.0
        assert not src.columns.flags.writeable

    @pytest.mark.parametrize("kwargs", [
        dict(columns=np.array([0, 5])),  # outside n_sources
        dict(columns=np.array([1, 1])),  # repeated column
        dict(columns=np.array([0])),  # one column for two rows
        dict(n_sources=1),  # fewer sources than explicit rows
        dict(noise_sigma=-0.1),
        dict(noise_sigma=np.inf),
        dict(noise_seed=-1),
    ])
    def test_rejects_bad_fill_description(self, rng, kwargs):
        with pytest.raises(InvalidData):
            SourceActivity(data=rng.standard_normal((2, 5)), fs=1.0,
                           **{"n_sources": 4, **kwargs})

    def test_shape_mismatch_counts_fill(self):
        lib = small_library()
        src = assemble_source_activity(lib, 30, 5, 0.1, 500, seed=1)
        lf = generate_synthetic_leadfield("std19", 29, seed=1)
        with pytest.raises(ShapeMismatch):
            project_to_scalp(lf, src)


def _blas_cases():
    """Per function that does BLAS work: a numpy function that it calls, a call of it,
    and a call of it that raises."""
    lf = generate_synthetic_leadfield("std19", 30, seed=1)
    rng = np.random.default_rng(2)
    phase = rng.uniform(-np.pi, np.pi, (3, 2000))
    analytic = make_analytic(phase, envelope=rng.uniform(0.5, 1.5, phase.shape))
    return {
        "leadfield": (np, "sum", lambda: generate_synthetic_leadfield("std19", 30),
                      ValueError, lambda: generate_synthetic_leadfield("std19", 0)),
        "project": (np.linalg, "eigh",
                    lambda: project_to_scalp(lf, SourceActivity(np.ones((2, 50)), 200.0,
                                                                n_sources=30, noise_sigma=0.1)),
                    ShapeMismatch,
                    lambda: project_to_scalp(lf, SourceActivity(np.ones((2, 50)), 200.0))),
        "plv": (np, "exp", lambda: plv_matrix(analytic),
                TooShort, lambda: plv_matrix(make_analytic(phase[:, :100]))),
        # constant envelopes: the window loop runs, then the pairs fail
        "aec": (np, "sum", lambda: aec_matrix(analytic),
                DegenerateEnvelope, lambda: aec_matrix(make_analytic(phase))),
    }


class TestBlasThreads:
    """The four functions that do BLAS work run it with one OpenBLAS thread and give
    the caller its own count back, also when they raise."""

    @pytest.mark.parametrize("name", ["leadfield", "project", "plv", "aec"])
    def test_a_call_runs_with_one_thread(self, monkeypatch, name):
        owner, attr, call, _, _ = _blas_cases()[name]
        inner, seen = getattr(owner, attr), []

        def recording(*args, **kwargs):
            seen.append(forward._blas_threads())
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, recording)
        with caller_blas_threads(2) as n:
            call()
            assert seen and seen == [[1] * n] * len(seen)
            assert forward._blas_threads() == [2] * n

    @pytest.mark.parametrize("name", ["leadfield", "project", "plv", "aec"])
    def test_a_raising_call_restores_the_callers_count(self, name):
        _, _, _, error, call = _blas_cases()[name]
        with caller_blas_threads(2) as n:
            with pytest.raises(error):
                call()
            assert forward._blas_threads() == [2] * n


class TestTypes:
    def test_leadfield_rejects_zero_row(self):
        with pytest.raises(ValueError):
            LeadField(gain=np.array([[1.0, 2.0], [0.0, 0.0]]), montage="x",
                      channel_names=("a", "b"))

    def test_library_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SourceLibrary(data=np.array([[1.0, np.nan]]), fs=1.0)

    def test_record_channel_names_must_match(self, rng):
        from fcdist.forward import MultichannelRecord
        with pytest.raises(ValueError):
            MultichannelRecord(data=rng.standard_normal((3, 10)), fs=1.0,
                               channel_names=("a", "b"))


def _containers():
    """(container, valid keyword arguments) for every checked-array container."""
    rows = np.arange(8.0).reshape(2, 4)
    names = ("a", "b")
    freqs = np.array([1.0, 2.0])
    mats = np.stack([np.eye(2, dtype=complex)] * 2)
    return [
        (SourceLibrary, dict(data=rows, fs=1.0)),
        (SourceActivity, dict(data=rows, fs=1.0)),
        (LeadField, dict(gain=rows + 1.0, montage="x", channel_names=names)),
        (MultichannelRecord, dict(data=rows, fs=1.0, channel_names=names)),
        (CrossSpectrum, dict(freqs=freqs, mats=mats, n_segments=2)),
        (CoherencyMatrix, dict(freqs=freqs, mats=mats)),
        (AnalyticRecord, dict(phase=rows / 8.0, envelope=rows, fs=1.0, band=ALPHA)),
        (ConnectivityMatrix, dict(metric="AEC", band=ALPHA, weights=np.eye(2))),
        (Montage, dict(label="x", names=names, positions=np.eye(2, 3))),
    ]


_ARRAY_FIELDS = [
    pytest.param(cls, kwargs, name, id=f"{cls.__name__}.{name}")
    for cls, kwargs in _containers()
    for name, value in kwargs.items()
    if isinstance(value, np.ndarray)
]


_RATE_CONTAINERS = [pytest.param(cls, kwargs, id=cls.__name__)
                    for cls, kwargs in _containers() if "fs" in kwargs]

_STACK = np.stack([np.eye(2, dtype=complex)] * 2)

# (container, fields that replace valid ones, message) for each value check.
_BAD_VALUES = [pytest.param(cls, changes, message, id=name) for name, cls, changes, message in [
    ("weights-not-square", ConnectivityMatrix, dict(weights=np.zeros((2, 3))),
     "weights must be square"),
    ("weights-asymmetric", ConnectivityMatrix, dict(weights=np.array([[0.0, 0.5], [0.2, 0.0]])),
     "weights must be symmetric"),
    ("weights-above-one", ConnectivityMatrix, dict(weights=np.full((2, 2), 1.5)),
     r"weights must lie in \[0, 1\]"),
    ("mats-not-square", CrossSpectrum, dict(mats=np.zeros((2, 2, 3), dtype=complex)),
     r"mats must be \(n_freqs, n, n\)"),
    ("not-hermitian", CrossSpectrum, dict(mats=_STACK + 0.5j * (1 - np.eye(2))),
     r"matrices not Hermitian \(max deviation 1\)"),
    ("negative-power", CrossSpectrum, dict(mats=-_STACK),
     "diagonal must be real and non-negative"),
    ("no-segments", CrossSpectrum, dict(n_segments=0), "n_segments must be >= 1"),
    ("bool-segments", CrossSpectrum, dict(n_segments=True), "n_segments must be an int, got True"),
    ("coherency-above-one", CoherencyMatrix, dict(mats=2 * _STACK),
     "coherency magnitudes exceed 1"),
    ("phase-envelope-shapes", AnalyticRecord, dict(phase=np.zeros((2, 3))),
     "phase and envelope shapes must match"),
    ("negative-envelope", AnalyticRecord, dict(envelope=-np.ones((2, 4))),
     "envelope must be non-negative"),
    ("phase-minus-pi", AnalyticRecord, dict(phase=np.full((2, 4), -np.pi)),
     r"phase must lie in \(-pi, pi\]"),
    ("library-no-rows", SourceLibrary, dict(data=np.zeros((0, 4))),
     "library must hold at least one row and one sample"),
    ("activity-no-samples", SourceActivity, dict(data=np.zeros((2, 0))),
     "need at least one source and one sample"),
    ("str-n-sources", SourceActivity, dict(n_sources="3"), "n_sources must be an int, got '3'"),
    ("str-noise-sigma", SourceActivity, dict(noise_sigma="0.1"),
     "noise_sigma must be a number, got '0.1'"),
    ("float-noise-seed", SourceActivity, dict(noise_seed=1.5), "noise_seed must be an int, got 1.5"),
    ("bool-n-sources", SourceActivity, dict(n_sources=True), "n_sources must be an int, got True"),
    ("bool-noise-sigma", SourceActivity, dict(noise_sigma=True),
     "noise_sigma must be a number, got True"),
    ("gain-name-count", LeadField, dict(channel_names=("a",)),
     "one channel name per gain row required"),
    ("positions-shape", Montage, dict(positions=np.eye(2)),
     r"positions must be \(n_channels, 3\)"),
    # A 1-D value is no one-row record.
    ("record-1d", MultichannelRecord, dict(data=np.arange(4.0)),
     r"data must be 2-D, got shape \(4,\)"),
]]


# (call, message) for each count or scale argument of the forward layer that is no
# number of its kind: a plain ValueError that names the argument.
_BAD_ARGUMENTS = [pytest.param(call, message, id=name) for name, call, message in [
    ("leadfield-float-sources", lambda: generate_synthetic_leadfield("std19", 2.5),
     "n_sources must be an int, got 2.5"),
    ("sources-float-count", lambda: generate_synthetic_sources(2.5, 100, 200.0),
     "n_sources must be an int, got 2.5"),
    ("sources-float-samples", lambda: generate_synthetic_sources(3, 100.0, 200.0),
     "n_samples must be an int, got 100.0"),
    ("sources-str-alpha", lambda: generate_synthetic_sources(3, 100, 200.0, "10"),
     "alpha_hz must be a number, got '10'"),
    ("assemble-float-active", lambda: assemble_source_activity(small_library(), 4, 2.0, 0.0, 100),
     "n_active must be an int, got 2.0"),
    ("assemble-float-total", lambda: assemble_source_activity(small_library(), 3.5, 2, 0.0, 100),
     "n_total must be an int, got 3.5"),
    ("assemble-bool-total", lambda: assemble_source_activity(small_library(), True, 1, 0.0, 50),
     "n_total must be an int, got True"),
    ("assemble-float-samples", lambda: assemble_source_activity(small_library(), 4, 2, 0.0, 50.0),
     "n_samples must be an int, got 50.0"),
    ("assemble-str-sigma", lambda: assemble_source_activity(small_library(), 4, 2, "0.1", 50),
     "noise_sigma must be a number, got '0.1'"),
    # A grid cell's streamed synthetic activity names its row count n_active.
    ("streamed-float-active",
     lambda: forward._synthetic_activity(4, 2.0, 0.0, 100, 200.0, 10.0, 0, 0),
     "n_active must be an int, got 2.0"),
    ("streamed-bool-active",
     lambda: forward._synthetic_activity(4, True, 0.0, 100, 200.0, 10.0, 0, 0),
     "n_active must be an int, got True"),
]]


class TestArguments:
    @pytest.mark.parametrize("call, message", _BAD_ARGUMENTS)
    def test_bad_argument_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=message) as err:
            call()
        assert not isinstance(err.value, FcdistError)

    def test_numpy_counts_and_scales(self):
        # NumPy integers and floats build the activity of the equal Python values.
        lib = small_library()
        lf = generate_synthetic_leadfield(np.int64(19), np.int32(30), seed=2)
        assert np.array_equal(lf.gain, generate_synthetic_leadfield(19, 30, seed=2).gain)
        numpy_src, python_src = [assemble_source_activity(lib, np.int64(30), np.int64(4),
                                                          np.float32(0.25), np.int64(50), seed=3),
                                 assemble_source_activity(lib, 30, 4, 0.25, 50, seed=3)]
        assert np.array_equal(numpy_src.data, python_src.data)
        assert np.array_equal(numpy_src.columns, python_src.columns)
        assert (numpy_src.n_sources, numpy_src.noise_sigma, numpy_src.noise_seed) == \
            (python_src.n_sources, python_src.noise_sigma, python_src.noise_seed)
        assert np.array_equal(project_to_scalp(lf, numpy_src).data,
                              project_to_scalp(lf, python_src).data)
        streamed = [forward._project(lf, forward._synthetic_activity(*args, seed=3))
                    for args in [(np.int64(30), np.int16(4), np.float32(0.25), np.int64(50),
                                  np.float32(200.0), np.float64(10.0), np.int64(0)),
                                 (30, 4, 0.25, 50, 200.0, 10.0, 0)]]
        assert np.array_equal(streamed[0].data, streamed[1].data)
        sources = generate_synthetic_sources(np.int64(3), np.int64(100), 200.0)
        assert np.array_equal(sources.data, generate_synthetic_sources(3, 100, 200.0).data)


class TestCheckedArrays:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("cls, kwargs, name", _ARRAY_FIELDS)
    def test_non_finite_is_invalid_data(self, cls, kwargs, name, bad):
        poisoned = kwargs[name].copy()
        poisoned.flat[1] = bad
        with pytest.raises(InvalidData, match="finite") as exc:
            cls(**{**kwargs, name: poisoned})
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, FcdistError)

    @pytest.mark.parametrize("cls, kwargs, name", _ARRAY_FIELDS)
    def test_fields_frozen(self, cls, kwargs, name):
        args = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}
        value = getattr(cls(**args), name)
        assert not value.flags.writeable
        assert value.flags.c_contiguous
        assert args[name].flags.writeable  # the caller's own array is not frozen

    @pytest.mark.parametrize("fs", [0.0, -1.0, np.nan, np.inf, "200", None, True])
    @pytest.mark.parametrize("cls, kwargs", _RATE_CONTAINERS)
    def test_fs_positive_and_finite(self, cls, kwargs, fs):
        with pytest.raises(InvalidData, match="fs must be positive and finite"):
            cls(**{**kwargs, "fs": fs})

    @pytest.mark.parametrize("fs", [np.float32(200.0), np.int64(200), 200])
    @pytest.mark.parametrize("cls, kwargs", _RATE_CONTAINERS)
    def test_fs_any_real_number(self, cls, kwargs, fs):
        assert cls(**{**kwargs, "fs": fs}).fs == 200.0

    @pytest.mark.parametrize("cls, changes, message", _BAD_VALUES)
    def test_bad_value_is_invalid_data(self, cls, changes, message):
        kwargs = dict(_containers())[cls]
        with pytest.raises(InvalidData, match=message):
            cls(**{**kwargs, **changes})

    @pytest.mark.parametrize("cls, kwargs", [
        pytest.param(cls, kwargs, id=cls.__name__) for cls, kwargs in _containers()
        if "freqs" in kwargs
    ])
    def test_freqs_length_must_match_mats(self, cls, kwargs):
        with pytest.raises(InvalidData, match="freqs length must match mats"):
            cls(**{**kwargs, "freqs": np.array([1.0, 2.0, 3.0])})

    def test_contiguous_input_not_copied(self, rng):
        data = rng.standard_normal((3, 16))
        assert np.shares_memory(SourceActivity(data=data, fs=1.0).data, data)
        rec = make_record(rng.standard_normal((3, 64 * 4)), fs=64.0)
        mats = quiet_cross_spectrum(rec, 64).mats.copy()
        freqs = np.arange(1.0, mats.shape[0] + 1)
        cs = CrossSpectrum(freqs=freqs, mats=mats, n_segments=4)
        assert np.shares_memory(cs.mats, mats)
        assert np.shares_memory(cs.freqs, freqs)
