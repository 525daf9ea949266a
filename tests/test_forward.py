import numpy as np
import pytest

from conftest import make_record, quiet_cross_spectrum
from oracles import naive_matmul, reference_source_activity

from fcdist import (
    assemble_source_activity,
    generate_synthetic_leadfield,
    generate_synthetic_sources,
    project_to_scalp,
)
from fcdist.errors import (
    BandOutOfRange,
    EmptyRequest,
    FcdistError,
    InsufficientLibrary,
    InsufficientSamples,
    InvalidData,
    ShapeMismatch,
    UnknownMontage,
)
from fcdist.connectivity import ConnectivityMatrix
from fcdist.forward import LeadField, MultichannelRecord, SourceActivity, SourceLibrary
from fcdist.montages import BUILTIN_MONTAGES, Montage
from fcdist.spectral import ALPHA, AnalyticRecord, CoherencyMatrix, CrossSpectrum
from fcdist.weight_stats import WeightVector


def small_library(n=12, samples=600, fs=200.0, seed=7):
    return generate_synthetic_sources(n, samples, fs, 10.0, seed=seed)


class TestAssemble:
    def test_all_active_no_noise(self):
        lib = small_library()
        src = assemble_source_activity(lib, 5, 5, 0.3, 600, seed=1)
        assert src.data.shape == (5, 600)
        # every output row is a normalized library row, in permuted order
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
        with pytest.raises(EmptyRequest):
            generate_synthetic_sources(0, 800, 200.0, 10.0, seed=0)

    def test_band_out_of_range(self):
        with pytest.raises(BandOutOfRange):
            generate_synthetic_sources(2, 800, 200.0, 120.0, seed=0)

    def test_rows_finite_and_shaped(self):
        lib = generate_synthetic_sources(7, 640, 128.0, 9.0, seed=2)
        assert lib.data.shape == (7, 640)
        assert np.all(np.isfinite(lib.data))


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
        with pytest.raises(UnknownMontage):
            generate_synthetic_leadfield("std21", 100, seed=0)

    def test_montage_by_count(self):
        lf = generate_synthetic_leadfield(64, 80, seed=0)
        assert lf.montage == "egi64"

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
        (WeightVector, dict(w=np.array([0.25, 0.5]))),
        (Montage, dict(label="x", names=names, positions=np.eye(2, 3))),
    ]


_ARRAY_FIELDS = [
    pytest.param(cls, kwargs, name, id=f"{cls.__name__}.{name}")
    for cls, kwargs in _containers()
    for name, value in kwargs.items()
    if isinstance(value, np.ndarray)
]


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
        value = getattr(cls(**{k: v.copy() if isinstance(v, np.ndarray) else v
                               for k, v in kwargs.items()}), name)
        assert not value.flags.writeable
        assert value.flags.c_contiguous

    @pytest.mark.parametrize("fs", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("cls, kwargs", [
        pytest.param(cls, kwargs, id=cls.__name__) for cls, kwargs in _containers()
        if cls.__module__ == "fcdist.forward" and "fs" in kwargs
    ])
    def test_fs_positive_and_finite(self, cls, kwargs, fs):
        with pytest.raises(InvalidData, match="fs"):
            cls(**{**kwargs, "fs": fs})

    def test_contiguous_input_not_copied(self, rng):
        data = rng.standard_normal((3, 16))
        assert np.shares_memory(SourceActivity(data=data, fs=1.0).data, data)
        rec = make_record(rng.standard_normal((3, 64 * 4)), fs=64.0)
        mats = quiet_cross_spectrum(rec, 64).mats.copy()
        freqs = np.arange(1.0, mats.shape[0] + 1)
        cs = CrossSpectrum(freqs=freqs, mats=mats, n_segments=4)
        assert np.shares_memory(cs.mats, mats)
        assert np.shares_memory(cs.freqs, freqs)
