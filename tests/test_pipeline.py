import ctypes
import dataclasses
import json
import math
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, poison_alpha_entry, quiet_cross_spectrum
from oracles import allbin_bartlett_coherency

from fcdist import matrix_io, pipeline, spectral, weight_stats
from fcdist.connectivity import (
    METRICS,
    WindowConfig,
    aec_matrix,
    coherence_matrix,
    icoh_matrix,
    pli_matrix,
    plv_matrix,
)
from fcdist.errors import ExperimentFailed, NoData
from fcdist.pipeline import (
    ExperimentConfig,
    band_from_spec,
    config_from_dict,
    config_to_dict,
    mix64,
    run_normative_analysis,
    run_simulation_experiment,
    simulate_cell,
    write_results,
)
from fcdist.spectral import ALPHA, DEFAULT_BANDS, Band, coherency


def _openblas_threads():
    """OpenBLAS thread count of this process, or None where it is not found."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def tiny_config(**overrides):
    base = dict(
        montages=(19,), metrics=("COH", "PLV"), bands=(ALPHA,), trials=3,
        fs=200.0, n_samples=4000, n_sources=300, n_active=40,
        segment_samples=512, master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMix64:
    def test_deterministic_and_distinct(self):
        a = mix64(1, 2, 3)
        assert a == mix64(1, 2, 3)
        assert a != mix64(1, 2, 4)
        assert a != mix64(3, 2, 1)
        assert 0 <= a < 2**64

    def test_negative_inputs_ok(self):
        assert mix64(-1, 5) == mix64(-1, 5)


class TestSimulation:
    def test_cardinality_contract(self):
        cfg = tiny_config(metrics=("COH",), trials=5)
        res = run_simulation_experiment(cfg)
        assert len(res.trial_rows) == 5
        assert len(res.correlation_rows) == 3
        pairs = [r.pair for r in res.correlation_rows]
        assert pairs == ["mcw_skewness", "mcw_kurtosis", "mcw_entropy"]
        assert all(r.n == 5 for r in res.correlation_rows)

    def test_deterministic_outputs(self, tmp_path):
        cfg = tiny_config()
        res1 = run_simulation_experiment(cfg)
        res2 = run_simulation_experiment(cfg)
        write_results(res1, tmp_path / "a")
        write_results(res2, tmp_path / "b")
        for name in ("trials.csv", "correlations.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = tiny_config(trials=4)
        res1 = run_simulation_experiment(cfg, jobs=1)
        res2 = run_simulation_experiment(cfg, jobs=2)
        write_results(res1, tmp_path / "a")
        write_results(res2, tmp_path / "b")
        assert (tmp_path / "a" / "trials.csv").read_bytes() == \
            (tmp_path / "b" / "trials.csv").read_bytes()

    def test_pool_workers_use_one_blas_thread(self):
        # forked after fcdist.pipeline was imported, as every grid worker is
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            threads = pool.submit(_openblas_threads).result()
        if threads is None:
            pytest.skip("no OpenBLAS mapped into the worker")
        assert threads == 1

    def test_seed_isolation_trial_extension(self):
        short = run_simulation_experiment(tiny_config(trials=3))
        long = run_simulation_experiment(tiny_config(trials=4))
        short_rows = [(r.montage, r.metric, r.band, r.trial, r.mcw, r.entropy)
                      for r in short.trial_rows]
        long_rows = [(r.montage, r.metric, r.band, r.trial, r.mcw, r.entropy)
                     for r in long.trial_rows if r.trial < 3]
        assert short_rows == long_rows

    def test_seed_isolation_montage_set(self):
        single = run_simulation_experiment(tiny_config(montages=(19,)))
        double = run_simulation_experiment(tiny_config(montages=(19, 32)))
        single_rows = [(r.metric, r.trial, r.mcw) for r in single.trial_rows]
        double_rows = [(r.metric, r.trial, r.mcw)
                       for r in double.trial_rows if r.montage == 19]
        assert single_rows == double_rows

    def test_master_seed_changes_data(self):
        a = run_simulation_experiment(tiny_config(master_seed=1))
        b = run_simulation_experiment(tiny_config(master_seed=2))
        assert a.trial_rows[0].mcw != b.trial_rows[0].mcw

    def test_partial_failure_recorded(self):
        # segment longer than the record: the two spectral metrics fail
        # (2 of 5 cells per trial), the windowed metrics survive
        cfg = tiny_config(metrics=("COH", "iCOH", "PLV", "PLI", "AEC"),
                          n_samples=2000, segment_samples=1024)
        res = run_simulation_experiment(cfg)
        failed_metrics = {f.metric for f in res.failures}
        assert failed_metrics == {"COH", "iCOH"}
        assert {r.metric for r in res.trial_rows} == {"PLV", "PLI", "AEC"}
        assert len(res.failures) == 2 * cfg.trials

    def test_experiment_failed_above_half(self):
        cfg = tiny_config(metrics=("COH", "iCOH"), n_samples=2000,
                          segment_samples=1024)
        with pytest.raises(ExperimentFailed):
            run_simulation_experiment(cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(trials=2).validate()
        with pytest.raises(ValueError):
            tiny_config(metrics=("COH", "XXX")).validate()
        with pytest.raises(ValueError):
            tiny_config(bands=(Band("hf", 50.0, 120.0),)).validate()
        with pytest.raises(ValueError):
            tiny_config(montages=(21,)).validate()

    @pytest.mark.parametrize("window, match", [
        (WindowConfig(0.004, 0.0), "shorter than two samples"),  # 0.8 samples
        (WindowConfig(1.0, 0.998), "whole window"),  # overlap rounds to 200 of 200
    ], ids=["window-under-two-samples", "overlap-rounds-to-window"])
    def test_window_rejected_before_any_cell(self, monkeypatch, window, match):
        cfg = tiny_config(window=window)
        with pytest.raises(ValueError, match=match):
            cfg.validate()

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(pipeline, "cell_record", no_cell)
        with pytest.raises(ValueError, match=match):
            run_simulation_experiment(cfg)

    @pytest.mark.parametrize("segment_samples", [63, 2])
    def test_segment_samples_rejected_before_any_cell(self, monkeypatch, segment_samples):
        cfg = tiny_config(segment_samples=segment_samples)
        with pytest.raises(ValueError, match="segment_samples must be even and >= 4"):
            cfg.validate()

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(pipeline, "cell_record", no_cell)
        with pytest.raises(ValueError, match="segment_samples must be even and >= 4"):
            run_simulation_experiment(cfg, jobs=2)

    @pytest.mark.parametrize("field", ["source_mode", "leadfield_mode"])
    def test_mode_rejected_before_any_cell(self, monkeypatch, field):
        cfg = tiny_config(**{field: "bogus"})
        with pytest.raises(ValueError, match="mode must be"):
            cfg.validate()

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(pipeline, "cell_record", no_cell)
        with pytest.raises(ValueError, match="mode must be"):
            run_simulation_experiment(cfg, jobs=2)

    def test_file_modes(self, tmp_path):
        from fcdist.forward import generate_synthetic_leadfield, generate_synthetic_sources
        lib = generate_synthetic_sources(40, 4000, 200.0, 10.0, seed=5)
        matrix_io.write_source_library(tmp_path / "lib.csv", lib)
        lf = generate_synthetic_leadfield("std19", 300, seed=6)
        matrix_io.write_leadfield(tmp_path / "lf.csv", lf)
        cfg = tiny_config(
            source_mode=f"file:{tmp_path / 'lib.csv'}",
            leadfield_mode=f"file:{tmp_path / 'lf.csv'}",
        )
        res = run_simulation_experiment(cfg)
        assert len(res.trial_rows) == 6
        assert not res.failures

    def test_file_leadfield_channel_count(self, tmp_path):
        from fcdist.forward import generate_synthetic_leadfield
        lf = generate_synthetic_leadfield("std19", 300, seed=6)
        matrix_io.write_leadfield(tmp_path / "lf.csv", lf)
        cfg = tiny_config(montages=(64,), leadfield_mode=f"file:{tmp_path / 'lf.csv'}")
        with pytest.raises(ExperimentFailed, match="ShapeMismatch"):
            run_simulation_experiment(cfg)

    def test_file_library_rate_must_match_fs(self, tmp_path):
        from fcdist.forward import generate_synthetic_sources
        lib = generate_synthetic_sources(40, 4000, 100.0, 10.0, seed=5)
        matrix_io.write_source_library(tmp_path / "lib.csv", lib)
        cfg = tiny_config(source_mode=f"file:{tmp_path / 'lib.csv'}")
        rows, fails = simulate_cell(cfg, 19, 0)
        assert not rows
        assert {f.error.split(":")[0] for f in fails} == {"InvalidData"}
        with pytest.raises(ExperimentFailed, match="InvalidData: source library .* 100.0 Hz"):
            run_simulation_experiment(cfg)

    @pytest.mark.parametrize("mode", ["source_mode", "leadfield_mode"])
    @pytest.mark.parametrize("case", ["missing", "directory", "sidecar-list", "sidecar-labels-int"])
    def test_unreadable_file_input_fails_each_cell(self, tmp_path, mode, case):
        from fcdist.forward import generate_synthetic_leadfield, generate_synthetic_sources
        if mode == "source_mode":
            lib = generate_synthetic_sources(40, 4000, 200.0, 10.0, seed=5)
            path = matrix_io.write_source_library(tmp_path / "in.csv", lib)
        else:
            lf = generate_synthetic_leadfield("std19", 300, seed=6)
            path = matrix_io.write_leadfield(tmp_path / "in.csv", lf)
        if case in ("missing", "directory"):
            path.unlink()
            if case == "directory":
                path.mkdir()
        else:
            matrix_io.sidecar_path(path).write_text(
                "[1, 2]" if case == "sidecar-list" else '{"fs": 200.0, "labels": 5}')
        cfg = tiny_config(**{mode: f"file:{path}"})
        rows, fails = simulate_cell(cfg, 19, 0)
        assert not rows
        assert fails and {f.error.split(":")[0] for f in fails} == {"InvalidData"}

    def test_constant_file_library_row_is_recorded(self, tmp_path):
        from fcdist.forward import generate_synthetic_sources
        # as many rows as active sources, so every cell selects the constant row
        lib = generate_synthetic_sources(40, 4000, 200.0, 10.0, seed=5)
        data = lib.data.copy()
        data[5] = 1.0
        matrix_io.write_matrix(tmp_path / "lib.csv", data, {"fs": 200.0, "kind": "sources"})
        cfg = tiny_config(source_mode=f"file:{tmp_path / 'lib.csv'}")
        with pytest.raises(ExperimentFailed, match="InvalidData: selected library rows"):
            run_simulation_experiment(cfg)

    def test_metric_table_windows(self):
        # PLV keeps only the window length; PLI and AEC take the protocol as given
        window = WindowConfig(4.0, 1.0)
        cfg = tiny_config(metrics=("COH", "iCOH", "PLV", "PLI", "AEC"), window=window)
        rec = pipeline.cell_record(cfg, 19, 0)
        coh = coherency(quiet_cross_spectrum(rec, cfg.segment_samples))
        analytic = spectral.bandpass_analytic(rec, ALPHA)
        direct = {
            "COH": coherence_matrix(coh, ALPHA),
            "iCOH": icoh_matrix(coh, ALPHA),
            "PLV": plv_matrix(analytic, WindowConfig(4.0, 0.0)),
            "PLI": pli_matrix(analytic, window),
            "AEC": aec_matrix(analytic, window),
        }
        rows, fails = simulate_cell(cfg, 19, 0)
        assert not fails
        assert [r.metric for r in rows] == list(direct)
        for row in rows:
            s = weight_stats.summarize(
                weight_stats.upper_triangle_weights(direct[row.metric].weights), cfg.n_bins
            )
            assert (row.mcw, row.skewness, row.kurtosis, row.entropy) == \
                (s.mcw, s.skewness, s.kurtosis, s.entropy), row.metric


class TestBandBins:
    def test_cell_equals_allbin_coherency(self):
        # Each band's coherency is formed on its own bins; rows and failure
        # texts equal those of one all-bin coherency that every band slices.
        cfg = tiny_config(metrics=tuple(METRICS),
                          bands=(*DEFAULT_BANDS, band_from_spec("x=10.0-10.1")))
        rec = pipeline.cell_record(cfg, 19, 1)
        coh = allbin_bartlett_coherency(rec, cfg.segment_samples)
        rows, fails = pipeline._unit_results(cfg, 19, 1, lambda band: {
            "coherency": coh,
            "analytic": pipeline._attempt(spectral.bandpass_analytic, rec, band)})
        assert simulate_cell(cfg, 19, 1) == (rows, fails)
        assert len(rows) == 4 * 5 + 3
        empty = "EmptyBand: band x (10.0, 10.1) Hz selects no bins on [0.3906, 99.61] Hz"
        assert [(f.metric, f.error) for f in fails] == [("COH", empty), ("iCOH", empty)]

    def test_dead_channel_fails_every_band(self, monkeypatch):
        cfg = tiny_config(metrics=("COH", "iCOH"), bands=DEFAULT_BANDS)
        rec = pipeline.cell_record(cfg, 19, 0)
        data = rec.data.copy()
        data[4] = 0.0
        dead = make_record(data, fs=rec.fs)
        monkeypatch.setattr(pipeline, "cell_record", lambda *args: dead)
        rows, fails = simulate_cell(cfg, 19, 0)
        assert rows == []
        assert [(f.band, f.error) for f in fails] == [
            (band.name, f"ZeroPowerChannel: channel 4 has zero power at {first:.6g} Hz")
            for band, first in zip(DEFAULT_BANDS, (1.171875, 4.296875, 8.203125, 13.28125))
            for _ in ("COH", "iCOH")
        ]

    def test_too_few_segments_fails_every_band(self):
        cfg = tiny_config(bands=DEFAULT_BANDS, segment_samples=4096)
        rows, fails = simulate_cell(cfg, 19, 0)
        assert [r.metric for r in rows] == ["PLV"] * 4
        assert [(f.metric, f.error) for f in fails] == [
            ("COH", "TooFewSegments: 4000 samples hold 0 segment(s) of 4096; need >= 2")] * 4


class TestWriteResults:
    def test_empty_tables(self, tmp_path):
        res = pipeline.ExperimentResult(
            config={}, trial_rows=[], correlation_rows=[], failures=[]
        )
        write_results(res, tmp_path)
        assert (tmp_path / "trials.csv").read_text() == \
            "montage,metric,band,trial,mcw,skewness,kurtosis,entropy\n"
        assert (tmp_path / "correlations.csv").read_text() == \
            "montage,metric,band,pair,r,p,n,stars\n"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_trial_rows"] == 0

    def test_scatter_cardinality(self, tmp_path):
        cfg = tiny_config(montages=(19, 32),
                          metrics=("COH", "iCOH", "PLV", "PLI", "AEC"))
        res = run_simulation_experiment(cfg)
        write_results(res, tmp_path)
        scatters = sorted(tmp_path.glob("scatter_*.csv"))
        # 2 montages x 5 metrics x 1 band -> 10 triples -> 30 files
        assert len(scatters) == 30

    def test_numeric_round_trip(self, tmp_path):
        cfg = tiny_config()
        res = run_simulation_experiment(cfg)
        write_results(res, tmp_path)
        lines = (tmp_path / "trials.csv").read_text().splitlines()[1:]
        by_key = {}
        for line in lines:
            montage, metric, band, trial, mcw, skew, kurt, ent = line.split(",")
            by_key[(int(montage), metric, band, int(trial))] = (
                float(mcw), float(skew), float(kurt), float(ent)
            )
        for r in res.trial_rows:
            got = by_key[(r.montage, r.metric, r.band, r.trial)]
            assert got == (r.mcw, r.skewness, r.kurtosis, r.entropy)

    def test_null_fields_written_empty(self, tmp_path):
        res = pipeline.ExperimentResult(
            config={},
            trial_rows=[pipeline.TrialRow(19, "COH", "alpha", 0, 0.5, None, None, 0.0)],
            correlation_rows=[], failures=[],
        )
        write_results(res, tmp_path)
        line = (tmp_path / "trials.csv").read_text().splitlines()[1]
        assert line == "19,COH,alpha,0,0.5,,,0.0"


class TestNormative:
    def write_subject(self, tmp_path, name, rng, n_ch=4, duplicate_pair=False,
                      zero_channel=False):
        data = rng.standard_normal((n_ch, 512 * 4))
        if duplicate_pair:
            data[1] = data[0]
        if zero_channel:
            data[2] = 0.0
        rec = make_record(data, fs=200.0)
        cs = quiet_cross_spectrum(rec, 512)
        labels = list(rec.channel_names)
        return matrix_io.write_cross_spectrum(tmp_path / name, cs, labels)

    def test_cardinality_one_subject_four_bands(self, tmp_path, rng):
        path = self.write_subject(tmp_path, "s1.csv", rng)
        res = run_normative_analysis([path], bands=spectral.DEFAULT_BANDS)
        assert len(res.trial_rows) == 8  # 2 metrics x 4 bands

    def test_duplicated_channel_identities(self, tmp_path, rng):
        path = self.write_subject(tmp_path, "s1.csv", rng, duplicate_pair=True)
        cs, _ = matrix_io.read_cross_spectrum(path)
        c = coherency(cs)
        coh = coherence_matrix(c, ALPHA)
        ico = icoh_matrix(c, ALPHA)
        assert coh.weights[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert ico.weights[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_matches_in_memory(self, tmp_path, rng):
        data = rng.standard_normal((4, 512 * 4))
        rec = make_record(data, fs=200.0)
        cs = quiet_cross_spectrum(rec, 512)
        c = coherency(cs)
        expected = {}
        for metric, cm in (("COH", coherence_matrix(c, ALPHA)),
                           ("iCOH", icoh_matrix(c, ALPHA))):
            s = weight_stats.summarize(
                weight_stats.upper_triangle_weights(cm.weights), 100
            )
            expected[metric] = s
        path = matrix_io.write_cross_spectrum(tmp_path / "s.csv", cs, list(rec.channel_names))
        res = run_normative_analysis([path], bands=(ALPHA,))
        for row in res.trial_rows:
            exp = expected[row.metric]
            assert row.mcw == pytest.approx(exp.mcw, abs=1e-12)
            assert row.skewness == pytest.approx(exp.skewness, abs=1e-12)
            assert row.kurtosis == pytest.approx(exp.kurtosis, abs=1e-12)
            assert row.entropy == pytest.approx(exp.entropy, abs=1e-12)

    def test_malformed_file_skipped(self, tmp_path, rng):
        good = self.write_subject(tmp_path, "good.csv", rng)
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,cross,spectrum\n")
        with open(matrix_io.sidecar_path(bad), "w") as f:
            json.dump({"labels": ["A"], "n_segments": 2}, f)
        res = run_normative_analysis([good, bad], bands=(ALPHA,))
        assert res.config["subjects_used"] == 1
        assert len(res.failures) == 1

    def test_no_data(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        with pytest.raises(NoData):
            run_normative_analysis([bad], bands=(ALPHA,))

    def test_correlations_across_subjects(self, tmp_path, rng):
        # 8 channels: enough pairs that the quantized entropies differ
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng, n_ch=8)
                 for i in range(4)]
        res = run_normative_analysis(paths, bands=(ALPHA,))
        assert len(res.trial_rows) == 8  # 2 metrics x 1 band x 4 subjects
        assert len(res.correlation_rows) == 6  # 2 metrics x 3 pairs
        assert all(r.n == 4 for r in res.correlation_rows)

    def test_generator_inputs_counted(self, tmp_path, rng):
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng) for i in range(4)]
        res = run_normative_analysis((p for p in paths), bands=(ALPHA,))
        assert res.config["inputs"] == 4
        assert res.config["subjects_used"] == 4

    def test_zero_power_subject_recorded_not_fatal(self, tmp_path, rng):
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng, n_ch=8, zero_channel=i == 3)
                 for i in range(4)]
        res = run_normative_analysis(paths, bands=(ALPHA,))
        assert len(res.trial_rows) == 6  # 2 metrics x 1 band x 3 good subjects
        assert {r.trial for r in res.trial_rows} == {0, 1, 2}
        assert [(f.metric, f.band, f.trial) for f in res.failures] == \
            [("COH", "alpha", 3), ("iCOH", "alpha", 3)]
        assert all(f.error.startswith("ZeroPowerChannel: ") for f in res.failures)
        assert len(res.correlation_rows) == 6
        assert all(r.n == 3 for r in res.correlation_rows)

    def test_non_finite_subject_recorded_not_fatal(self, tmp_path, rng):
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng, n_ch=8) for i in range(4)]
        poison_alpha_entry(paths[1])
        res = run_normative_analysis(paths, bands=(ALPHA,))
        assert res.config["subjects_used"] == 3
        assert {r.trial for r in res.trial_rows} == {0, 2, 3}
        assert len(res.failures) == 1
        assert res.failures[0].trial == 1 and "finite" in res.failures[0].error
        assert len(res.correlation_rows) == 6
        assert all(r.n == 3 for r in res.correlation_rows)

    def test_one_pair_subject_recorded_not_fatal(self, tmp_path, rng):
        # two channels give one weight: too few for skewness and kurtosis
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng, n_ch=2 if i == 1 else 8)
                 for i in range(4)]
        res = run_normative_analysis(paths, bands=(ALPHA,))
        assert {r.trial for r in res.trial_rows} == {0, 2, 3}
        assert [(f.metric, f.trial) for f in res.failures[:2]] == [("COH", 1), ("iCOH", 1)]
        assert all(f.error.startswith("InvalidData: ") for f in res.failures[:2])


class TestModesAgree:
    @pytest.mark.parametrize("bands", [(ALPHA,), DEFAULT_BANDS], ids=["alpha", "four_bands"])
    def test_normative_equals_simulate(self, tmp_path, bands):
        # The grid's records, stored as all-bin spectra and read back, give
        # the grid's own COH and iCOH rows and correlations, bit for bit.
        cfg = ExperimentConfig(montages=(19,), metrics=("COH", "iCOH"), bands=bands,
                               trials=3, n_samples=4000, window=WindowConfig(2.0, 0.5))
        paths = []
        for t in range(cfg.trials):
            rec = pipeline.cell_record(cfg, 19, t)
            paths.append(matrix_io.write_cross_spectrum(
                tmp_path / f"subject{t:03d}.csv",
                quiet_cross_spectrum(rec, cfg.segment_samples), list(rec.channel_names)))
        simulated = run_simulation_experiment(cfg)
        stored = run_normative_analysis(paths, bands=bands)

        def key(row):
            return row.metric, row.band, row.trial

        assert sorted(stored.trial_rows, key=key) == sorted(simulated.trial_rows, key=key)
        assert len(stored.trial_rows) == 3 * 2 * len(bands)
        assert stored.correlation_rows == simulated.correlation_rows
        assert stored.failures == simulated.failures == []


FAULTS = ("nan", "inf", "zero_power", "truncated", "bad_sidecar", "undecodable")


@lru_cache(maxsize=None)
def _cohort_spectrum(subject: int, zero_channel: bool):
    """The 8-channel cross-spectrum of one cohort subject, optionally with a silent channel."""
    data = np.random.default_rng(subject).standard_normal((8, 128 * 16))
    if zero_channel:
        data[2] = 0.0
    return quiet_cross_spectrum(make_record(data), 128)


def _write_cohort_subject(path: Path, subject: int, fault: str | None) -> Path:
    cs = _cohort_spectrum(subject, fault == "zero_power")
    matrix_io.write_cross_spectrum(path, cs, [f"E{k}" for k in range(8)])
    if fault in ("nan", "inf"):
        poison_alpha_entry(path, fault)
    elif fault == "truncated":
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
    elif fault == "bad_sidecar":
        matrix_io.sidecar_path(path).write_text('{"labels": ["E0"]')
    elif fault == "undecodable":
        lines = path.read_bytes().splitlines(keepends=True)
        lines[len(lines) // 2] = b"\xff" + lines[len(lines) // 2]
        path.write_bytes(b"".join(lines))
    return path


class TestNormativeFaultInjection:
    @given(st.lists(st.one_of(st.none(), st.sampled_from(FAULTS)), min_size=4, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_faulty_subjects_recorded_and_rows_finite(self, faults):
        """Every injected fault is recorded against its subject and no other;
        the run succeeds while one subject is usable and emits only finite rows."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = [_write_cohort_subject(Path(tmp) / f"s{k}.csv", k, fault)
                     for k, fault in enumerate(faults)]
            if all(fault not in (None, "zero_power") for fault in faults):
                with pytest.raises(NoData):  # no file could be read
                    run_normative_analysis(paths, bands=(ALPHA,))
                return
            res = run_normative_analysis(paths, bands=(ALPHA,))
        faulty = {k for k, fault in enumerate(faults) if fault}
        assert {f.trial for f in res.failures if f.trial >= 0} == faulty
        assert {r.trial for r in res.trial_rows} == set(range(len(faults))) - faulty
        for row in res.trial_rows + res.correlation_rows:
            for value in dataclasses.astuple(row):
                assert not isinstance(value, float) or math.isfinite(value), row


class TestConfig:
    def test_dict_round_trip(self):
        cfg = tiny_config(bands=(Band("alpha", 8.0, 13.0), Band("beta", 13.0, 19.15)))
        d = config_to_dict(cfg)
        back = config_from_dict(d)
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"montage": [19]})

    def test_band_from_spec(self):
        assert band_from_spec("alpha") == ALPHA
        b = band_from_spec("mu=9-11")
        assert (b.name, b.lo, b.hi) == ("mu", 9.0, 11.0)
        with pytest.raises(ValueError):
            band_from_spec("nonsense")

    def test_defaults_mirror_scale(self):
        cfg = ExperimentConfig()
        assert cfg.n_sources == 3002
        assert cfg.n_active == 200
        assert cfg.n_samples == 10000
        assert cfg.segment_samples == 512
        assert cfg.fs == 200.0
        assert cfg.trials == 100
        assert cfg.window.window_seconds == 6.0
        assert cfg.window.overlap_seconds == 0.5
        assert cfg.n_bins == 100
