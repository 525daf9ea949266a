import dataclasses
import json
import math
import multiprocessing
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blas_recorders,
    caller_blas_threads,
    make_record,
    poison_alpha_entry,
    quiet_cross_spectrum,
    recorded_blas_threads,
)
from oracles import allbin_bartlett_coherency

from fcdist import forward, matrix_io, pipeline, spectral, weight_stats
from fcdist.connectivity import (
    METRICS,
    WindowConfig,
    aec_matrix,
    coherence_matrix,
    icoh_matrix,
    pli_matrix,
    plv_matrix,
)
from fcdist.errors import ExperimentFailed, FcdistError, NoData, TooFewSegments
from fcdist.pipeline import (
    ExperimentConfig,
    band_from_spec,
    config_from_dict,
    config_to_dict,
    mix64,
    normative_subject,
    run_normative_analysis,
    run_simulation_experiment,
    simulate_cell,
    write_results,
)
from fcdist.spectral import ALPHA, DEFAULT_BANDS, Band, coherency


def _buffer_owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``a``, a view or not."""
    return a if a.base is None else _buffer_owner(a.base)


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

    @staticmethod
    def _check_cells_use_one_blas_thread(monkeypatch, tmp_path, jobs):
        """A 3-cell grid run with ``jobs``, the caller at two OpenBLAS threads: the cells'
        BLAS work (the projection's eigh, PLV's phasors) runs with one, the caller gets
        two back, also when a cell raises, and the rows are those of one unit at a time."""
        log = str(tmp_path / "blas.log")
        for owner, name, wrapper in blas_recorders(log):
            monkeypatch.setattr(owner, name, wrapper)
        cfg = tiny_config()
        with caller_blas_threads(2) as n:
            rows = run_simulation_experiment(cfg, jobs=jobs).trial_rows
            # 3 cells, each one eigh and three 6-s PLV windows of a 20-s record
            assert recorded_blas_threads(log) == [[1] * n] * 12
            assert forward._blas_threads() == [2] * n
            assert rows == run_simulation_experiment(cfg, jobs=1).trial_rows

            def crashing_eigh(a, *args, **kwargs):
                raise RuntimeError("cell crashed")

            monkeypatch.setattr(np.linalg, "eigh", crashing_eigh)
            with pytest.raises(RuntimeError, match="cell crashed"):
                run_simulation_experiment(cfg, jobs=jobs)
            assert forward._blas_threads() == [2] * n

    def test_in_process_cells_use_one_blas_thread(self, monkeypatch, tmp_path):
        self._check_cells_use_one_blas_thread(monkeypatch, tmp_path, 1)

    def test_pool_threads_use_one_blas_thread(self, monkeypatch, tmp_path):
        self._check_cells_use_one_blas_thread(monkeypatch, tmp_path, 2)
        # one thread for the whole unit, not only inside each BLAS call
        with caller_blas_threads(2) as n:
            rows, _ = pipeline._run_units(lambda key: ([forward._blas_threads()], []),
                                          [(0,), (1,)], jobs=2)
        assert rows == [[1] * n] * 2

    def test_fork_child_keeps_the_callers_blas_threads(self):
        # importing fcdist changes no thread count, in this process or in its children
        with caller_blas_threads(2) as n:
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
                assert pool.submit(forward._blas_threads).result() == [2] * n
            assert forward._blas_threads() == [2] * n

    @pytest.mark.parametrize("jobs, match", [
        (0, "jobs must be >= 1, got 0"),
        (-3, "jobs must be >= 1, got -3"),
        (2.0, "jobs must be an int, got 2.0"),
        (True, "jobs must be an int, got True"),
    ], ids=["zero", "negative", "float", "bool"])
    def test_jobs_below_one_rejected_before_any_cell(self, monkeypatch, jobs, match):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(pipeline, "_simulate", no_cell)
        with pytest.raises(ValueError, match=match):
            run_simulation_experiment(tiny_config(), jobs=jobs)

    @pytest.mark.parametrize("jobs, units, workers", [(50, 3, [3]), (2, 3, [2]), (5, 1, [])])
    def test_pool_never_outnumbers_units(self, monkeypatch, jobs, units, workers):
        seen = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
        rows, _ = pipeline._run_units(lambda unit: ([unit], []), [(u,) for u in range(units)], jobs)
        assert seen == workers
        assert rows == list(range(units))

    def test_a_raising_unit_cancels_the_units_not_started(self):
        calls, lock = [], threading.Lock()

        def unit(key):
            with lock:
                calls.append(key)
                first = len(calls) == 1
            if first:
                raise RuntimeError("unit failed")
            time.sleep(0.2)
            return [key], []

        with pytest.raises(RuntimeError, match="unit failed"):
            pipeline._run_units(unit, [(k,) for k in range(8)], jobs=2)
        # the other thread's unit, and one the failing thread took before the error was seen
        assert len(calls) <= 3

    def test_pool_leaves_the_warning_filters_alone(self):
        # 10000 samples hold 19 segments of 512, fewer than the recommended 20, so each
        # cell's estimate would warn, and the suite turns warnings into errors
        cfg = pipeline.desk_scale_config((19,), trials=3)
        filters = list(warnings.filters)
        assert not run_simulation_experiment(cfg, jobs=2).failures
        assert warnings.filters == filters
        with pytest.warns(spectral.FewSegmentsWarning, match="averaging only 19 segments"):
            spectral.bartlett_cross_spectrum(pipeline.cell_record(cfg, 19, 0),
                                             cfg.segment_samples, ALPHA)

    def test_cell_rows_do_not_depend_on_the_callers_blas_threads(self):
        cfg = tiny_config(montages=(64,), metrics=tuple(METRICS), n_sources=3002, n_active=200)
        with caller_blas_threads(1):
            one = simulate_cell(cfg, 64, 0)
        with caller_blas_threads(2):
            assert simulate_cell(cfg, 64, 0) == one

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

    @staticmethod
    def _fail_bartlett(monkeypatch):
        """Every cell's Bartlett estimate raises, as a record too short for it would."""
        def too_few(rec, segment_samples, band):
            raise TooFewSegments(f"{rec.n_samples} samples hold 1 segment(s)")

        monkeypatch.setattr(pipeline, "_bartlett_coherency", too_few)

    def test_partial_failure_recorded(self, monkeypatch):
        # the two spectral metrics fail (2 of 5 cells per trial), the windowed
        # metrics survive
        self._fail_bartlett(monkeypatch)
        cfg = tiny_config(metrics=("COH", "iCOH", "PLV", "PLI", "AEC"))
        res = run_simulation_experiment(cfg)
        failed_metrics = {f.metric for f in res.failures}
        assert failed_metrics == {"COH", "iCOH"}
        assert {r.metric for r in res.trial_rows} == {"PLV", "PLI", "AEC"}
        assert len(res.failures) == 2 * cfg.trials

    def test_experiment_failed_above_half(self, monkeypatch):
        self._fail_bartlett(monkeypatch)
        with pytest.raises(ExperimentFailed):
            run_simulation_experiment(tiny_config(metrics=("COH", "iCOH")))

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(trials=2).validate()
        with pytest.raises(ValueError):
            tiny_config(metrics=("COH", "XXX")).validate()
        with pytest.raises(ValueError):
            tiny_config(bands=(Band("hf", 50.0, 120.0),)).validate()
        with pytest.raises(ValueError):
            tiny_config(montages=(21,)).validate()

    @pytest.mark.parametrize("changes, match", [
        (dict(n_bins=1), "n_bins must be >= 2"),
        (dict(n_bins=2**20 + 1), "n_bins must be >= 2 and <= 1048576, got 1048577"),
        (dict(montages=(19, 19)), "duplicate montages"),
        (dict(metrics=("COH", "COH")), "duplicate metrics"),
        (dict(bands=(ALPHA, Band("alpha", 9.0, 12.0))), "duplicate band names"),
        (dict(trials="3"), "trials must be an int"),
        (dict(trials=True), "trials must be an int"),
        (dict(master_seed=1.5), "master_seed must be an int"),
        (dict(n_samples=4000.5), "n_samples must be an int"),
        (dict(fs="200"), "fs must be a number"),
        (dict(fs=True), "fs must be a number, got True"),
        (dict(fs=float("inf")), "fs must be positive and finite"),
        (dict(noise_sigma=float("inf")), "noise_sigma must be non-negative and finite"),
        (dict(montages=(19.0,)), r"montages must be an int, got 19\.0"),
        (dict(montages=("19",)), "montages must be an int, got '19'"),
        (dict(bands=("alpha",)), "bands must be Band objects, got 'alpha'"),
        (dict(montages=19), "montages must be a tuple or list, got 19"),
        (dict(bands=None), "bands must be a tuple or list, got None"),
        (dict(metrics="COH"), "metrics must be a tuple or list, got 'COH'"),
        (dict(metrics=(["COH"],)), r"metrics must be str labels, got \['COH'\]"),
        (dict(source_mode=5), "source_mode must be a string, got 5"),
        (dict(leadfield_mode=None), "leadfield_mode must be a string, got None"),
    ], ids=["n_bins-1", "n_bins-over-limit", "duplicate-montage", "duplicate-metric",
            "duplicate-band-name",
            "str-trials", "bool-trials", "float-seed", "float-n_samples", "str-fs", "bool-fs",
            "inf-fs",
            "inf-noise_sigma",
            "float-montage", "str-montage", "str-band", "int-montages", "none-bands",
            "str-metrics", "list-metric", "int-source_mode", "none-leadfield_mode"])
    def test_config_rejected_before_any_cell(self, monkeypatch, changes, match):
        self._rejected_before_any_cell(monkeypatch, match, **changes)

    @staticmethod
    def _rejected_before_any_cell(monkeypatch, match, **changes):
        cfg = tiny_config(**changes)
        with pytest.raises(ValueError, match=match) as err:
            cfg.validate()
        assert not isinstance(err.value, FcdistError)  # an argument error, not bad data

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(pipeline, "_cell_record", no_cell)
        with pytest.raises(ValueError, match=match):
            run_simulation_experiment(cfg, jobs=2)

    @pytest.mark.parametrize("changes, match", [
        (dict(window=WindowConfig(0.004, 0.0)), "shorter than two samples"),  # 0.8 samples
        (dict(window=WindowConfig(1.0, 0.998)), "whole window"),  # overlap rounds to 200 of 200
        # 2e309 and 6e308 samples overflow to inf, which int() cannot take
        (dict(window=WindowConfig(1e307, 0.0)), "window of 1e.307 s .* too many samples"),
        (dict(fs=1e308), "window of 6.0 s .* too many samples"),
    ], ids=["window-under-two-samples", "overlap-rounds-to-window", "huge-window", "huge-fs"])
    def test_window_rejected_before_any_cell(self, monkeypatch, changes, match):
        self._rejected_before_any_cell(monkeypatch, match, **changes)

    @pytest.mark.parametrize("changes, match", [
        (dict(n_samples=10000, segment_samples=8192),
         r"segment_samples: 10000 samples hold 1 segment\(s\) of 8192; need >= 2"),
        (dict(bands=(ALPHA, band_from_spec("nb=10.2-10.3"))),
         r"bands: band nb \(10.2, 10.3\) Hz selects no bins on \[0.3906, 99.61\] Hz"),
        (dict(metrics=("PLV",), window=WindowConfig(60.0, 0.5)),
         "window: 4000 samples < one 12000-sample window"),
    ], ids=["segment-over-half-the-record", "band-between-bins", "window-over-the-record"])
    def test_record_rejected_before_any_cell(self, monkeypatch, changes, match):
        # The record must hold what the configured metrics use.
        self._rejected_before_any_cell(monkeypatch, match, **changes)

    @pytest.mark.parametrize("changes", [
        dict(metrics=("PLV",), n_samples=10000, segment_samples=8192),
        dict(metrics=("COH",), window=WindowConfig(60.0, 0.5)),
    ], ids=["long-segment-without-coherency", "long-window-without-windowed-metric"])
    def test_value_no_metric_uses_is_accepted(self, changes):
        res = run_simulation_experiment(tiny_config(**changes))
        assert res.failures == []
        assert len(res.trial_rows) == 3

    @pytest.mark.parametrize("segment_samples", [63, 2])
    def test_segment_samples_rejected_before_any_cell(self, monkeypatch, segment_samples):
        self._rejected_before_any_cell(monkeypatch, "segment_samples must be even and >= 4",
                                       segment_samples=segment_samples)

    @pytest.mark.parametrize("field", ["source_mode", "leadfield_mode"])
    def test_mode_rejected_before_any_cell(self, monkeypatch, field):
        self._rejected_before_any_cell(monkeypatch, "mode must be", **{field: "bogus"})

    @pytest.mark.parametrize("changes, match", [
        # passes the window (2 samples) and segment (4) checks
        (dict(n_samples=3, segment_samples=4, window=WindowConfig(0.01, 0.0)),
         "n_samples must be >= 4"),
        (dict(alpha_hz=150.0), r"alpha_hz=150.0 outside \(0, 100.0\)"),
    ], ids=["n_samples-3", "alpha_hz-above-nyquist"])
    def test_source_shape_rejected_before_any_cell(self, monkeypatch, changes, match):
        self._rejected_before_any_cell(monkeypatch, match, **changes)

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

    def test_file_inputs_are_read_again_by_each_run(self, tmp_path, monkeypatch):
        from fcdist.forward import generate_synthetic_sources
        path = tmp_path / "lib.csv"
        cfg = tiny_config(metrics=("COH",), source_mode=f"file:{path}")
        read, reads = matrix_io.read_source_library, []
        monkeypatch.setattr(matrix_io, "read_source_library",
                            lambda p: reads.append(p) or read(p))
        runs = []
        for seed in (5, 6):
            lib = generate_synthetic_sources(40, 4000, 200.0, 10.0, seed=seed)
            matrix_io.write_source_library(path, lib)
            runs.append(run_simulation_experiment(cfg).trial_rows)
        assert runs[0] != runs[1]
        assert reads == [str(path)] * 2  # once per run, not once per cell
        assert run_simulation_experiment(cfg).trial_rows == runs[1]

    def test_pool_reads_a_file_input_once(self, tmp_path, monkeypatch):
        from fcdist.forward import generate_synthetic_sources
        path = tmp_path / "lib.csv"
        matrix_io.write_source_library(path, generate_synthetic_sources(40, 4000, 200.0, seed=5))
        cfg = tiny_config(metrics=("COH",), trials=8, source_mode=f"file:{path}")
        read, reads = matrix_io.read_source_library, []
        monkeypatch.setattr(matrix_io, "read_source_library",
                            lambda p: reads.append(p) or read(p))
        filters = list(warnings.filters)
        # more threads than cores, switching often, all sharing the run's one library
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = run_simulation_experiment(cfg, jobs=4).trial_rows
        finally:
            sys.setswitchinterval(interval)
        assert reads == [str(path)]
        assert warnings.filters == filters
        assert rows == run_simulation_experiment(cfg, jobs=1).trial_rows

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unreadable_file_input_is_read_once(self, tmp_path, monkeypatch, jobs):
        path = tmp_path / "lib.csv"
        path.write_text("1.0,oops\n")
        cfg = tiny_config(metrics=("COH",), source_mode=f"file:{path}")
        read, reads = matrix_io.read_source_library, []
        monkeypatch.setattr(matrix_io, "read_source_library",
                            lambda p: reads.append(p) or read(p))
        with pytest.raises(ExperimentFailed, match="3 of 3 grid cells failed; first: InvalidData"):
            run_simulation_experiment(cfg, jobs=jobs)
        assert reads == [str(path)]

    def test_a_run_keeps_its_inputs_when_another_run_rewrites_them(self, tmp_path, monkeypatch):
        # Run A's first cell rewrites the library and runs B; A's later cells keep A's file.
        from fcdist.forward import generate_synthetic_sources
        path = tmp_path / "lib.csv"
        matrix_io.write_source_library(path, generate_synthetic_sources(40, 4000, 200.0, seed=5))
        cfg = tiny_config(metrics=("COH",), trials=4, source_mode=f"file:{path}")
        clean = run_simulation_experiment(cfg).trial_rows
        leadfield, calls, rows_b = forward.generate_synthetic_leadfield, [], []

        def leadfield_then_run_b(montage, *args, **kwargs):
            calls.append(montage)
            if len(calls) == 1:  # A's first cell; B's cells come here too
                matrix_io.write_source_library(
                    path, generate_synthetic_sources(40, 4000, 200.0, seed=6))
                rows_b.extend(run_simulation_experiment(dataclasses.replace(cfg, trials=3))
                              .trial_rows)
            return leadfield(montage, *args, **kwargs)

        monkeypatch.setattr(forward, "generate_synthetic_leadfield", leadfield_then_run_b)
        rows = run_simulation_experiment(cfg).trial_rows
        assert len(calls) == 4 + 3
        assert len(rows_b) == 3 and rows_b != clean[:3]  # B read the new file
        assert rows == clean

    def test_cell_record_reads_the_file_on_each_call(self, tmp_path):
        from fcdist.forward import generate_synthetic_sources
        path = tmp_path / "lib.csv"
        cfg = tiny_config(source_mode=f"file:{path}")
        records = []
        for seed in (5, 6):
            matrix_io.write_source_library(
                path, generate_synthetic_sources(40, 4000, 200.0, seed=seed))
            records.append(pipeline.cell_record(cfg, 19, 0).data)
        assert not np.array_equal(*records)
        matrix_io.write_source_library(path, generate_synthetic_sources(40, 4000, 200.0, seed=5))
        assert np.array_equal(pipeline.cell_record(cfg, 19, 0).data, records[0])

    def test_file_inputs_do_not_outlive_the_run(self, tmp_path, monkeypatch):
        from fcdist.forward import generate_synthetic_leadfield, generate_synthetic_sources
        matrix_io.write_source_library(tmp_path / "lib.csv",
                                       generate_synthetic_sources(40, 4000, 200.0, seed=5))
        matrix_io.write_leadfield(tmp_path / "lf.csv",
                                  generate_synthetic_leadfield("std19", 300, seed=6))
        cfg = tiny_config(metrics=("COH",), source_mode=f"file:{tmp_path / 'lib.csv'}",
                          leadfield_mode=f"file:{tmp_path / 'lf.csv'}")
        read, libs = matrix_io.read_source_library, []
        monkeypatch.setattr(matrix_io, "read_source_library",
                            lambda p: libs.append(weakref.ref(lib := read(p))) or lib)
        assert len(run_simulation_experiment(cfg).trial_rows) == 3
        assert len(libs) == 1 and libs[0]() is None
        with pytest.raises(ExperimentFailed, match="ShapeMismatch"):  # 19-ch lead field
            run_simulation_experiment(dataclasses.replace(cfg, montages=(64,)))
        assert len(libs) == 2 and libs[1]() is None

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

    def test_file_library_negative_rate_is_recorded(self, tmp_path):
        from fcdist.forward import generate_synthetic_sources
        lib = generate_synthetic_sources(40, 4000, 200.0, 10.0, seed=5)
        path = matrix_io.write_source_library(tmp_path / "lib.csv", lib)
        side = matrix_io.sidecar_path(path)
        side.write_text(json.dumps({**json.loads(side.read_text()), "fs": -5}))
        rows, fails = simulate_cell(tiny_config(source_mode=f"file:{path}"), 19, 0)
        assert not rows
        assert fails and {f.error for f in fails} == {"InvalidData: fs must be positive and finite"}

    @pytest.mark.parametrize("mode", ["source_mode", "leadfield_mode"])
    @pytest.mark.parametrize("case", ["missing", "directory", "sidecar-list", "sidecar-labels-int",
                                      "empty"])
    def test_unreadable_file_input_fails_each_cell(self, tmp_path, mode, case):
        from fcdist.forward import generate_synthetic_leadfield, generate_synthetic_sources
        if mode == "source_mode":
            lib = generate_synthetic_sources(40, 4000, 200.0, 10.0, seed=5)
            path = matrix_io.write_source_library(tmp_path / "in.csv", lib)
        else:
            lf = generate_synthetic_leadfield("std19", 300, seed=6)
            path = matrix_io.write_leadfield(tmp_path / "in.csv", lf)
        if case == "empty":
            path.write_text("")
        elif case in ("missing", "directory"):
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

    def test_activity_is_freed_before_the_fill_is_drawn(self, monkeypatch):
        make, eigh, owners, alive = forward.synthetic_source_activity, np.linalg.eigh, [], []

        def made(*args, **kwargs):
            src = make(*args, **kwargs)
            owners.extend(map(weakref.ref, (src, _buffer_owner(src.data))))
            return src

        def eigh_after(a):
            alive.append([ref() is not None for ref in owners])
            return eigh(a)

        monkeypatch.setattr(forward, "synthetic_source_activity", made)
        monkeypatch.setattr(np.linalg, "eigh", eigh_after)
        pipeline.cell_record(tiny_config(), 19, 0)
        assert alive == [[False, False]]

    @pytest.mark.parametrize("bands, alive_in_band", [
        ((ALPHA,), [False]),
        ((ALPHA, band_from_spec("beta")), [True, False]),
    ], ids=["one band", "two bands"])
    def test_record_is_freed_before_the_last_bands_metrics(self, monkeypatch, bands,
                                                          alive_in_band):
        # The record is kept until the last band's inputs exist, no longer.
        cfg = tiny_config(metrics=("COH", "PLV", "AEC"), bands=bands)
        cell_record, owners, alive = pipeline._cell_record, [], []

        def made(*args):
            rec = cell_record(*args)
            owners.extend(map(weakref.ref, (rec, _buffer_owner(rec.data))))
            return rec

        def after(call):
            def metric(x, band, window):
                alive.append(all(ref() is not None for ref in owners))
                return call(x, band, window)
            return metric

        monkeypatch.setattr(pipeline, "_cell_record", made)
        monkeypatch.setattr(pipeline, "METRICS",
                            {m: (kind, after(call)) for m, (kind, call) in METRICS.items()})
        rows, fails = simulate_cell(cfg, 19, 0)
        assert len(rows) == 3 * len(bands) and not fails and len(owners) == 2
        assert alive == [a for a in alive_in_band for _ in cfg.metrics]

    def test_a_bands_inputs_are_freed_before_the_next_bands_are_made(self, monkeypatch):
        cfg = tiny_config(metrics=("PLV",), bands=(ALPHA, band_from_spec("beta")))
        analytic, made, alive = spectral.bandpass_analytic, [], []

        def kept(rec, band):
            alive.append([ref() is not None for ref in made])
            a = analytic(rec, band)
            made.append(weakref.ref(a))
            return a

        monkeypatch.setattr(spectral, "bandpass_analytic", kept)
        rows, fails = simulate_cell(cfg, 19, 0)
        assert len(rows) == 2 and not fails
        assert alive == [[], [False]]

    # A 128-channel desk cell peaked at 73 MiB when the analytic signal, the
    # assembly and the projection held whole-record temporaries; now 41 MiB.
    # A synthetic cell holds no source library, and the projection frees the
    # active rows before it draws the fill, so the 19-, 32- and 64-channel
    # peaks are 18.1, 18.5 and 23.6 MiB; the 128-channel one is the analytic
    # signal's. NumPy reports its array buffers to tracemalloc.
    @pytest.mark.parametrize("montage, limit_mib", [(19, 20), (32, 21), (64, 26), (128, 45)])
    def test_cell_working_set(self, montage, limit_mib):
        cfg = pipeline.desk_scale_config((montage,), trials=3)
        tracemalloc.start()
        try:
            rows, fails = simulate_cell(cfg, montage, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(cfg.metrics) and not fails
        assert peak <= limit_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestBandBins:
    def test_cell_equals_allbin_coherency(self):
        # Each band's coherency is formed on its own bins; rows and failure
        # texts equal those of one all-bin coherency that every band slices.
        cfg = tiny_config(metrics=tuple(METRICS),
                          bands=(*DEFAULT_BANDS, band_from_spec("x=10.0-10.1")))
        rec = pipeline.cell_record(cfg, 19, 1)
        coh = allbin_bartlett_coherency(rec, cfg.segment_samples)
        rows, fails = pipeline._unit_results(cfg, 19, 1, ({
            "coherency": coh,
            "analytic": pipeline._attempt(spectral.bandpass_analytic, rec, band)}
            for band in cfg.bands))
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
        monkeypatch.setattr(pipeline, "_cell_record", lambda *args: dead)
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

    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_bins=1), "n_bins must be >= 2"),
        (dict(n_bins=2**20 + 1), "n_bins must be >= 2 and <= 1048576"),
        (dict(bands=(ALPHA, ALPHA)), "duplicate band names"),
        (dict(bands=("alpha",)), "bands must be Band objects, got 'alpha'"),
        (dict(bands=None), "bands must be a tuple or list, got None"),
        (dict(bands="alpha"), "bands must be a tuple or list, got 'alpha'"),
        (dict(bands=()), "at least one band required"),
    ], ids=["n_bins-1", "n_bins-over-limit", "duplicate-band", "str-band", "none-bands",
            "str-bands", "no-bands"])
    def test_rejected_before_any_file(self, tmp_path, kwargs, match):
        # The file does not exist: reading it would record a failure and raise NoData.
        with pytest.raises(ValueError, match=match):
            run_normative_analysis([tmp_path / "unread.csv"], **kwargs)

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

    def test_unreadable_subject_is_one_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        cfg = ExperimentConfig(metrics=("COH", "iCOH"), bands=(ALPHA,))
        text = f"bad.csv: CrossSpectrumFormatError: {bad}: missing sidecar bad.meta.json"
        assert normative_subject(cfg, bad, 4) == ([], [pipeline.CellFailure(0, "-", "-", 4, text)])

    def test_input_listed_twice_rejected_before_any_file(self, tmp_path, rng, monkeypatch):
        # Counted twice, one subject would add a second point to every correlation.
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng, n_ch=8) for i in range(3)]
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(paths[0])
        read = []
        monkeypatch.setattr(matrix_io, "read_cross_spectrum", read.append)
        for again in (paths[0], tmp_path / "sub" / ".." / "s0.csv", tmp_path / "link.csv"):
            with pytest.raises(ValueError, match="listed twice"):
                run_normative_analysis([paths[0], again, *paths[1:]], bands=(ALPHA,))
        assert read == []

    def test_symlink_loop_is_a_subject_failure(self, tmp_path, rng):
        good = self.write_subject(tmp_path, "good.csv", rng)
        (tmp_path / "loop.csv").symlink_to(tmp_path / "loop.csv")
        res = run_normative_analysis([good, tmp_path / "loop.csv"], bands=(ALPHA,))
        assert res.config["subjects_used"] == 1
        assert [(f.metric, f.trial) for f in res.failures] == [("-", 1)]

    def test_caller_blas_threads_restored(self, tmp_path, rng, monkeypatch):
        # the runner sets no thread count: subjects, which run no BLAS, see the caller's
        seen = []

        def recording_subject(cfg, path, subject):
            seen.append(forward._blas_threads())
            return normative_subject(cfg, path, subject)

        monkeypatch.setattr(pipeline, "normative_subject", recording_subject)
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng, n_ch=8) for i in range(3)]
        with caller_blas_threads(2) as n:
            assert len(run_normative_analysis(paths, bands=(ALPHA,)).trial_rows) == 6
            assert seen == [[2] * n] * 3
            assert forward._blas_threads() == [2] * n

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

    def test_subject_without_rows_not_used(self, tmp_path, rng):
        # Readable but unusable, the silent subject must not make a third
        # point for the correlations, which two subjects cannot have.
        paths = [self.write_subject(tmp_path, f"s{i}.csv", rng, n_ch=8, zero_channel=i == 2)
                 for i in range(3)]
        res = run_normative_analysis(paths, bands=(ALPHA,))
        assert res.config["subjects_used"] == 2
        assert {r.trial for r in res.trial_rows} == {0, 1}
        assert res.correlation_rows == []
        assert [(f.metric, f.trial) for f in res.failures] == [("COH", 2), ("iCOH", 2)]
        assert all(f.error.startswith("ZeroPowerChannel: ") for f in res.failures)

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
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"montage": [19]})

    @pytest.mark.parametrize("montages", [[19.9, "64"], [19.0], ["19"], [True]])
    def test_montages_must_be_ints(self, montages):
        with pytest.raises(ValueError, match="montages must be an int, got "):
            config_from_dict({"montages": montages}).validate()

    def test_band_from_spec(self):
        assert band_from_spec("alpha") == ALPHA
        b = band_from_spec("mu=9-11")
        assert (b.name, b.lo, b.hi) == ("mu", 9.0, 11.0)
        with pytest.raises(ValueError):
            band_from_spec("nonsense")

    @pytest.mark.parametrize("spec", ["mu=9-11-12", "mu=9", "mu=a-b"])
    def test_malformed_band_spec_is_named(self, spec):
        with pytest.raises(ValueError, match=f"band '{spec}': range must be two numbers"):
            band_from_spec(spec)

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
