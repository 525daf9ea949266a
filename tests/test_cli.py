import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_record, poison_alpha_entry, quiet_cross_spectrum

from fcdist import generate_synthetic_leadfield, matrix_io
from fcdist.cli import main


def run_cli(*args):
    return main(list(args))


class TestGenerators:
    def test_gen_sources(self, tmp_path, capsys):
        out = tmp_path / "lib.csv"
        assert run_cli("gen-sources", "--n", "5", "--samples", "400",
                       "--fs", "200", "--seed", "3", "--out", str(out)) == 0
        lib = matrix_io.read_source_library(out)
        assert lib.data.shape == (5, 400)
        assert "source library" in capsys.readouterr().out

    def test_gen_sources_infinite_rate_is_data_error(self, tmp_path, capsys):
        assert run_cli("gen-sources", "--n", "5", "--samples", "400", "--fs", "inf",
                       "--out", str(tmp_path / "lib.csv")) == 2
        assert "fs must be positive and finite" in capsys.readouterr().err

    def test_gen_leadfield(self, tmp_path):
        out = tmp_path / "lf.csv"
        assert run_cli("gen-leadfield", "--montage", "egi32", "--n-sources", "50",
                       "--out", str(out)) == 0
        lf = matrix_io.read_leadfield(out)
        assert lf.gain.shape == (32, 50)

    def test_gen_leadfield_by_count(self, tmp_path):
        out = tmp_path / "lf.csv"
        assert run_cli("gen-leadfield", "--montage", "19", "--n-sources", "40",
                       "--out", str(out)) == 0
        assert matrix_io.read_leadfield(out).montage == "std19"

    def test_gen_leadfield_unknown(self, tmp_path, capsys):
        code = run_cli("gen-leadfield", "--montage", "bogus", "--out",
                       str(tmp_path / "x.csv"))
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSummarize:
    def test_summarize_matrix(self, tmp_path, capsys, rng):
        m = rng.random((6, 6))
        m = np.clip((m + m.T) / 2, 0, 1)
        matrix_io.write_matrix(tmp_path / "w.csv", m, {"kind": "connectivity"})
        assert run_cli("summarize", "--input", str(tmp_path / "w.csv")) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"mcw", "skewness", "kurtosis", "entropy", "n_pairs"}
        assert out["n_pairs"] == 15

    def test_summarize_asymmetric_is_data_error(self, tmp_path, capsys, rng):
        matrix_io.write_matrix(tmp_path / "w.csv", rng.random((4, 4)), {})
        assert run_cli("summarize", "--input", str(tmp_path / "w.csv")) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("summarize", "--input", str(tmp_path / "nope.csv")) == 2

    def test_bins_over_limit_is_data_error(self, tmp_path, capsys, rng):
        m = rng.random((4, 4))
        matrix_io.write_matrix(tmp_path / "w.csv", (m + m.T) / 2, {})
        assert run_cli("summarize", "--input", str(tmp_path / "w.csv"),
                       "--bins", str(2**20 + 1)) == 2
        captured = capsys.readouterr()
        assert "error: n_bins must be >= 2 and <= 1048576" in captured.err
        assert captured.out == ""


class TestSimulate:
    def test_small_run_and_outputs(self, tmp_path):
        out = tmp_path / "results"
        cfg = {
            "montages": [19], "metrics": ["COH", "PLV"], "bands": ["alpha"],
            "trials": 3, "n_samples": 4000, "n_sources": 300, "n_active": 40,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)) == 0
        assert (out / "trials.csv").exists()
        assert (out / "correlations.csv").exists()
        assert (out / "summary.json").exists()

    def test_overrides(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli(
            "simulate", "--out", str(out), "--trials", "3", "--montages", "19",
            "--metrics", "PLV", "--bands", "alpha", "--seed", "5",
        ) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_montage_list_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_samples": 2000, "n_sources": 300, "n_active": 40}))
        out = tmp_path / "r"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out),
                       "--trials", "3", "--montages", "19,64", "--metrics", "COH") == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert sorted({line.split(",")[0] for line in lines[1:]}) == ["19", "64"]

    def test_jobs_byte_identical(self, tmp_path):
        argsets = [("--jobs", "1", "--out", str(tmp_path / "j1")),
                   ("--jobs", "2", "--out", str(tmp_path / "j2"))]
        for extra in argsets:
            assert run_cli(
                "simulate", "--trials", "4", "--montages", "19",
                "--metrics", "COH,PLV", "--bands", "alpha", "--seed", "9", *extra,
            ) == 0
        for name in ("trials.csv", "correlations.csv"):
            assert (tmp_path / "j1" / name).read_bytes() == \
                (tmp_path / "j2" / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_data_error(self, tmp_path, capsys, jobs):
        assert run_cli("simulate", "--trials", "3", "--montages", "19", "--jobs", jobs,
                       "--out", str(tmp_path / "r")) == 2
        assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_config_is_data_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_key": 1}))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "r")) == 2

    @pytest.mark.parametrize("text", ['[{"trials": 3}]', '3', '"cfg"'])
    def test_non_object_config_is_data_error(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli("simulate", "--config", str(cfg_path), "--trials", "3",
                       "--out", str(tmp_path / "r")) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, payload", [
        ("trials", {"trials": "3"}), ("fs", {"fs": "200"}), ("master_seed", {"master_seed": 1.5}),
        ("n_samples", {"n_samples": 4000.5}),
        ("window_seconds", {"window": {"window_seconds": "6", "overlap_seconds": 0.5}}),
        ("lo", {"bands": [{"name": "mu", "lo": True, "hi": "11"}]}),
        ("hi", {"bands": [{"name": "mu", "lo": 9, "hi": "11"}]}),
        ("montages", {"montages": [19.0]}),
        # Values that a coercion ahead of validate used to split, stringify or crash on.
        ("metrics", {"metrics": "COH"}), ("bands", {"bands": "alpha"}),
        ("montages", {"montages": 19}), ("metrics", {"metrics": [1]}),
        ("source_mode", {"source_mode": 5}), ("leadfield_mode", {"leadfield_mode": None}),
        ("window_seconds", {"window": {"window_seconds": float("inf")}}),
        ("name", {"bands": [{"name": 3, "lo": 8, "hi": 13}]}),
        ("name", {"bands": [{"lo": 8, "hi": 13}]}),
    ], ids=["trials", "fs", "master_seed", "n_samples", "window_seconds", "band_lo", "band_hi",
            "montages", "str-metrics", "str-bands", "int-montages", "int-metric",
            "int-source_mode", "null-leadfield_mode", "infinite-window", "int-band-name",
            "no-band-name"])
    def test_mistyped_config_is_data_error(self, tmp_path, capsys, key, payload):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"montages": [19], "trials": 3, **payload}))
        # An uncaught error would propagate out of main() instead of returning.
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "r")) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("payload, message", [
        ({"window": {"window_seconds": 1e307}},
         "window of 1e+307 s at 200.0 Hz has too many samples"),
        ({"fs": 1e308}, "window of 6.0 s at 1e+308 Hz has too many samples"),
    ], ids=["huge-window", "huge-fs"])
    def test_window_beyond_float_is_data_error(self, tmp_path, capsys, payload, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"montages": [19], "trials": 3, **payload}))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "r")) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("spec", ["mu=9-11-12", "mu=9", "mu=a-b"])
    def test_malformed_band_flag_is_data_error(self, tmp_path, capsys, spec):
        assert run_cli("simulate", "--trials", "3", "--montages", "19", "--bands", spec,
                       "--out", str(tmp_path / "r")) == 2
        assert f"error: band '{spec}': range must be two numbers" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("payload, message", [
        ({"n_bins": 2**20 + 1}, "n_bins must be >= 2 and <= 1048576"),
        # The name becomes part of the scatter files' names.
        ({"bands": [{"name": "a\u0000b", "lo": 8, "hi": 13}]}, "band name must be"),
        ({"bands": [{"name": "mu", "lo": 9, "hi": 11, "hj": 12}]}, "unknown Band keys: ['hj']"),
        # The record must hold what the configured metrics use.
        ({"segment_samples": 8192},
         "segment_samples: 10000 samples hold 1 segment(s) of 8192; need >= 2"),
        ({"bands": ["nb=10.2-10.3"]}, "bands: band nb (10.2, 10.3) Hz selects no bins"),
        ({"metrics": ["PLV"], "window": {"window_seconds": 60}},
         "window: 10000 samples < one 12000-sample window"),
    ], ids=["bins-over-limit", "nul-band-name", "unknown-band-key", "segment-over-half-the-record",
            "band-between-bins", "window-over-the-record"])
    def test_rejected_before_any_cell_or_file(self, tmp_path, capsys, payload, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"montages": [19], "trials": 3, **payload}))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "r")) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_experiment_failure_exit_code(self, tmp_path, capsys):
        # A 50-source lead field for a 100-source config: every cell fails with ShapeMismatch.
        lf = generate_synthetic_leadfield("std19", 50, seed=1)
        matrix_io.write_leadfield(tmp_path / "lf.csv", lf)
        cfg = {
            "montages": [19], "metrics": ["COH"], "bands": ["alpha"],
            "trials": 3, "n_samples": 1200, "n_sources": 100, "n_active": 20,
            "segment_samples": 512, "leadfield_mode": f"file:{tmp_path / 'lf.csv'}",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "r")) == 3
        assert "ShapeMismatch" in capsys.readouterr().err


class TestNormativeCommand:
    def test_end_to_end(self, tmp_path, rng):
        for i in range(2):
            rec = make_record(rng.standard_normal((4, 512 * 4)), fs=200.0)
            cs = quiet_cross_spectrum(rec, 512)
            matrix_io.write_cross_spectrum(tmp_path / f"s{i}.csv", cs,
                                           list(rec.channel_names))
        out = tmp_path / "norm"
        assert run_cli("normative", "--input", str(tmp_path / "s*.csv"),
                       "--bands", "alpha,beta", "--out", str(out)) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # subjects x metrics x bands

    def test_bad_subject_is_recorded(self, tmp_path, rng):
        for i in range(3):
            rec = make_record(rng.standard_normal((4, 512 * 4)), fs=200.0)
            cs = quiet_cross_spectrum(rec, 512)
            matrix_io.write_cross_spectrum(tmp_path / f"s{i}.csv", cs,
                                           list(rec.channel_names))
        poison_alpha_entry(tmp_path / "s2.csv")
        out = tmp_path / "norm"
        assert run_cli("normative", "--input", str(tmp_path / "s*.csv"),
                       "--bands", "alpha", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["subjects_used"] == 2
        assert [f["trial"] for f in summary["failures"]] == [2]
        assert summary["failures"][0]["error"].startswith("s2.csv: ")
        assert summary["failures"][0]["error"].startswith("s2.csv: CrossSpectrumFormatError: ")

    def write_subjects(self, tmp_path, rng, count):
        for i in range(count):
            rec = make_record(rng.standard_normal((4, 512 * 4)), fs=200.0)
            matrix_io.write_cross_spectrum(tmp_path / f"s{i}.csv", quiet_cross_spectrum(rec, 512),
                                           list(rec.channel_names))

    def test_sidecar_beyond_the_file_is_a_subject_failure(self, tmp_path, rng):
        # A reader sizing its buffer by the labels alone would ask for 14.6 TiB here.
        self.write_subjects(tmp_path, rng, 4)
        side = matrix_io.sidecar_path(tmp_path / "s1.csv")
        side.write_text(json.dumps({"labels": [""] * 10**6, "n_segments": 4}))
        out = tmp_path / "norm"
        assert run_cli("normative", "--input", str(tmp_path / "s*.csv"),
                       "--bands", "alpha", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["subjects_used"] == 3
        # trial -1 marks the correlations' failures, which 4-channel subjects may have
        subject_fails = [f for f in summary["failures"] if f["trial"] >= 0]
        assert [(f["metric"], f["trial"]) for f in subject_fails] == [("-", 1)]
        assert subject_fails[0]["error"].startswith("s1.csv: CrossSpectrumFormatError: ")
        assert "too short for" in subject_fails[0]["error"]

    def test_bins_over_limit_is_data_error(self, tmp_path, capsys, rng):
        self.write_subjects(tmp_path, rng, 3)
        assert run_cli("normative", "--input", str(tmp_path / "s*.csv"),
                       "--bins", str(2**20 + 1), "--out", str(tmp_path / "o")) == 2
        assert "error: n_bins must be >= 2 and <= 1048576" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_band_edge_is_data_error(self, tmp_path, capsys, rng, monkeypatch):
        self.write_subjects(tmp_path, rng, 3)
        read = []
        monkeypatch.setattr(matrix_io, "read_cross_spectrum", lambda path: read.append(path))
        assert run_cli("normative", "--input", str(tmp_path / "s*.csv"), "--bands", "hi=8-inf",
                       "--out", str(tmp_path / "o")) == 2
        assert "error: band hi: need 0 < lo < hi < inf" in capsys.readouterr().err
        assert not read
        assert not (tmp_path / "o").exists()

    def test_no_match_is_data_error(self, tmp_path, capsys):
        assert run_cli("normative", "--input", str(tmp_path / "*.csv"),
                       "--out", str(tmp_path / "o")) == 2

    def test_no_bands_is_data_error(self, tmp_path, capsys, rng):
        rec = make_record(rng.standard_normal((4, 512 * 4)), fs=200.0)
        matrix_io.write_cross_spectrum(tmp_path / "s0.csv", quiet_cross_spectrum(rec, 512),
                                       list(rec.channel_names))
        assert run_cli("normative", "--input", str(tmp_path / "s*.csv"), "--bands", "",
                       "--out", str(tmp_path / "o")) == 2
        assert "error: at least one band required" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestUsageErrors:
    def test_unknown_subcommand_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_arg_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-sources"])  # --out is required
        assert exc.value.code == 1

    @pytest.mark.parametrize("spec", ["19.5", "19,x"])
    def test_non_integer_montage_exit_one(self, tmp_path, capsys, spec):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--montages", spec, "--out", str(tmp_path / "r")])
        assert exc.value.code == 1
        assert "channel counts" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_no_subcommand_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestScripts:
    def test_normative_demo(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "normative_demo.py"),
             "--subjects", "3", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["aggregates"]) == {
            f"19/{metric}/{band}" for metric in ("COH", "iCOH")
            for band in ("delta", "theta", "alpha", "beta")
        }
