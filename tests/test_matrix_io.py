import json

import numpy as np
import pytest

from conftest import make_record, quiet_cross_spectrum

from fcdist import matrix_io
from fcdist.errors import CrossSpectrumFormatError, InvalidData
from fcdist.forward import generate_synthetic_leadfield, generate_synthetic_sources


class TestMatrixRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        data = rng.standard_normal((7, 13)) * np.exp(rng.uniform(-20, 20, (7, 13)))
        path = matrix_io.write_matrix(tmp_path / "m.csv", data, {"kind": "record", "fs": 100.0})
        back, meta = matrix_io.read_matrix(path)
        assert np.array_equal(back, data)
        assert meta["kind"] == "record"

    def test_sidecar_name(self, tmp_path):
        path = matrix_io.write_matrix(tmp_path / "thing.csv", np.eye(2), {"kind": "sources"})
        assert (tmp_path / "thing.meta.json").exists()

    def test_single_row(self, tmp_path):
        path = matrix_io.write_matrix(tmp_path / "r.csv", np.array([[1.0, 2.0, 3.0]]), {})
        back, _ = matrix_io.read_matrix(path)
        assert back.shape == (1, 3)

    def test_source_library(self, tmp_path):
        lib = generate_synthetic_sources(4, 300, 128.0, 9.5, seed=3)
        matrix_io.write_source_library(tmp_path / "lib.csv", lib)
        back = matrix_io.read_source_library(tmp_path / "lib.csv")
        assert np.array_equal(back.data, lib.data)
        assert back.fs == lib.fs

    def test_source_library_requires_fs(self, tmp_path):
        lib = generate_synthetic_sources(4, 300, 128.0, 9.5, seed=3)
        path = matrix_io.write_source_library(tmp_path / "lib.csv", lib)
        side = matrix_io.sidecar_path(path)
        meta = json.loads(side.read_text())
        del meta["fs"]
        side.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="fs"):
            matrix_io.read_source_library(path)
        side.unlink()
        with pytest.raises(ValueError, match="fs"):
            matrix_io.read_source_library(path)

    def test_leadfield(self, tmp_path):
        lf = generate_synthetic_leadfield("egi32", 40, seed=2)
        matrix_io.write_leadfield(tmp_path / "lf.csv", lf)
        back = matrix_io.read_leadfield(tmp_path / "lf.csv")
        assert np.array_equal(back.gain, lf.gain)
        assert back.channel_names == lf.channel_names
        assert back.montage == "egi32"

    def test_record(self, tmp_path, rng):
        rec = make_record(rng.standard_normal((3, 50)), fs=250.0)
        matrix_io.write_record(tmp_path / "rec.csv", rec)
        back = matrix_io.read_record(tmp_path / "rec.csv")
        assert np.array_equal(back.data, rec.data)
        assert back.fs == 250.0

    def test_record_requires_fs(self, tmp_path):
        matrix_io.write_matrix(tmp_path / "x.csv", np.ones((2, 4)),
                               {"kind": "record", "labels": ["a", "b"], "fs": None})
        with pytest.raises(ValueError):
            matrix_io.read_record(tmp_path / "x.csv")

    def test_bad_file_or_sidecar_is_invalid_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(InvalidData):
            matrix_io.read_matrix(path)
        path.write_text("1.0,2.0\n")
        matrix_io.sidecar_path(path).write_text("{not json")
        with pytest.raises(InvalidData):
            matrix_io.read_matrix(path)
        matrix_io.sidecar_path(path).write_text('{"kind": "leadfield"}')
        with pytest.raises(InvalidData, match="expected kind"):
            matrix_io.read_record(path)
        matrix_io.sidecar_path(path).write_text('{"kind": "record", "fs": "abc"}')
        with pytest.raises(InvalidData, match="numeric fs"):
            matrix_io.read_record(path)


class TestCrossSpectrumFile:
    def make_cs(self, rng, n_ch=3):
        rec = make_record(rng.standard_normal((n_ch, 64 * 5)), fs=64.0)
        return quiet_cross_spectrum(rec, 64)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        cs = self.make_cs(rng)
        labels = ["A", "B", "C"]
        matrix_io.write_cross_spectrum(tmp_path / "cs.csv", cs, labels)
        back, back_labels = matrix_io.read_cross_spectrum(tmp_path / "cs.csv")
        assert back_labels == labels
        assert back.n_segments == cs.n_segments
        assert np.array_equal(back.freqs, cs.freqs)
        assert np.array_equal(back.mats, cs.mats)

    def test_header_written(self, tmp_path, rng):
        cs = self.make_cs(rng)
        path = matrix_io.write_cross_spectrum(tmp_path / "cs.csv", cs, ["A", "B", "C"])
        first = path.read_text().splitlines()[0]
        assert first == "freq_hz,ch_i,ch_j,re,im"

    def test_upper_triangle_only(self, tmp_path, rng):
        cs = self.make_cs(rng)
        path = matrix_io.write_cross_spectrum(tmp_path / "cs.csv", cs, ["A", "B", "C"])
        rows = path.read_text().splitlines()[1:]
        n_pairs_per_freq = 3 * 4 // 2
        assert len(rows) == len(cs.freqs) * n_pairs_per_freq
        for row in rows[:40]:
            _, i, j, _, _ = row.split(",")
            assert int(i) <= int(j)

    def test_missing_sidecar(self, tmp_path, rng):
        cs = self.make_cs(rng)
        path = matrix_io.write_cross_spectrum(tmp_path / "cs.csv", cs, ["A", "B", "C"])
        matrix_io.sidecar_path(path).unlink()
        with pytest.raises(CrossSpectrumFormatError):
            matrix_io.read_cross_spectrum(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,i,j,re,im\n1.0,0,0,1.0,0.0\n")
        with open(matrix_io.sidecar_path(path), "w") as f:
            json.dump({"labels": ["A"], "n_segments": 4}, f)
        with pytest.raises(CrossSpectrumFormatError):
            matrix_io.read_cross_spectrum(path)

    def test_incomplete_triangle(self, tmp_path, rng):
        cs = self.make_cs(rng)
        path = matrix_io.write_cross_spectrum(tmp_path / "cs.csv", cs, ["A", "B", "C"])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CrossSpectrumFormatError):
            matrix_io.read_cross_spectrum(path)

    def test_duplicate_row_rejected(self, tmp_path, rng):
        cs = self.make_cs(rng)
        path = matrix_io.write_cross_spectrum(tmp_path / "cs.csv", cs, ["A", "B", "C"])
        lines = path.read_text().splitlines()
        freq, i, j, _, im = lines[2].split(",")  # first bin, pair (0, 1)
        lines.append(",".join((freq, i, j, "9.5", im)))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CrossSpectrumFormatError, match="duplicate"):
            matrix_io.read_cross_spectrum(path)

    def test_bad_channel_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,ch_i,ch_j,re,im\n1.0,1,0,1.0,0.0\n")
        with open(matrix_io.sidecar_path(path), "w") as f:
            json.dump({"labels": ["A", "B"], "n_segments": 4}, f)
        with pytest.raises(CrossSpectrumFormatError):
            matrix_io.read_cross_spectrum(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,ch_i,ch_j,re,im\noops,0,0,1.0,0.0\n")
        with open(matrix_io.sidecar_path(path), "w") as f:
            json.dump({"labels": ["A"], "n_segments": 4}, f)
        with pytest.raises(CrossSpectrumFormatError):
            matrix_io.read_cross_spectrum(path)

    def test_label_count_mismatch(self, tmp_path, rng):
        cs = self.make_cs(rng)
        with pytest.raises(ValueError):
            matrix_io.write_cross_spectrum(tmp_path / "cs.csv", cs, ["A", "B"])
