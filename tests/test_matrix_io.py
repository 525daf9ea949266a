import json
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_record, quiet_cross_spectrum
from oracles import rowloop_read_cross_spectrum, rowloop_write_cross_spectrum

from fcdist import matrix_io
from fcdist.errors import CrossSpectrumFormatError, InvalidData
from fcdist.forward import generate_synthetic_leadfield, generate_synthetic_sources
from fcdist.spectral import CrossSpectrum


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
        with pytest.raises(InvalidData, match="numeric fs"):
            matrix_io.read_source_library(path)
        side.unlink()
        with pytest.raises(InvalidData, match="numeric fs"):
            matrix_io.read_source_library(path)

    def test_source_library_rejects_non_numeric_fs(self, tmp_path):
        lib = generate_synthetic_sources(4, 300, 128.0, 9.5, seed=3)
        path = matrix_io.write_source_library(tmp_path / "lib.csv", lib)
        side = matrix_io.sidecar_path(path)
        meta = json.loads(side.read_text())
        for fs in (None, "abc", [128.0], "200", True):
            side.write_text(json.dumps({**meta, "fs": fs}))
            with pytest.raises(InvalidData, match="numeric fs"):
                matrix_io.read_source_library(path)

    def test_leadfield(self, tmp_path):
        lf = generate_synthetic_leadfield("egi32", 40, seed=2)
        matrix_io.write_leadfield(tmp_path / "lf.csv", lf)
        back = matrix_io.read_leadfield(tmp_path / "lf.csv")
        assert np.array_equal(back.gain, lf.gain)
        assert back.channel_names == lf.channel_names
        assert back.montage == "egi32"

    def test_bad_file_or_sidecar_is_invalid_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(InvalidData):
            matrix_io.read_matrix(path)
        path.write_text("1.0,2.0\n")
        matrix_io.sidecar_path(path).write_text("{not json")
        with pytest.raises(InvalidData):
            matrix_io.read_matrix(path)
        matrix_io.sidecar_path(path).write_text('{"kind": "leadfield", "fs": 1.0}')
        with pytest.raises(InvalidData, match="expected kind"):
            matrix_io.read_source_library(path)

    @pytest.mark.parametrize("case", [
        "missing", "directory", "not-utf8", "sidecar-list", "sidecar-labels-int",
        "sidecar-labels-numbers", "sidecar-labels-null", "sidecar-directory"])
    def test_unreadable_input_is_invalid_data(self, tmp_path, case):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n")
        side = matrix_io.sidecar_path(path)
        if case == "missing":
            path.unlink()
        elif case == "directory":
            path.unlink()
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"1.0,2.\xff\n")
        elif case == "sidecar-directory":
            side.mkdir()
        else:
            labels = {"sidecar-labels-int": 5, "sidecar-labels-numbers": [1],
                      "sidecar-labels-null": None}.get(case)
            side.write_text(json.dumps([1, 2] if case == "sidecar-list" else {"labels": labels}))
        with pytest.raises(InvalidData):
            matrix_io.read_leadfield(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n\n#another\n"],
                             ids=["empty", "blank", "comments"])
    def test_no_data_rows(self, tmp_path, text):
        # np.loadtxt would warn here, and the suite turns warnings into errors
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InvalidData, match="no data rows"):
            matrix_io.read_matrix(path)

    def test_comment_and_blank_lines_beside_data(self, tmp_path, rng):
        data = rng.standard_normal((3, 4)) * np.exp(rng.uniform(-20, 20, (3, 4)))
        path = matrix_io.write_matrix(tmp_path / "m.csv", data, {"kind": "record"})
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(["# written by hand\n", lines[0], "\n", lines[1],
                                 "#\n", lines[2].replace("\n", " # last row\n")]))
        back, _ = matrix_io.read_matrix(path)
        assert np.array_equal(back, data)

    def test_threads_leave_the_warning_filters_alone(self, tmp_path, monkeypatch):
        # Reader A enters, then B; A leaves first, then B: a reader that swapped the
        # process-wide filters on entry would leave A's filters behind.
        path = matrix_io.write_matrix(tmp_path / "m.csv", np.eye(3), {})
        loadtxt = np.loadtxt
        entered = {name: threading.Event() for name in "AB"}
        leave = {name: threading.Event() for name in "AB"}

        def gated_loadtxt(*args, **kwargs):
            name = threading.current_thread().name
            entered[name].set()
            leave[name].wait(10)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", gated_loadtxt)
        filters = list(warnings.filters)
        results = []
        readers = {name: threading.Thread(target=lambda: results.append(
            matrix_io.read_matrix(path)[0]), name=name) for name in "AB"}
        for name in "AB":
            readers[name].start()
            assert entered[name].wait(10)
        for name in "AB":
            leave[name].set()
            readers[name].join(10)
            assert not readers[name].is_alive()
        assert warnings.filters == filters
        assert len(results) == 2 and all(np.array_equal(r, np.eye(3)) for r in results)

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


# One complete two-channel bin at frequency ``f``.
def _bin_rows(f):
    return [f"{f},0,0,1.0,0.0", f"{f},0,1,0.5,-0.25", f"{f},1,1,2.0,0.0"]


def _write_raw(tmp_path, rows, labels=("A", "B")):
    path = tmp_path / "raw.csv"
    path.write_text("".join(line + "\n" for line in ["freq_hz,ch_i,ch_j,re,im", *rows]))
    matrix_io.sidecar_path(path).write_text(
        json.dumps({"labels": list(labels), "n_segments": 4}))
    return path


class TestCrossSpectrumRejects:
    @pytest.mark.parametrize("rows", [
        pytest.param(_bin_rows(1.0) + ["2.0,0,0,1.0"], id="four-fields"),
        pytest.param(_bin_rows(1.0) + ["2.0,0,0,1.0,0.0,0.0"], id="six-fields"),
        pytest.param(["1.0,0,1.5,1.0,0.0"], id="index-1.5"),
        pytest.param(["1.0,1e0,1,1.0,0.0"], id="index-1e0"),
        pytest.param(_bin_rows(2.0) + _bin_rows(1.0), id="bin-out-of-order"),
        pytest.param([], id="header-only"),
        pytest.param(_bin_rows(1.0)[:1] + ["# comment"] + _bin_rows(1.0)[1:], id="comment"),
        pytest.param(_bin_rows("nan"), id="nan-frequency"),
        # The container's InvalidData, named by the file.
        pytest.param(["1.0,0,0,1.0,0.5"] + _bin_rows(1.0)[1:], id="complex-diagonal"),
    ])
    def test_format_error_names_the_file(self, tmp_path, rows):
        path = _write_raw(tmp_path, rows)
        with pytest.raises(CrossSpectrumFormatError) as err:
            matrix_io.read_cross_spectrum(path)
        assert str(err.value).startswith(f"{path}:")

    @pytest.mark.parametrize("case", [
        "not-utf8-header", "not-utf8-row", "directory", "sidecar-list",
        "sidecar-labels-numbers", "sidecar-without-labels", "sidecar-segments-float",
        "sidecar-segments-true", "sidecar-segments-str"])
    def test_unreadable_file_is_format_error(self, tmp_path, case):
        path = _write_raw(tmp_path, _bin_rows(1.0))
        side = matrix_io.sidecar_path(path)
        if case.startswith("not-utf8"):
            lines = path.read_bytes().splitlines(keepends=True)
            k = 0 if case == "not-utf8-header" else 2
            lines[k] = lines[k].replace(b",", b"\xff,", 1)
            path.write_bytes(b"".join(lines))
        elif case == "directory":
            path.unlink()
            path.mkdir()
        else:
            side.write_text(json.dumps({
                "sidecar-list": [1, 2],
                "sidecar-labels-numbers": {"labels": [0, 1], "n_segments": 4},
                "sidecar-without-labels": {"n_segments": 4},
                "sidecar-segments-float": {"labels": ["A", "B"], "n_segments": 2.7},
                "sidecar-segments-true": {"labels": ["A", "B"], "n_segments": True},
                "sidecar-segments-str": {"labels": ["A", "B"], "n_segments": "3"},
            }[case]))
        with pytest.raises(CrossSpectrumFormatError):
            matrix_io.read_cross_spectrum(path)

    @pytest.mark.parametrize("freq", ["nan", "inf", "-inf"])
    def test_non_finite_frequency_named(self, tmp_path, freq):
        path = _write_raw(tmp_path, _bin_rows(1.0) + _bin_rows(freq))
        with pytest.raises(CrossSpectrumFormatError, match="must be finite"):
            matrix_io.read_cross_spectrum(path)

    @pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [0, 3, 4], ids=["freq_hz", "re", "im"])
    def test_non_finite_value_names_its_line(self, tmp_path, field, value):
        # A NaN entry used to read as a missing one, an inf one carried no line number.
        rows = _bin_rows(1.0) + ["", *_bin_rows(2.0)]
        parts = rows[5].split(",")
        parts[field] = value
        rows[5] = ",".join(parts)
        path = _write_raw(tmp_path, rows)
        with pytest.raises(CrossSpectrumFormatError) as err:
            matrix_io.read_cross_spectrum(path)
        assert str(err.value) == f"{path}:7: freq_hz, re and im must be finite"

    def test_blank_lines_between_rows_accepted(self, tmp_path):
        rows = _bin_rows(1.0) + _bin_rows(2.0)
        plain, _ = matrix_io.read_cross_spectrum(_write_raw(tmp_path, rows))
        spaced, _ = matrix_io.read_cross_spectrum(
            _write_raw(tmp_path, ["", *rows[:2], "  ", *rows[2:], ""]))
        assert spaced.freqs.tobytes() == plain.freqs.tobytes()
        assert spaced.mats.tobytes() == plain.mats.tobytes()


# Signed zeros, subnormals and extremes, mixed with arbitrary finite floats.
_edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300])
_parts = st.one_of(_edge_floats, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def cross_spectra(draw):
    """Exactly Hermitian stacks of 1-9 channels and 1-6 bins whose diagonal is
    non-negative with a +0.0 or -0.0 imaginary part."""
    n = draw(st.integers(1, 9))
    freqs = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=1, max_size=6, unique=True)))
    shape = (len(freqs), n, n)
    mats = draw(hnp.arrays(np.float64, shape, elements=_parts)) + 0j
    mats.imag = draw(hnp.arrays(np.float64, shape, elements=_parts))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    mats = np.where(upper, mats, mats.conj().transpose(0, 2, 1))
    idx = np.arange(n)
    diag = mats[:, idx, idx]
    diag.real = np.abs(diag.real)
    diag.imag = np.copysign(0.0, diag.imag)
    mats[:, idx, idx] = diag
    return CrossSpectrum(freqs=np.array(freqs), mats=mats, n_segments=3)


def _valid_shuffle(rows, n_pairs, rnd):
    """Rows of consecutive n_pairs-row bins reordered so that each bin still
    first appears after every earlier bin: one leader row per bin keeps the
    bin order, and every other row lands anywhere after its leader."""
    bins = [rows[b:b + n_pairs] for b in range(0, len(rows), n_pairs)]
    for b in bins:
        rnd.shuffle(b)
    out = [b[0] for b in bins]
    for b in bins:
        for row in b[1:]:
            out.insert(rnd.randint(out.index(b[0]) + 1, len(out)), row)
    return out


class TestCrossSpectrumAgainstRowLoop:
    """The chunked reader and the per-bin writer against the row-loop oracles."""

    @given(cross_spectra(), st.randoms(use_true_random=False),
           st.sampled_from([1, 2, 3, 7, 1 << 16]))
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_oracle(self, cs, rnd, chunk):
        labels = [f"E{k}" for k in range(cs.n_channels)]
        n_pairs = cs.n_channels * (cs.n_channels + 1) // 2
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(matrix_io, "_CS_CHUNK_LINES", chunk):
            new = matrix_io.write_cross_spectrum(Path(tmp) / "new.csv", cs, labels)
            ref = rowloop_write_cross_spectrum(Path(tmp) / "ref.csv", cs, labels)
            assert new.read_bytes() == ref.read_bytes()
            assert (matrix_io.sidecar_path(new).read_bytes()
                    == matrix_io.sidecar_path(ref).read_bytes())

            header, *rows = new.read_text().splitlines(keepends=True)
            shuffled = Path(tmp) / "shuffled.csv"
            shuffled.write_text(header + "".join(_valid_shuffle(rows, n_pairs, rnd)))
            matrix_io.sidecar_path(shuffled).write_bytes(matrix_io.sidecar_path(new).read_bytes())
            for path in (new, shuffled):
                got, got_labels = matrix_io.read_cross_spectrum(path)
                want, _ = rowloop_read_cross_spectrum(path)
                assert got_labels == labels
                assert got.freqs.tobytes() == want.freqs.tobytes()
                assert got.mats.tobytes() == want.mats.tobytes()
                assert got.n_segments == want.n_segments

    @given(cross_spectra(), st.randoms(use_true_random=False),
           st.sampled_from(["shuffle", "drop", "repeat", "blank", "nonfinite", "late_first"]),
           st.sampled_from([1, 3, 1 << 16]))
    @settings(max_examples=100, deadline=None)
    def test_same_verdict_as_oracle(self, cs, rnd, edit, chunk):
        """Any reordering, a dropped or repeated row, blank lines, a non-finite
        frequency, or a frequency that first appears after a higher one at the
        start of a chunk: the two readers accept the same files, with equal
        matrices, and reject the rest."""
        labels = [f"E{k}" for k in range(cs.n_channels)]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(matrix_io, "_CS_CHUNK_LINES", chunk):
            path = matrix_io.write_cross_spectrum(Path(tmp) / "cs.csv", cs, labels)
            header, *rows = path.read_text().splitlines(keepends=True)
            k = rnd.randrange(len(rows))
            if edit == "shuffle":
                rnd.shuffle(rows)
            elif edit == "drop":
                del rows[k]
            elif edit == "repeat":
                rows.insert(rnd.randint(0, len(rows)), rows[k])
            elif edit == "blank":
                rows.insert(k, rnd.choice(["\n", "  \n", "\t\n"]))
            elif edit == "nonfinite":
                rows[k] = rnd.choice(["nan", "inf", "-inf"]) + rows[k][rows[k].index(","):]
            else:
                # A row of bin b + 1 moved ahead of bin b, and blank lines so that
                # bin b's first row, now after a higher frequency, starts a chunk.
                assume(len(cs.freqs) > 1)
                n_pairs = len(rows) // len(cs.freqs)
                b = rnd.randrange(len(cs.freqs) - 1)
                higher = rows.pop((b + 1) * n_pairs + rnd.randrange(n_pairs))
                head, tail = rows[:b * n_pairs], rows[b * n_pairs:]
                rows = head + ["\n"] * (-(len(head) + 1) % chunk) + [higher] + tail
            path.write_text(header + "".join(rows))
            outcomes = []
            for read in (matrix_io.read_cross_spectrum, rowloop_read_cross_spectrum):
                try:
                    got, _ = read(path)
                    outcomes.append((got.freqs.tobytes(), got.mats.tobytes()))
                except CrossSpectrumFormatError:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1]
