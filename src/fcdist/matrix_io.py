"""File formats: numeric matrix CSV with JSON sidecar, cross-spectrum CSV.

Matrices are plain numeric CSV, row-major, no header, with a sidecar
``<name>.meta.json`` describing the payload. Cross-spectra use a long
CSV (``freq_hz,ch_i,ch_j,re,im``) listing only the upper triangle i <= j;
the Hermitian completion is implied. All floats are written with
``repr``, which round-trips float64 exactly.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .errors import CrossSpectrumFormatError, InvalidData
from .forward import LeadField, MultichannelRecord, SourceLibrary
from .spectral import CrossSpectrum


def sidecar_path(path: Path | str) -> Path:
    return Path(path).with_suffix(".meta.json")


def write_matrix(path: Path | str, data: np.ndarray, meta: dict) -> Path:
    """Write a 2-D matrix as headerless CSV plus its JSON sidecar."""
    path = Path(path)
    data = np.atleast_2d(np.asarray(data, dtype=float))
    with open(path, "w", newline="\n") as f:
        for row in data:
            f.write(",".join(map(repr, row.tolist())))
            f.write("\n")
    with open(sidecar_path(path), "w", newline="\n") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    return path


def read_matrix(path: Path | str) -> tuple[np.ndarray, dict]:
    """Read a matrix CSV and its sidecar as (data, meta); InvalidData if either is malformed."""
    path = Path(path)
    side = sidecar_path(path)
    meta: dict = {}
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if side.exists():
            with open(side) as f:
                meta = json.load(f)
    except ValueError as e:
        raise InvalidData(f"{path}: {e}") from e
    return data, meta


def write_source_library(path: Path | str, lib: SourceLibrary) -> Path:
    labels = [f"S{i:04d}" for i in range(lib.n_library)]
    return write_matrix(
        path, lib.data,
        {"fs": lib.fs, "labels": labels, "kind": "sources", "origin": lib.origin},
    )


def _sidecar_fs(path: Path | str, meta: dict) -> float:
    try:
        return float(meta["fs"])
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidData(f"{path}: sidecar must carry a numeric fs") from e


def _read_kind(path: Path | str, kind: str) -> tuple[np.ndarray, dict]:
    """``read_matrix``, with InvalidData unless the sidecar's kind is ``kind`` or absent."""
    data, meta = read_matrix(path)
    if meta.get("kind") not in (None, kind):
        raise InvalidData(f"{path}: expected kind {kind!r}, got {meta.get('kind')!r}")
    return data, meta


def _labels(data: np.ndarray, meta: dict) -> tuple[str, ...]:
    return tuple(meta.get("labels") or (f"ch{i}" for i in range(data.shape[0])))


def read_source_library(path: Path | str) -> SourceLibrary:
    data, meta = _read_kind(path, "sources")
    return SourceLibrary(data=data, fs=_sidecar_fs(path, meta),
                         origin=meta.get("origin", str(path)))


def write_leadfield(path: Path | str, lf: LeadField) -> Path:
    return write_matrix(
        path, lf.gain,
        {"fs": None, "labels": list(lf.channel_names), "kind": "leadfield",
         "montage": lf.montage},
    )


def read_leadfield(path: Path | str) -> LeadField:
    data, meta = _read_kind(path, "leadfield")
    return LeadField(
        gain=data, montage=meta.get("montage", "custom"), channel_names=_labels(data, meta)
    )


def write_record(path: Path | str, rec: MultichannelRecord) -> Path:
    return write_matrix(
        path, rec.data,
        {"fs": rec.fs, "labels": list(rec.channel_names), "kind": "record"},
    )


def read_record(path: Path | str) -> MultichannelRecord:
    data, meta = _read_kind(path, "record")
    return MultichannelRecord(data=data, fs=_sidecar_fs(path, meta),
                              channel_names=_labels(data, meta))


CROSS_SPECTRUM_HEADER = "freq_hz,ch_i,ch_j,re,im"
# One data row of a cross-spectrum file as np.loadtxt parses it.
_CS_ROW = np.dtype([("freq", "f8"), ("i", np.intp), ("j", np.intp), ("re", "f8"), ("im", "f8")])
# Lines parsed per np.loadtxt call. Reading in chunks bounds the reader's
# temporaries (about 2 MB of line strings and parsed rows) whatever the file
# size; 2^16-line chunks cost 15 MB more peak memory and saved under 5 % of the time.
_CS_CHUNK_LINES = 1 << 13


def write_cross_spectrum(
    path: Path | str, cs: CrossSpectrum, labels: list[str] | tuple[str, ...]
) -> Path:
    """Write the upper triangle (i <= j) of a cross-spectrum, long format."""
    path = Path(path)
    n = cs.n_channels
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} channels")
    iu, ju = np.triu_indices(n)
    pairs = [f"{i},{j}," for i, j in zip(iu.tolist(), ju.tolist())]
    with open(path, "w", newline="\n") as f:
        f.write(CROSS_SPECTRUM_HEADER + "\n")
        for freq, mat in zip(cs.freqs.tolist(), cs.mats):
            z = mat[iu, ju]
            lead = f"{freq!r},"
            f.write("".join(
                f"{lead}{pair}{re!r},{im!r}\n"
                for pair, re, im in zip(pairs, z.real.tolist(), z.imag.tolist())
            ))
    with open(sidecar_path(path), "w", newline="\n") as f:
        json.dump({"labels": list(labels), "n_segments": cs.n_segments}, f, indent=2)
        f.write("\n")
    return path


def _parse_rows(path: Path, lines: list[str], lineno: int) -> np.ndarray:
    """Parse one chunk of lines, the first being line ``lineno``; blank lines are skipped."""
    data = list(itertools.filterfalse(str.isspace, lines))
    if not data:
        return np.empty(0, dtype=_CS_ROW)
    try:
        return np.loadtxt(data, delimiter=",", dtype=_CS_ROW, comments=None, ndmin=1)
    except ValueError as e:
        raise CrossSpectrumFormatError(
            f"{path}:{lineno}-{lineno + len(lines) - 1}: {e}") from e


def read_cross_spectrum(path: Path | str) -> tuple[CrossSpectrum, list[str]]:
    """Parse a cross-spectrum file written by :func:`write_cross_spectrum`.

    Data rows may come in any order as long as each frequency first appears
    after every lower one; the file is streamed in fixed-size chunks.
    Raises CrossSpectrumFormatError for malformed or incomplete files.
    """
    path = Path(path)
    side = sidecar_path(path)
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
    # One NaN-filled (n, n) matrix per frequency, in order of first appearance.
    entries: dict[float, np.ndarray] = {}
    n_rows = 0
    with open(path) as f:
        header = f.readline().strip()
        if header != CROSS_SPECTRUM_HEADER:
            raise CrossSpectrumFormatError(
                f"{path}: expected header {CROSS_SPECTRUM_HEADER!r}, got {header!r}"
            )
        lineno = 2
        while lines := list(itertools.islice(f, _CS_CHUNK_LINES)):
            rows = _parse_rows(path, lines, lineno)
            i, j = rows["i"], rows["j"]
            bad = np.flatnonzero((i < 0) | (i > j) | (j >= n))
            if bad.size:
                k = bad[0]
                data_lines = [m for m, line in enumerate(lines, lineno) if not line.isspace()]
                raise CrossSpectrumFormatError(
                    f"{path}:{data_lines[k]}: channel pair ({i[k]}, {j[k]}) "
                    f"outside 0..{n - 1} or i > j"
                )
            # Built from parts, not re + 1j * im, so -0.0 and inf come through exactly.
            z = np.empty(rows.size, dtype=complex)
            z.real, z.imag = rows["re"], rows["im"]
            uniq, first, inv = np.unique(rows["freq"], return_index=True, return_inverse=True)
            # Row numbers grouped by frequency, in file order within each group.
            by_freq = np.argsort(inv, kind="stable")
            ends = np.cumsum(np.bincount(inv)).tolist()
            for u in np.argsort(first).tolist():
                freq = float(uniq[u])
                if freq not in entries:
                    entries[freq] = np.full((n, n), np.nan, dtype=complex)
                mat = entries[freq]
                sel = by_freq[ends[u - 1] if u else 0:ends[u]]
                # Upper entry, then its conjugate: a diagonal entry ends up conjugated.
                mat[i[sel], j[sel]] = z[sel]
                mat[j[sel], i[sel]] = z[sel].conj()
            n_rows += rows.size
            lineno += len(lines)

    if not entries:
        raise CrossSpectrumFormatError(f"{path}: no data rows")
    # More rows than upper-triangle entries means some (freq, i, j) repeats.
    if n_rows > len(entries) * n * (n + 1) // 2:
        raise CrossSpectrumFormatError(f"{path}: duplicate (freq_hz, ch_i, ch_j) rows")
    freqs = np.array(list(entries))
    if np.any(np.diff(freqs) <= 0):
        raise CrossSpectrumFormatError(f"{path}: frequencies not strictly increasing")
    mats = np.stack(list(entries.values()))
    if np.any(np.isnan(mats)):
        raise CrossSpectrumFormatError(f"{path}: incomplete upper triangle")
    try:
        cs = CrossSpectrum(freqs=freqs, mats=mats, n_segments=n_segments)
    except InvalidData as e:
        raise CrossSpectrumFormatError(f"{path}: {e}") from e
    return cs, labels
