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

from .errors import CrossSpectrumFormatError, FcdistError, InvalidData
from .forward import LeadField, SourceLibrary
from .spectral import CrossSpectrum


def sidecar_path(path: Path | str) -> Path:
    return Path(path).with_suffix(".meta.json")


def _write_sidecar(path: Path, meta: dict) -> None:
    with open(sidecar_path(path), "w", newline="\n") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")


def _read_sidecar(path: Path, error: type[FcdistError], required: bool) -> dict:
    """The JSON object in ``path``'s sidecar, or ``{}`` if there is none and none is required.

    Raises ``error`` for a missing required sidecar, one that cannot be read
    or is not a JSON object, and ``labels`` that are not a list of strings.
    """
    side = sidecar_path(path)
    if not side.exists():
        if required:
            raise error(f"{path}: missing sidecar {side.name}")
        return {}
    try:
        with open(side) as f:
            meta = json.load(f)
    except (OSError, ValueError) as e:
        raise error(f"{side}: bad sidecar ({e})") from e
    if not isinstance(meta, dict):
        raise error(f"{side}: sidecar must be a JSON object")
    labels = meta.get("labels", [])
    if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise error(f"{side}: labels must be a list of strings")
    return meta


def write_matrix(path: Path | str, data: np.ndarray, meta: dict) -> Path:
    """Write a 2-D matrix as headerless CSV plus its JSON sidecar."""
    path = Path(path)
    data = np.atleast_2d(np.asarray(data, dtype=float))
    with open(path, "w", newline="\n") as f:
        for row in data:
            f.write(",".join(map(repr, row.tolist())))
            f.write("\n")
    _write_sidecar(path, meta)
    return path


def read_matrix(path: Path | str) -> tuple[np.ndarray, dict]:
    """Read a matrix CSV and its sidecar as (data, meta); InvalidData if either is unreadable."""
    path = Path(path)
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as e:
        raise InvalidData(f"{path}: {e}") from e
    return data, _read_sidecar(path, InvalidData, required=False)


def write_source_library(path: Path | str, lib: SourceLibrary) -> Path:
    labels = [f"S{i:04d}" for i in range(lib.n_library)]
    return write_matrix(
        path, lib.data,
        {"fs": lib.fs, "labels": labels, "kind": "sources", "origin": lib.origin},
    )


def _read_kind(path: Path | str, kind: str) -> tuple[np.ndarray, dict]:
    """``read_matrix``, with InvalidData unless the sidecar's kind is ``kind`` or absent."""
    data, meta = read_matrix(path)
    if meta.get("kind") not in (None, kind):
        raise InvalidData(f"{path}: expected kind {kind!r}, got {meta.get('kind')!r}")
    return data, meta


def read_source_library(path: Path | str) -> SourceLibrary:
    data, meta = _read_kind(path, "sources")
    try:
        fs = float(meta["fs"])
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidData(f"{path}: sidecar must carry a numeric fs") from e
    return SourceLibrary(data=data, fs=fs, origin=meta.get("origin", str(path)))


def write_leadfield(path: Path | str, lf: LeadField) -> Path:
    return write_matrix(
        path, lf.gain,
        {"fs": None, "labels": list(lf.channel_names), "kind": "leadfield",
         "montage": lf.montage},
    )


def read_leadfield(path: Path | str) -> LeadField:
    data, meta = _read_kind(path, "leadfield")
    labels = meta.get("labels") or [f"ch{i}" for i in range(data.shape[0])]
    return LeadField(gain=data, montage=meta.get("montage", "custom"), channel_names=labels)


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
    _write_sidecar(path, {"labels": list(labels), "n_segments": cs.n_segments})
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
    Raises CrossSpectrumFormatError for unreadable, malformed or incomplete files.
    """
    path = Path(path)
    meta = _read_sidecar(path, CrossSpectrumFormatError, required=True)
    try:
        labels, n_segments = meta["labels"], int(meta["n_segments"])
    except (KeyError, TypeError, ValueError) as e:
        raise CrossSpectrumFormatError(f"{sidecar_path(path)}: bad sidecar ({e})") from e

    n = len(labels)
    # Row of ``mats`` per frequency, in order of first appearance. ``mats`` is
    # NaN-filled and doubled in place when full, then trimmed in place, so
    # the result is never held twice.
    index: dict[float, int] = {}
    mats = np.full((1, n, n), np.nan, dtype=complex)
    n_rows = 0
    try:
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
                    slot = index.setdefault(float(uniq[u]), len(index))
                    if slot == len(mats):
                        # No view of ``mats`` is alive here, so the buffer may move.
                        mats.resize((2 * slot, n, n), refcheck=False)
                        mats[slot:] = np.nan
                    sel = by_freq[ends[u - 1] if u else 0:ends[u]]
                    # Upper entry, then its conjugate: a diagonal entry ends up conjugated.
                    mats[slot, i[sel], j[sel]] = z[sel]
                    mats[slot, j[sel], i[sel]] = z[sel].conj()
                n_rows += rows.size
                lineno += len(lines)
    except (OSError, UnicodeDecodeError) as e:
        raise CrossSpectrumFormatError(f"{path}: {e}") from e

    if not index:
        raise CrossSpectrumFormatError(f"{path}: no data rows")
    # More rows than upper-triangle entries means some (freq, i, j) repeats.
    if n_rows > len(index) * n * (n + 1) // 2:
        raise CrossSpectrumFormatError(f"{path}: duplicate (freq_hz, ch_i, ch_j) rows")
    freqs = np.array(list(index))
    if np.any(freqs[1:] <= freqs[:-1]):
        raise CrossSpectrumFormatError(f"{path}: frequencies not strictly increasing")
    mats.resize((len(index), n, n), refcheck=False)
    if np.any(np.isnan(mats)):
        raise CrossSpectrumFormatError(f"{path}: incomplete upper triangle")
    try:
        cs = CrossSpectrum(freqs=freqs, mats=mats, n_segments=n_segments)
    except InvalidData as e:
        raise CrossSpectrumFormatError(f"{path}: {e}") from e
    return cs, labels
