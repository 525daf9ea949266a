"""File formats: numeric matrix CSV with JSON sidecar, cross-spectrum CSV.

Matrices are plain numeric CSV, row-major, no header, with a sidecar
``<name>.meta.json`` describing the payload. Cross-spectra use a long
CSV (``freq_hz,ch_i,ch_j,re,im``) listing only the upper triangle i <= j;
the Hermitian completion is implied. All floats are written with
``repr``, which round-trips float64 exactly.
"""

from __future__ import annotations

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
            f.write(",".join(repr(float(v)) for v in row))
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


def read_source_library(path: Path | str) -> SourceLibrary:
    data, meta = read_matrix(path)
    if meta.get("kind") not in (None, "sources"):
        raise InvalidData(f"{path}: expected kind 'sources', got {meta.get('kind')!r}")
    return SourceLibrary(data=data, fs=_sidecar_fs(path, meta),
                         origin=meta.get("origin", str(path)))


def write_leadfield(path: Path | str, lf: LeadField) -> Path:
    return write_matrix(
        path, lf.gain,
        {"fs": None, "labels": list(lf.channel_names), "kind": "leadfield",
         "montage": lf.montage},
    )


def read_leadfield(path: Path | str) -> LeadField:
    data, meta = read_matrix(path)
    if meta.get("kind") not in (None, "leadfield"):
        raise InvalidData(f"{path}: expected kind 'leadfield', got {meta.get('kind')!r}")
    names = meta.get("labels") or [f"ch{i}" for i in range(data.shape[0])]
    return LeadField(
        gain=data, montage=meta.get("montage", "custom"), channel_names=tuple(names)
    )


def write_record(path: Path | str, rec: MultichannelRecord) -> Path:
    return write_matrix(
        path, rec.data,
        {"fs": rec.fs, "labels": list(rec.channel_names), "kind": "record"},
    )


def read_record(path: Path | str) -> MultichannelRecord:
    data, meta = read_matrix(path)
    if meta.get("kind") not in (None, "record"):
        raise InvalidData(f"{path}: expected kind 'record', got {meta.get('kind')!r}")
    names = meta.get("labels") or [f"ch{i}" for i in range(data.shape[0])]
    return MultichannelRecord(data=data, fs=_sidecar_fs(path, meta), channel_names=tuple(names))


CROSS_SPECTRUM_HEADER = "freq_hz,ch_i,ch_j,re,im"


def write_cross_spectrum(
    path: Path | str, cs: CrossSpectrum, labels: list[str] | tuple[str, ...]
) -> Path:
    """Write the upper triangle (i <= j) of a cross-spectrum, long format."""
    path = Path(path)
    n = cs.n_channels
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} channels")
    with open(path, "w", newline="\n") as f:
        f.write(CROSS_SPECTRUM_HEADER + "\n")
        for fi, freq in enumerate(cs.freqs):
            mat = cs.mats[fi]
            freq_s = repr(float(freq))
            for i in range(n):
                for j in range(i, n):
                    z = mat[i, j]
                    f.write(f"{freq_s},{i},{j},{float(z.real)!r},{float(z.imag)!r}\n")
    with open(sidecar_path(path), "w", newline="\n") as f:
        json.dump({"labels": list(labels), "n_segments": cs.n_segments}, f, indent=2)
        f.write("\n")
    return path


def read_cross_spectrum(path: Path | str) -> tuple[CrossSpectrum, list[str]]:
    """Parse a cross-spectrum file written by :func:`write_cross_spectrum`.

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
    entries: dict[float, np.ndarray] = {}
    freq_order: list[float] = []
    n_rows = 0
    with open(path) as f:
        header = f.readline().strip()
        if header != CROSS_SPECTRUM_HEADER:
            raise CrossSpectrumFormatError(
                f"{path}: expected header {CROSS_SPECTRUM_HEADER!r}, got {header!r}"
            )
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise CrossSpectrumFormatError(f"{path}:{lineno}: expected 5 fields")
            try:
                freq = float(parts[0])
                i, j = int(parts[1]), int(parts[2])
                z = complex(float(parts[3]), float(parts[4]))
            except ValueError as e:
                raise CrossSpectrumFormatError(f"{path}:{lineno}: {e}") from e
            if not 0 <= i <= j < n:
                raise CrossSpectrumFormatError(
                    f"{path}:{lineno}: channel pair ({i}, {j}) outside 0..{n - 1} or i > j"
                )
            if freq not in entries:
                entries[freq] = np.full((n, n), np.nan, dtype=complex)
                freq_order.append(freq)
            entries[freq][i, j] = z
            entries[freq][j, i] = z.conjugate()
            n_rows += 1

    if not entries:
        raise CrossSpectrumFormatError(f"{path}: no data rows")
    # More rows than upper-triangle entries means some (freq, i, j) repeats.
    if n_rows > len(entries) * n * (n + 1) // 2:
        raise CrossSpectrumFormatError(f"{path}: duplicate (freq_hz, ch_i, ch_j) rows")
    freqs = np.array(freq_order)
    if np.any(np.diff(freqs) <= 0):
        raise CrossSpectrumFormatError(f"{path}: frequencies not strictly increasing")
    mats = np.stack([entries[f] for f in freq_order])
    if np.any(np.isnan(mats)):
        raise CrossSpectrumFormatError(f"{path}: incomplete upper triangle")
    try:
        cs = CrossSpectrum(freqs=freqs, mats=mats, n_segments=n_segments)
    except InvalidData as e:
        raise CrossSpectrumFormatError(f"{path}: {e}") from e
    return cs, labels
