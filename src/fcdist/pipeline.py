"""Experiment orchestration: seeded trial grids, normative mode, result files.

A simulation experiment runs a (montage x metric x band x trial) grid.
Every (montage, trial) cell derives its own seed from a stable 64-bit mix
of (master seed, trial, montage), so results are independent of worker
count, scheduling, and of which other montages are in the grid. Outputs
are byte-deterministic for a fixed config. Units that run at once run on
threads of the calling process.
"""

from __future__ import annotations

import csv
import os
import statistics
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable

from . import forward, matrix_io, spectral, weight_stats
from .connectivity import METRICS, WindowConfig, window_samples, window_starts
from .correlation import pearson_correlation
from .errors import (
    EmptyBand,
    ExperimentFailed,
    FcdistError,
    InvalidData,
    NoData,
    ShapeMismatch,
    TooFewSegments,
    TooShort,
    check_number,
    check_field_types,
)
from .montages import get_montage
from .spectral import ALPHA, Band

_SHAPES = ("skewness", "kurtosis", "entropy")
CORRELATION_PAIRS = tuple(f"mcw_{shape}" for shape in _SHAPES)

_MASK64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Stable 64-bit mix (splitmix64 finalizer chain) of integer parts."""
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = (acc ^ (p & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc ^= acc >> 27
        acc = acc * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 31
    return acc


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation experiment."""

    montages: tuple[int, ...] = (19, 32, 64, 128)
    metrics: tuple[str, ...] = tuple(METRICS)
    bands: tuple[Band, ...] = (ALPHA,)
    trials: int = 100
    fs: float = 200.0
    n_samples: int = 10000
    n_sources: int = 3002
    n_active: int = 200
    noise_sigma: float = 0.01
    segment_samples: int = 512
    window: WindowConfig = field(default_factory=WindowConfig)
    n_bins: int = weight_stats.DEFAULT_BINS
    master_seed: int = 0
    source_mode: str = "synthetic"
    leadfield_mode: str = "synthetic"
    alpha_hz: float = 10.0

    def _validate_rows(self) -> None:
        """The checks a normative run shares: field types, bins, labels, one row per label.

        A repeated montage, metric or band name would put two rows of one
        trial into the same correlation and overstate its significance.
        """
        check_field_types(self)
        weight_stats.check_bins(self.n_bins)
        for name in ("montages", "metrics", "bands"):
            labels = getattr(self, name)
            if not isinstance(labels, (tuple, list)):
                raise ValueError(f"{name} must be a tuple or list, got {labels!r}")
            if not labels:
                raise ValueError(f"at least one {name[:-1]} required")
        for m in self.montages:
            check_number("montages", m, "int")
        for m in self.metrics:
            if not isinstance(m, str):
                raise ValueError(f"metrics must be str labels, got {m!r}")
        for b in self.bands:
            if not isinstance(b, Band):
                raise ValueError(f"bands must be Band objects, got {b!r}")
        for what, labels in (("montages", self.montages), ("metrics", self.metrics),
                             ("band names", [b.name for b in self.bands])):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {what} in {list(labels)}")

    def validate(self) -> None:
        """ValueError unless the layers' checks pass and the record holds what the metrics use."""
        self._validate_rows()
        if self.leadfield_mode == "synthetic":
            for m in self.montages:
                get_montage(m)
        bad = [m for m in self.metrics if m not in METRICS]
        if bad:
            raise ValueError(f"unknown metrics {bad}; choose from {tuple(METRICS)}")
        if self.trials < 3:
            raise ValueError("need trials >= 3 for the correlation stage")
        if self.n_active <= 0:  # with the next rule, n_sources >= 1
            raise ValueError("n_active must be positive")
        if self.n_active > self.n_sources:
            raise ValueError("n_active cannot exceed n_sources")
        forward._check_synthetic(self.n_active, self.n_samples, self.fs,
                                 self.alpha_hz if self.source_mode == "synthetic" else None,
                                 "n_active")
        forward._check_noise_sigma(self.noise_sigma)
        for b in self.bands:
            spectral._check_below_nyquist(b, self.fs)
        if not isinstance(self.window, WindowConfig):
            raise ValueError(f"window must be a WindowConfig, got {self.window!r}")
        window_samples(self.fs, self.window)
        spectral._check_segment(self.segment_samples)
        kinds = {METRICS[m][0] for m in self.metrics}
        try:
            if "analytic" in kinds:
                window_starts(self.n_samples, self.fs, self.window)
            for band in self.bands if "coherency" in kinds else ():
                spectral._bartlett_bins(self.segment_samples, self.n_samples, self.fs, band)
        except (TooShort, TooFewSegments, EmptyBand) as err:
            key = {TooShort: "window", TooFewSegments: "segment_samples"}.get(type(err), "bands")
            raise ValueError(f"{key}: {err}") from None
        _mode_path(self.source_mode)
        _mode_path(self.leadfield_mode)


@dataclass(frozen=True)
class TrialRow:
    montage: int
    metric: str
    band: str
    trial: int
    mcw: float
    skewness: float | None
    kurtosis: float | None
    entropy: float


@dataclass(frozen=True)
class CorrelationRow:
    montage: int
    metric: str
    band: str
    pair: str
    r: float
    p: float
    n: int
    stars: str


@dataclass(frozen=True)
class CellFailure:
    montage: int
    metric: str
    band: str
    trial: int
    error: str


@dataclass
class ExperimentResult:
    config: dict
    trial_rows: list[TrialRow]
    correlation_rows: list[CorrelationRow]
    failures: list[CellFailure]


def _mode_path(mode: str) -> str | None:
    if mode == "synthetic":
        return None
    if mode.startswith("file:"):
        return mode[len("file:"):]
    raise ValueError(f"mode must be 'synthetic' or 'file:<path>', got {mode!r}")


def _read_inputs(cfg: ExperimentConfig) -> tuple:
    """The config's lead field and source library, in this order, each None when synthetic
    and the FcdistError its read raised when that failed."""
    lf_path, lib_path = _mode_path(cfg.leadfield_mode), _mode_path(cfg.source_mode)
    return (None if lf_path is None else _attempt(matrix_io.read_leadfield, lf_path),
            None if lib_path is None else _attempt(matrix_io.read_source_library, lib_path))


def _cell_record(lf, lib, cfg: ExperimentConfig, montage: int, trial: int):
    """The scalp record of one cell from ``_read_inputs(cfg)``, checked in read order."""
    if lf is None:
        lf = forward.generate_synthetic_leadfield(montage, cfg.n_sources,
                                                  seed=mix64(cfg.master_seed, montage, 3))
    elif lf.n_channels != montage:
        raise ShapeMismatch(f"lead field {_mode_path(cfg.leadfield_mode)} has "
                            f"{lf.n_channels} channels, not the montage's {montage}")
    if isinstance(lib, FcdistError):  # returned, not raised: the run's cells share it
        return lib
    seed = mix64(cfg.master_seed, trial, montage, 2)
    # The projection takes the active rows a block at a time, so no cell holds them all.
    if lib is None:
        # Each block of the synthetic library's rows is synthesized into one buffer.
        src = forward._synthetic_activity(cfg.n_sources, cfg.n_active, cfg.noise_sigma,
                                          cfg.n_samples, cfg.fs, cfg.alpha_hz,
                                          mix64(cfg.master_seed, trial, montage, 1), seed)
    elif lib.fs != cfg.fs:
        raise InvalidData(f"source library {_mode_path(cfg.source_mode)} is sampled at "
                          f"{lib.fs} Hz, not the config's fs {cfg.fs} Hz")
    else:
        src = forward._library_activity(lib, cfg.n_sources, cfg.n_active, cfg.noise_sigma,
                                        cfg.n_samples, seed)
    return forward._project(lf, src)


def cell_record(cfg: ExperimentConfig, montage: int, trial: int) -> forward.MultichannelRecord:
    """The scalp record of one (montage, trial) cell; reads the config's files on each call."""
    rec = _attempt(_cell_record, *_read_inputs(cfg), cfg, montage, trial)
    if isinstance(rec, FcdistError):
        raise rec
    return rec


def _attempt(call, x, *args):
    """``call(x, *args)``, or the FcdistError it raised, without the traceback whose frames
    would hold the unit's arrays in a cycle with it; an error ``x`` is passed on."""
    if isinstance(x, FcdistError):
        return x
    try:
        return call(x, *args)
    except FcdistError as err:
        return err.with_traceback(None)


def _failure_text(err: FcdistError) -> str:
    return f"{type(err).__name__}: {err}"


def _band_results(cfg: ExperimentConfig, montage: int, trial: int, band: Band, inputs: dict,
                  rows: list[TrialRow], fails: list[CellFailure]) -> None:
    """Append one TrialRow or CellFailure for each metric of ``cfg`` on one band of a unit.

    ``inputs`` maps each input kind of the metric table to its value on the band, or
    to the FcdistError raised while computing it; that error, which the cells of a run
    may share and so is never raised again, fails each metric that needs it.
    """
    for metric in cfg.metrics:
        kind, call = METRICS[metric]
        s = _attempt(lambda x: weight_stats.summarize(weight_stats.upper_triangle_weights(
            call(x, band, cfg.window).weights), cfg.n_bins), inputs[kind])
        if isinstance(s, FcdistError):
            fails.append(CellFailure(montage, metric, band.name, trial, _failure_text(s)))
        else:
            rows.append(TrialRow(montage, metric, band.name, trial,
                                 s.mcw, s.skewness, s.kurtosis, s.entropy))


def _simulate(cfg: ExperimentConfig, inputs: tuple, montage: int, trial: int
              ) -> tuple[list[TrialRow], list[CellFailure]]:
    """``simulate_cell`` on the inputs ``_read_inputs(cfg)`` returned.

    The record lives in this frame only, and is released once the last band's inputs
    exist, before that band's metrics run; rebinding ``made`` releases a band's inputs
    before the next band's are made. The last band's phase is written over the record:
    its buffer is the writable array ``forward._project`` made, which only this cell
    holds, so it lives on as that phase.
    """
    kinds = {METRICS[m][0] for m in cfg.metrics}
    rows, fails = [], []
    rec = _attempt(_cell_record, *inputs, cfg, montage, trial)
    for i, band in enumerate(cfg.bands, 1):
        made, last = {}, i == len(cfg.bands)
        if "coherency" in kinds:
            # COH and iCOH read the band's bins only; the config sets the segment
            # count, so a few-segment estimate gives no warning.
            made["coherency"] = _attempt(spectral.coherency, _attempt(
                spectral._bartlett_spectrum, rec, cfg.segment_samples, band))
        if "analytic" in kinds:
            made["analytic"] = _attempt(lambda r: spectral._bandpass_analytic(
                r, band, r.data.base if last else None), rec)
        if last:
            del rec
        _band_results(cfg, montage, trial, band, made, rows, fails)
    return rows, fails


def simulate_cell(cfg: ExperimentConfig, montage: int, trial: int
                  ) -> tuple[list[TrialRow], list[CellFailure]]:
    """Run one (montage, trial) cell, all metrics and bands; reads the config's files."""
    return _simulate(cfg, _read_inputs(cfg), montage, trial)


def normative_subject(cfg: ExperimentConfig, path: Path | str, subject: int
                      ) -> tuple[list[TrialRow], list[CellFailure]]:
    """Run one stored-spectrum subject: the coherency metrics of ``cfg`` on each band.

    The subject's montage is its channel count. A file that cannot be read
    is one failure of montage 0, metric and band "-"; unusable spectra fail
    every (metric, band).
    """
    try:
        cs, _ = matrix_io.read_cross_spectrum(path)
    except FcdistError as err:
        return [], [CellFailure(0, "-", "-", subject, f"{Path(path).name}: {_failure_text(err)}")]
    inputs = {"coherency": _attempt(spectral.coherency, cs)}
    rows, fails = [], []
    for band in cfg.bands:
        _band_results(cfg, cs.n_channels, subject, band, inputs, rows, fails)
    return rows, fails


def _run_units(unit: Callable, keys: list[tuple], jobs: int = 1
               ) -> tuple[list[TrialRow], list[CellFailure]]:
    """``unit(*key)`` for each key: in this thread when ``min(jobs, len(keys)) <= 1``, else
    on a pool of that many threads; returns the rows and failures, concatenated in key order.

    A unit's heavy steps are NumPy calls that release the GIL. The pool runs with
    every OpenBLAS at one thread, which makes the units' own pins no-ops, so no
    thread changes the count that all of them share. A unit that raises, or an
    interrupt, cancels the units not yet started; the running ones finish first.
    """
    workers = min(jobs, len(keys))
    if workers <= 1:
        outcomes = [unit(*key) for key in keys]
    else:
        with forward._one_blas_thread():
            pool = ThreadPoolExecutor(workers)
            try:
                futures = [pool.submit(unit, *key) for key in keys]
                for future in as_completed(futures):
                    future.result()  # the first unit to raise raises here
                outcomes = [future.result() for future in futures]
            finally:
                pool.shutdown(cancel_futures=True)
    return ([row for rows, _ in outcomes for row in rows],
            [fail for _, fails in outcomes for fail in fails])


def _sort_key(cfg: ExperimentConfig):
    metric_rank = {m: i for i, m in enumerate(METRICS)}
    band_rank = {b.name: i for i, b in enumerate(cfg.bands)}
    return lambda row: (row.montage, metric_rank[row.metric], band_rank[row.band], row.trial)


def _groups(rows: Iterable[TrialRow]) -> dict[tuple[int, str, str], list[TrialRow]]:
    """Rows by (montage, metric, band), in order of first appearance."""
    groups: dict[tuple[int, str, str], list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.montage, row.metric, row.band), []).append(row)
    return groups


def _points(rows: Iterable[TrialRow], attr: str) -> list[tuple[float, float]]:
    """The (MCW, ``attr``) points of ``rows``, skipping rows where ``attr`` is None."""
    return [(r.mcw, getattr(r, attr)) for r in rows if getattr(r, attr) is not None]


def correlate_rows(trial_rows: list[TrialRow], cfg: ExperimentConfig
                   ) -> tuple[list[CorrelationRow], list[CellFailure]]:
    """Pearson correlations of MCW against the three shape statistics."""
    corr_rows: list[CorrelationRow] = []
    failures: list[CellFailure] = []
    groups = _groups(sorted(trial_rows, key=_sort_key(cfg)))
    for (montage, metric, band), rows in groups.items():
        for pair, attr in zip(CORRELATION_PAIRS, _SHAPES):
            points = _points(rows, attr)
            res = _attempt(pearson_correlation, [p[0] for p in points], [p[1] for p in points])
            if isinstance(res, FcdistError):
                failures.append(CellFailure(montage, metric, band, -1,
                                            f"{pair}: {_failure_text(res)}"))
            else:
                corr_rows.append(CorrelationRow(montage, metric, band, pair,
                                                res.r, res.p, res.n, res.stars))
    return corr_rows, failures


def run_simulation_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run the full seeded grid; deterministic for fixed cfg at any jobs >= 1."""
    if check_number("jobs", jobs, "int") < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cfg.validate()
    inputs = _read_inputs(cfg)  # once, before any cell: a run's inputs are its own
    cells = [(cfg, inputs, m, trial) for m in cfg.montages for trial in range(cfg.trials)]
    trial_rows, failures = _run_units(_simulate, cells, jobs)
    trial_rows.sort(key=_sort_key(cfg))

    total_cells = len(cfg.montages) * len(cfg.metrics) * len(cfg.bands) * cfg.trials
    if len(failures) > 0.5 * total_cells:
        raise ExperimentFailed(f"{len(failures)} of {total_cells} grid cells failed; "
                               f"first: {failures[0].error}")

    corr_rows, corr_fails = correlate_rows(trial_rows, cfg)
    failures.extend(corr_fails)
    return ExperimentResult(config_to_dict(cfg), trial_rows, corr_rows, failures)


def run_normative_analysis(
    inputs: Iterable[Path | str],
    bands: tuple[Band, ...] = spectral.DEFAULT_BANDS,
    n_bins: int = weight_stats.DEFAULT_BINS,
) -> ExperimentResult:
    """Weight-distribution statistics for stored cross-spectra.

    Each input file is one subject and yields one scatter point per
    (metric, band); only the spectral metrics apply since no raw record
    is available. A malformed file is skipped and its failure recorded (NoData
    when no file could be read), and a subject whose spectra are unusable
    (e.g. a zero-power channel) records one failure per (metric, band) and
    is not used; correlations need three used subjects. A file listed twice,
    by any path, would overstate significance and is a ValueError.
    """
    cfg = ExperimentConfig(
        metrics=tuple(m for m, (kind, _) in METRICS.items() if kind == "coherency"),
        bands=bands, n_bins=n_bins,
    )
    cfg._validate_rows()
    paths = sorted(str(p) for p in inputs)
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ValueError(f"a file is listed twice in {paths}")
    trial_rows, failures = _run_units(
        normative_subject, [(cfg, path, subject) for subject, path in enumerate(paths)])
    if sum(f.metric == "-" for f in failures) == len(paths):
        raise NoData("no cross-spectrum file could be read")
    used = len({row.trial for row in trial_rows})

    corr_rows: list[CorrelationRow] = []
    if used >= 3:
        corr_rows, corr_fails = correlate_rows(trial_rows, cfg)
        failures.extend(corr_fails)
    config = {"mode": "normative", "inputs": len(paths), "subjects_used": used,
              "bands": [band_to_dict(b) for b in bands], "n_bins": n_bins}
    return ExperimentResult(config, trial_rows, corr_rows, failures)


def band_to_dict(b: Band) -> dict:
    return asdict(b)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


_BUILTIN_BANDS = {b.name: b for b in spectral.DEFAULT_BANDS}


def band_from_spec(item) -> Band:
    """Band from a default-band name, 'name=lo-hi' string, or mapping with number edges."""
    if isinstance(item, dict):  # Band checks the types; a missing key reads as None
        band = _from_fields(Band, {"name": None, "lo": None, "hi": None, **item})
        return Band(band.name, float(band.lo), float(band.hi))
    name = str(item).strip()
    if "=" in name:
        label, _, edges = name.partition("=")
        try:
            lo, hi = map(float, edges.split("-"))
        except ValueError:
            raise ValueError(f"band {name!r}: range must be two numbers, 'lo-hi'") from None
        return Band(label.strip(), lo, hi)
    if name in _BUILTIN_BANDS:
        return _BUILTIN_BANDS[name]
    raise ValueError(f"unknown band {name!r}; use a default name or 'name=lo-hi'")


def _from_fields(cls, raw: dict):
    """``cls(**raw)``, or ValueError naming the keys of ``raw`` that are no field of ``cls``."""
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a nested mapping mirroring the field names.

    Only structure is built (arrays become tuples, ``bands`` items Bands, a
    ``window`` mapping a WindowConfig); ``validate`` checks the values as given.
    """
    kwargs = {key: tuple(v) if isinstance(v, (list, tuple)) else v for key, v in raw.items()}
    if isinstance(kwargs.get("bands"), tuple):
        kwargs["bands"] = tuple(map(band_from_spec, kwargs["bands"]))
    if isinstance(kwargs.get("window"), dict):
        kwargs["window"] = _from_fields(WindowConfig, kwargs["window"])
    return _from_fields(ExperimentConfig, kwargs)


def _write_csv(path: Path, header: list[str], rows: Iterable) -> Path:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_results(result: ExperimentResult, out_dir: Path | str) -> list[Path]:
    """Emit trials.csv, correlations.csv, summary.json and scatter CSVs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, row_type, rows in (("trials.csv", TrialRow, result.trial_rows),
                                 ("correlations.csv", CorrelationRow, result.correlation_rows)):
        written.append(_write_csv(out_dir / name, [f.name for f in fields(row_type)],
                                  map(astuple, rows)))
    groups = sorted(_groups(result.trial_rows).items())
    aggregates: dict[str, dict] = {}
    for (montage, metric, band), rows in groups:
        vals = {}
        for attr in ("mcw", *_SHAPES):
            xs = sorted(getattr(r, attr) for r in rows if getattr(r, attr) is not None)
            vals[f"median_{attr}"] = statistics.median(xs) if xs else None
            vals[f"mean_{attr}"] = sum(xs) / len(xs) if xs else None
        vals["n_rows"] = len(rows)
        aggregates[f"{montage}/{metric}/{band}"] = vals
    summary = {
        "config": result.config,
        "n_trial_rows": len(result.trial_rows),
        "n_correlation_rows": len(result.correlation_rows),
        "n_failures": len(result.failures),
        "failures": [asdict(fl) for fl in result.failures],
        "aggregates": aggregates,
    }
    written.append(matrix_io.write_json(out_dir / "summary.json", summary))

    for (montage, metric, band), rows in groups:
        for attr in _SHAPES:
            written.append(_write_csv(
                out_dir / f"scatter_{montage}_{metric}_{band}_{attr}.csv", ["mcw", attr],
                _points(rows, attr)))
    return written


def desk_scale_config(montages: tuple[int, ...] = (19, 64), trials: int = 100,
                      master_seed: int = 0) -> ExperimentConfig:
    """The default desk-scale grid: alpha band, all metrics."""
    return ExperimentConfig(montages=montages, trials=trials, master_seed=master_seed)
