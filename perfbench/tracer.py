"""Traced drivers: fcdist's pipeline with a span around every layer call.

``traced_cell`` mirrors ``pipeline.simulate_cell`` and
``traced_normative_batch`` mirrors the export of every subject followed by
``pipeline.run_normative_analysis``; both call the same public functions in
the same order, so their rows must equal the pipeline's (the benchmark checks
this). Spans are kept in memory and written out when the run ends. Each span
has a name ``<module>.<call>``, a start and end on the monotonic clock
(shared by pool workers), a parent span and a unit id; a unit is a grid cell,
or one subject, whose export and ingest are two unit spans with one id.
"""

from __future__ import annotations

import os
import statistics
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from fcdist import connectivity, forward, matrix_io, pipeline, spectral, weight_stats
from fcdist.connectivity import METRICS, WindowConfig
from fcdist.errors import EmptyBand, FcdistError, FewSegmentsWarning, NoData
from fcdist.montages import MONTAGE_BY_SIZE
from fcdist.pipeline import CellFailure, ExperimentConfig, ExperimentResult, TrialRow, mix64

import workloads

UNIT_SPANS = ("pipeline.cell", "pipeline.export", "pipeline.ingest")
LAYERS = ("forward", "spectral", "connectivity", "weight_stats", "correlation",
          "matrix_io", "pipeline")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, unit, **attrs):
        record = {"id": len(self.spans), "name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None, "unit": unit, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def adopt(self, other: Tracer) -> None:
        """Take over another tracer's spans (e.g. a pool worker's) and counts."""
        offset = len(self.spans)
        for s in other.spans:
            parent = None if s["parent"] is None else s["parent"] + offset
            self.spans.append({**s, "id": s["id"] + offset, "parent": parent})
        self.counts += other.counts

    def failed(self, err: Exception, n: int = 1) -> str:
        self.counts[f"pipeline.failures.{type(err).__name__}"] += n
        return f"{type(err).__name__}: {err}"


# metric -> (span name, call on (cfg, coherency, analytic record, band)),
# with the windows pipeline.simulate_cell passes.
_METRIC_CALLS = {
    "COH": ("connectivity.coh", lambda cfg, coh, a, band: connectivity.coherence_matrix(coh, band)),
    "iCOH": ("connectivity.icoh", lambda cfg, coh, a, band: connectivity.icoh_matrix(coh, band)),
    "PLV": ("connectivity.plv", lambda cfg, coh, a, band: connectivity.plv_matrix(
        a, WindowConfig(cfg.window.window_seconds, 0.0))),
    "PLI": ("connectivity.pli", lambda cfg, coh, a, band: connectivity.pli_matrix(a, cfg.window)),
    "AEC": ("connectivity.aec", lambda cfg, coh, a, band: connectivity.aec_matrix(a, cfg.window)),
}


def _summary_row(tr: Tracer, unit, cm, n_bins: int, **key) -> TrialRow:
    with tr.span("weight_stats.summarize", unit):
        s = weight_stats.summarize(weight_stats.upper_triangle_weights(cm.weights), n_bins)
    tr.counts["weight_stats.degenerate_count"] += s.degenerate
    return TrialRow(**key, mcw=s.mcw, skewness=s.skewness, kurtosis=s.kurtosis,
                    entropy=s.entropy)


def traced_cell(cfg: ExperimentConfig, montage: int, trial: int
                ) -> tuple[list[TrialRow], list[CellFailure], Tracer]:
    """``pipeline.simulate_cell`` (synthetic modes) with spans and counters."""
    tr = Tracer()
    unit = f"{montage}/{trial}"
    rows: list[TrialRow] = []
    fails: list[CellFailure] = []

    def fail(metrics, band_name: str, err: FcdistError) -> None:
        error = tr.failed(err, len(metrics))
        fails.extend(CellFailure(montage, m, band_name, trial, error) for m in metrics)

    with tr.span("pipeline.cell", unit):
        try:
            lf_seed = mix64(cfg.master_seed, montage, 3)
            with tr.span("forward.leadfield", unit, key=[montage, lf_seed]):
                lf = forward.generate_synthetic_leadfield(
                    MONTAGE_BY_SIZE[montage], cfg.n_sources, seed=lf_seed)
            with tr.span("forward.sources", unit):
                lib = forward.generate_synthetic_sources(
                    cfg.n_active, cfg.n_samples, cfg.fs, cfg.alpha_hz,
                    seed=mix64(cfg.master_seed, trial, montage, 1))
            with tr.span("forward.assemble", unit):
                src = forward.assemble_source_activity(
                    lib, cfg.n_sources, cfg.n_active, cfg.noise_sigma, cfg.n_samples,
                    seed=mix64(cfg.master_seed, trial, montage, 2))
            with tr.span("forward.project", unit):
                rec = forward.project_to_scalp(lf, src)
        except FcdistError as err:
            for band in cfg.bands:
                fail(cfg.metrics, band.name, err)
            return rows, fails, tr

        spectral_metrics = [m for m in cfg.metrics if m in ("COH", "iCOH")]
        windowed_metrics = [m for m in cfg.metrics if m in ("PLV", "PLI", "AEC")]
        coh = None
        if spectral_metrics:
            try:
                n = cfg.segment_samples
                # Complex MACs the estimator computes: one n_ch x n_ch outer
                # product per retained bin and segment.
                macs = (rec.n_samples // n) * rec.n_channels ** 2 * (n // 2 - 1)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", FewSegmentsWarning)
                    with tr.span("spectral.bartlett", unit, work=macs):
                        cs = spectral.bartlett_cross_spectrum(rec, n)
                tr.counts["spectral.few_segment_warnings"] += sum(
                    issubclass(w.category, FewSegmentsWarning) for w in caught)
                with tr.span("spectral.coherency", unit):
                    coh = spectral.coherency(cs)
            except FcdistError as err:
                for band in cfg.bands:
                    fail(spectral_metrics, band.name, err)
                spectral_metrics = []

        for band in cfg.bands:
            analytic = None
            band_windowed = list(windowed_metrics)
            if band_windowed:
                try:
                    with tr.span("spectral.analytic", unit):
                        analytic = spectral.bandpass_analytic(rec, band)
                except FcdistError as err:
                    fail(band_windowed, band.name, err)
                    band_windowed = []
            for metric in cfg.metrics:
                if metric not in spectral_metrics and metric not in band_windowed:
                    continue
                try:
                    work = None
                    if metric == "PLI":  # pair-samples the sign average computes
                        starts, win = connectivity.window_starts(
                            rec.n_samples, rec.fs, cfg.window)
                        work = rec.n_channels * (rec.n_channels - 1) // 2 * len(starts) * win
                    name, call = _METRIC_CALLS[metric]
                    with tr.span(name, unit, work=work):
                        cm = call(cfg, coh, analytic, band)
                    rows.append(_summary_row(tr, unit, cm, cfg.n_bins, montage=montage,
                                             metric=metric, band=band.name, trial=trial))
                except FcdistError as err:
                    fail([metric], band.name, err)
    return rows, fails, tr


def _traced_cell_star(args):
    return traced_cell(*args)


@dataclass
class TracedBatch:
    result: ExperimentResult
    tracer: Tracer
    wall: float
    read: list  # (CrossSpectrum, labels) per subject ingested; normative only


def traced_grid_batch(cfg: ExperimentConfig, jobs: int, out_dir: Path) -> TracedBatch:
    """``run_simulation_experiment`` plus ``write_results``, traced."""
    tr = Tracer()
    t0 = perf_counter()
    cfg.validate()
    cells = [(cfg, m, t) for m in cfg.montages for t in range(cfg.trials)]
    if jobs <= 1:
        outcomes = [traced_cell(*c) for c in cells]
    else:
        # The same pool the pipeline uses, so traced and untraced walls compare.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_traced_cell_star, cells, chunksize=1))
    rows: list[TrialRow] = []
    failures: list[CellFailure] = []
    for cell_rows, cell_fails, cell_tr in outcomes:
        rows.extend(cell_rows)
        failures.extend(cell_fails)
        tr.adopt(cell_tr)
    metric_rank = {m: i for i, m in enumerate(METRICS)}
    band_rank = {b.name: i for i, b in enumerate(cfg.bands)}
    rows.sort(key=lambda r: (r.montage, metric_rank[r.metric], band_rank[r.band], r.trial))
    with tr.span("correlation.correlate", None):
        corr_rows, corr_fails = pipeline.correlate_rows(rows, cfg)
    result = ExperimentResult(config=pipeline.config_to_dict(cfg), trial_rows=rows,
                              correlation_rows=corr_rows, failures=failures + corr_fails)
    with tr.span("pipeline.write_results", None):
        pipeline.write_results(result, out_dir)
    return TracedBatch(result, tr, perf_counter() - t0, [])


def traced_normative_batch(inputs, work: Path) -> TracedBatch:
    """``workloads.run_batch`` on ``normative_rt``, traced: export every
    subject, then ``run_normative_analysis`` and ``write_results``."""
    bands, n_bins = workloads.NORMATIVE_BANDS, workloads.NORMATIVE_N_BINS
    tr = Tracer()
    t0 = perf_counter()
    (work / "spectra").mkdir(parents=True, exist_ok=True)
    paths = []
    for subject, (cs, labels) in enumerate(inputs):
        with tr.span("pipeline.export", subject):
            with tr.span("matrix_io.write_cross_spectrum", subject) as s:
                path = workloads.export_subject(work, subject, cs, labels)
            s["work"] = os.path.getsize(path)
        paths.append(path)

    rows: list[TrialRow] = []
    failures: list[CellFailure] = []
    read = []
    n_channels = None
    for subject, path in enumerate(sorted(str(p) for p in paths)):
        with tr.span("pipeline.ingest", subject):
            try:
                with tr.span("matrix_io.read_cross_spectrum", subject,
                             work=os.path.getsize(path)):
                    cs, labels = matrix_io.read_cross_spectrum(path)
            except FcdistError as err:
                failures.append(CellFailure(0, "-", "-", subject,
                                            f"{Path(path).name}: {tr.failed(err)}"))
                continue
            read.append((cs, labels))
            n_channels = cs.n_channels
            with tr.span("spectral.coherency", subject):
                coh = spectral.coherency(cs)
            for band in bands:
                for metric in ("COH", "iCOH"):
                    try:
                        name, call = _METRIC_CALLS[metric]
                        with tr.span(name, subject):
                            cm = call(None, coh, None, band)
                        rows.append(_summary_row(tr, subject, cm, n_bins, montage=n_channels,
                                                 metric=metric, band=band.name, trial=subject))
                    except EmptyBand as err:
                        tr.failed(err)
                        failures.append(CellFailure(n_channels, metric, band.name, subject,
                                                    str(err)))
    used = len(read)
    if used == 0:
        raise NoData("no usable cross-spectrum files")
    corr_rows = []
    if used >= 3:
        cfg = ExperimentConfig(
            montages=(n_channels,), metrics=("COH", "iCOH"), bands=tuple(bands),
            trials=used, n_bins=n_bins, leadfield_mode="normative", source_mode="normative",
        )
        with tr.span("correlation.correlate", None):
            corr_rows, corr_fails = pipeline.correlate_rows(rows, cfg)
        failures.extend(corr_fails)
    result = ExperimentResult(
        config={"mode": "normative", "inputs": len(paths), "subjects_used": used,
                "bands": [pipeline.band_to_dict(b) for b in bands], "n_bins": n_bins},
        trial_rows=rows, correlation_rows=corr_rows, failures=failures,
    )
    with tr.span("pipeline.write_results", None):
        pipeline.write_results(result, work / "out")
    return TracedBatch(result, tr, perf_counter() - t0, read)


def traced_first_unit(wl: workloads.Workload, seed: int, work: Path, inputs) -> Tracer:
    """The workload's first unit, traced; in a fresh process its calls are cold."""
    if wl.is_grid:
        return traced_cell(workloads.grid_config(wl, seed), wl.montages[0], 0)[2]
    return traced_normative_batch(inputs[:1], work / "first").tracer


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def _median(values) -> float:
    """Median of the values; 0.0 when the workload never made the call."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(batches: list[TracedBatch], cold: Tracer, untraced_walls: list[float],
                  jobs: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of traced batches, and a report for the trace file.

    Times are medians per call over the batches (warm calls); the cold unit
    gives ``connectivity.plv_first_s``. Counts are per batch, so they do not
    grow with the number of batches that fit in a run; the report keeps the
    totals. A layer's share is its spans' time over all traced unit and
    batch-level time; ``pipeline.share`` is the driver's self time inside
    units plus ``write_results``.
    """
    spans = [s for b in batches for s in b.tracer.spans]
    counts = sum((b.tracer.counts for b in batches), Counter())

    def times(name, source=spans):
        return [_duration(s) for s in source if s["name"] == name]

    def per_batch(name):
        return counts[name] / len(batches)

    def rate(name, scale):
        return _median(s["work"] / _duration(s) / scale for s in spans if s["name"] == name)

    unit_time, unit_self, layer_time = [], 0.0, Counter()
    useful = []
    for b in batches:
        by_id = {s["id"]: s for s in b.tracer.spans}
        per_unit = Counter()
        covered = Counter()
        for s in b.tracer.spans:
            if s["name"] in UNIT_SPANS:
                per_unit[s["unit"]] += _duration(s)
            elif s["parent"] is None or by_id[s["parent"]]["name"] in UNIT_SPANS:
                layer_time[s["name"].split(".")[0]] += _duration(s)
                if s["parent"] is not None:
                    covered[s["parent"]] += _duration(s)
        unit_self += sum(_duration(s) - covered[s["id"]]
                         for s in b.tracer.spans if s["name"] in UNIT_SPANS)
        unit_time.extend(per_unit.values())
        builds = [tuple(s["key"]) for s in b.tracer.spans if s["name"] == "forward.leadfield"]
        if builds:
            useful.append(len(set(builds)) / len(builds))
    layer_time["pipeline"] += unit_self
    total = sum(layer_time.values())
    busy = sum(unit_time)
    traced_wall = sum(b.wall for b in batches)

    metrics = {f"{name}_s": _median(times(name)) for name in (
        "forward.leadfield", "forward.sources", "forward.assemble", "forward.project",
        "spectral.bartlett", "spectral.coherency", "spectral.analytic",
        "connectivity.coh", "connectivity.icoh", "connectivity.plv", "connectivity.pli",
        "connectivity.aec", "weight_stats.summarize", "correlation.correlate",
        "matrix_io.write_cross_spectrum", "matrix_io.read_cross_spectrum",
        "pipeline.write_results",
    )}
    metrics.update({
        "forward.leadfield_useful_ratio": _median(useful),
        "spectral.bartlett_gmac_per_s": rate("spectral.bartlett", 1e9),
        "spectral.few_segment_warnings": per_batch("spectral.few_segment_warnings"),
        "connectivity.pli_mpair_samples_per_s": rate("connectivity.pli", 1e6),
        "connectivity.plv_first_s": _median(times("connectivity.plv", cold.spans)),
        "weight_stats.degenerate_count": per_batch("weight_stats.degenerate_count"),
        "matrix_io.write_mb_per_s": rate("matrix_io.write_cross_spectrum", 1e6),
        "matrix_io.read_mb_per_s": rate("matrix_io.read_cross_spectrum", 1e6),
        "pipeline.cell_p50_s": _median(unit_time),
        "pipeline.cell_tail_s": max(unit_time, default=0.0),
        "pipeline.pool_efficiency": busy / (jobs * traced_wall),
        "pipeline.failures": sum((per_batch(k) for k in counts
                                  if k.startswith("pipeline.failures.")), 0.0),
        "pipeline.self_share": unit_self / busy,
        "pipeline.trace_overhead_ratio": traced_wall / sum(untraced_walls),
    })
    metrics.update({f"{layer}.share": layer_time[layer] / total for layer in LAYERS})

    names = sorted({s["name"] for s in spans + cold.spans})
    report = {
        "units": len(unit_time),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": sum(untraced_walls),
        "batches": len(batches),
        "count_totals": dict(counts),
        "failures_by_type": {k.split(".", 2)[2]: v for k, v in counts.items()
                             if k.startswith("pipeline.failures.")},
        "calls": {name: {"warm_calls": len(times(name)), "warm_median_s": _median(times(name)),
                         "cold_calls": len(times(name, cold.spans)),
                         "cold_median_s": _median(times(name, cold.spans))}
                  for name in names},
    }
    return metrics, report
