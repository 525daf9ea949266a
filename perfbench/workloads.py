"""The benchmark's workloads: inputs from a seed, timed batches, output checks.

A batch is what one user call does: ``fcdist simulate`` (the simulation grid
plus its result files) for the grid workloads, and the
``scripts/normative_demo.py`` flow (export every subject's cross-spectrum,
then ingest the files and write the results) for ``normative_rt``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fcdist import matrix_io, pipeline
from fcdist.spectral import DEFAULT_BANDS, CrossSpectrum

# Normative inputs: 64 channels on the 255-bin grid of 512-sample segments at
# 200 Hz, averaged over the 19 segments a 10000-sample record holds. Three
# subjects is the least for which the correlation stage runs.
NORMATIVE_CHANNELS = 64
NORMATIVE_SUBJECTS = 3
NORMATIVE_SEGMENTS = 19
NORMATIVE_BINS = 255
SEGMENT_HZ = 200.0 / 512

# Bands and histogram bins of the normative flow: the defaults of
# ``run_normative_analysis``, passed explicitly so that the untraced and the
# traced batch share one definition.
NORMATIVE_BANDS = DEFAULT_BANDS
NORMATIVE_N_BINS = 100

# The fewest trials ``run_simulation_experiment`` accepts.
GRID_TRIALS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    montages: tuple[int, ...] = ()  # empty for normative_rt

    @property
    def is_grid(self) -> bool:
        return bool(self.montages)

    @property
    def units_per_batch(self) -> int:
        return len(self.montages) * GRID_TRIALS if self.is_grid else NORMATIVE_SUBJECTS

    @property
    def results_per_unit(self) -> int:
        """(metric, band) results one unit attempts."""
        if self.is_grid:
            cfg = grid_config(self, 0)
            return len(cfg.metrics) * len(cfg.bands)
        return 2 * len(NORMATIVE_BANDS)

    @property
    def correlation_rows(self) -> int:
        return 3 * self.results_per_unit * max(len(self.montages), 1)


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The README quick start with --jobs 2: a process pool over 19 and 64
        # channels, so oversubscription (jobs x BLAS threads) is measured.
        Workload("grid_desk", jobs=2, montages=(19, 64)),
        # The 128-channel part of scripts/run_full_grid.py in one process,
        # bound by Bartlett and PLI rather than by the forward model.
        Workload("grid_dense", jobs=1, montages=(128,)),
        # Cross-spectrum export and ingestion: matrix_io-bound, and runs no
        # forward model or windowed metric.
        Workload("normative_rt", jobs=1),
    )
}


def grid_config(wl: Workload, seed: int) -> pipeline.ExperimentConfig:
    return pipeline.desk_scale_config(wl.montages, GRID_TRIALS, master_seed=seed)


def normative_inputs(seed: int, subjects: int = NORMATIVE_SUBJECTS
                     ) -> list[tuple[CrossSpectrum, list[str]]]:
    """Hermitian PSD cross-spectra built with NumPy alone from ``seed``.

    Each bin is the sample covariance of ``NORMATIVE_SEGMENTS`` spatially
    mixed complex Gaussian snapshots with a 1/f power profile, so the inputs
    do not depend on fcdist's forward model or spectral estimator.
    """
    n, k = NORMATIVE_CHANNELS, NORMATIVE_SEGMENTS
    freqs = np.arange(1, NORMATIVE_BINS + 1) * SEGMENT_HZ
    labels = [f"E{i + 1}" for i in range(n)]
    out = []
    for subject in range(subjects):
        rng = np.random.default_rng([seed, subject])
        pos = rng.uniform(-1.0, 1.0, size=(n, 2))
        mixing = np.exp(-np.sum((pos[:, None] - pos[None]) ** 2, axis=2) / 0.3)
        z = (rng.standard_normal((NORMATIVE_BINS, n, k))
             + 1j * rng.standard_normal((NORMATIVE_BINS, n, k)))
        x = mixing @ z / np.sqrt(freqs)[:, None, None]
        mats = x @ x.conj().transpose(0, 2, 1) / k
        mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))  # exactly Hermitian
        out.append((CrossSpectrum(freqs=freqs, mats=mats, n_segments=k), labels))
    return out


def subject_path(work: Path, subject: int) -> Path:
    return work / "spectra" / f"subject{subject:03d}.csv"


def export_subject(work: Path, subject: int, cs: CrossSpectrum, labels) -> Path:
    return matrix_io.write_cross_spectrum(subject_path(work, subject), cs, labels)


def export_subjects(inputs, work: Path) -> list[Path]:
    (work / "spectra").mkdir(parents=True, exist_ok=True)
    return [export_subject(work, subject, cs, labels)
            for subject, (cs, labels) in enumerate(inputs)]


def analyse_subjects(paths) -> pipeline.ExperimentResult:
    return pipeline.run_normative_analysis(paths, bands=NORMATIVE_BANDS,
                                           n_bins=NORMATIVE_N_BINS)


def run_first_unit(wl: Workload, seed: int, work: Path, inputs) -> None:
    """One unit through the public API: one grid cell, or one subject."""
    if wl.is_grid:
        pipeline.simulate_cell(grid_config(wl, seed), wl.montages[0], 0)
    else:
        analyse_subjects(export_subjects(inputs[:1], work / "first"))


def run_batch(wl: Workload, seed: int, work: Path, inputs) -> pipeline.ExperimentResult:
    """One user call; its result files land in ``work / 'out'``."""
    if wl.is_grid:
        result = pipeline.run_simulation_experiment(grid_config(wl, seed), jobs=wl.jobs)
    else:
        result = analyse_subjects(export_subjects(inputs, work))
    pipeline.write_results(result, work / "out")
    return result


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("trials.csv", "correlations.csv")}


def check_result(wl: Workload, result: pipeline.ExperimentResult) -> list[str]:
    """Problems with one batch's result; empty when it is correct."""
    problems = []
    for kind, got, want in (
        ("trial", len(result.trial_rows), wl.units_per_batch * wl.results_per_unit),
        ("correlation", len(result.correlation_rows), wl.correlation_rows),
    ):
        if got != want:
            problems.append(f"{got} {kind} rows, expected {want}")
    for row in result.trial_rows:
        for name in ("mcw", "entropy"):
            value = getattr(row, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{row.montage}/{row.metric}/{row.band}/{row.trial}: "
                                f"{name}={value!r} outside [0, 1]")
    return problems


def check_read_back(read, inputs) -> list[str]:
    """Cross-spectra read from files must equal, bit for bit, what was written.

    ``read`` and ``inputs`` are matching lists of ``(CrossSpectrum, labels)``.
    """
    problems = []
    for subject, ((got, got_labels), (cs, labels)) in enumerate(zip(read, inputs)):
        if not (np.array_equal(got.freqs, cs.freqs) and np.array_equal(got.mats, cs.mats)
                and got.n_segments == cs.n_segments and got_labels == labels):
            problems.append(f"subject {subject}: read-back differs from what was written")
    return problems
