"""The benchmark's traced drivers must keep giving the pipeline's rows.

``perfbench/tracer.py`` re-runs the pipeline layer by layer through fcdist's
public functions. A rename or a changed result in ``src/`` breaks it without
failing any other test, so these tests run it against the pipeline itself.
"""

import sys
from pathlib import Path

import numpy as np

from conftest import make_record, quiet_cross_spectrum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from fcdist.connectivity import WindowConfig  # noqa: E402
from fcdist.pipeline import ExperimentConfig, run_normative_analysis, simulate_cell  # noqa: E402


def test_traced_cell_matches_simulate_cell():
    cfg = ExperimentConfig(montages=(19,), trials=3, n_samples=4000,
                           window=WindowConfig(2.0, 0.5))
    cfg.validate()
    rows, fails, tr = tracer.traced_cell(cfg, 19, 0)
    assert (rows, fails) == simulate_cell(cfg, 19, 0)
    assert len(rows) == len(cfg.metrics)
    assert tr.spans


def test_traced_normative_batch_matches_run_normative_analysis(tmp_path):
    rng = np.random.default_rng(3)
    inputs = []
    for _ in range(3):
        rec = make_record(rng.standard_normal((8, 512 * 4)))
        cs = quiet_cross_spectrum(rec, 512)
        assert cs.mats.shape == (255, 8, 8)
        inputs.append((cs, list(rec.channel_names)))
    batch = tracer.traced_normative_batch(inputs, tmp_path)
    paths = [workloads.subject_path(tmp_path, s) for s in range(len(inputs))]
    result = run_normative_analysis(paths, bands=workloads.NORMATIVE_BANDS,
                                    n_bins=workloads.NORMATIVE_N_BINS)
    assert batch.result.trial_rows == result.trial_rows
    assert batch.result.correlation_rows == result.correlation_rows
    assert batch.result.failures == result.failures == []
    assert len(result.trial_rows) == 3 * 2 * len(workloads.NORMATIVE_BANDS)
