import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fcdist.errors import FewSegmentsWarning
from fcdist.forward import MultichannelRecord
from fcdist.spectral import AnalyticRecord, Band


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_record(data, fs=200.0) -> MultichannelRecord:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    names = tuple(f"ch{i}" for i in range(data.shape[0]))
    return MultichannelRecord(data=data, fs=fs, channel_names=names)


def make_analytic(phase, envelope=None, fs=200.0, band=Band("alpha", 8.0, 13.0)) -> AnalyticRecord:
    phase = np.atleast_2d(np.asarray(phase, dtype=float))
    if envelope is None:
        envelope = np.ones_like(phase)
    return AnalyticRecord(phase=phase, envelope=np.atleast_2d(envelope), fs=fs, band=band)


def quiet_cross_spectrum(rec, segment_samples, band=None):
    from fcdist.spectral import bartlett_cross_spectrum

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FewSegmentsWarning)
        return bartlett_cross_spectrum(rec, segment_samples, band)


def poison_alpha_entry(path, value="inf"):
    """Overwrite the real part of one off-diagonal 8-13 Hz row of a cross-spectrum file."""
    lines = Path(path).read_text().splitlines()
    for k, line in enumerate(lines[1:], start=1):
        freq, i, j, _, im = line.split(",")
        if 8.0 <= float(freq) <= 13.0 and i != j:
            lines[k] = ",".join((freq, i, j, value, im))
            break
    Path(path).write_text("\n".join(lines) + "\n")
