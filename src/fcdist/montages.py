"""Built-in electrode layouts on the unit sphere.

Four montages are shipped: the 19-channel 10-20 layout with its standard
names, and three dense layouts (32/64/128 channels) labelled E1..En and
placed on a golden-section spiral over the upper hemisphere. Coordinates
use x = right, y = front, z = up, head radius 1. All positions satisfy
z >= 0; cortical sources generated elsewhere live inside the sphere.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidData, frozen_field

# Classic 10-20 positions on a unit sphere: circumferential electrodes on
# the equator, mid-line/parasagittal rows at 45 degrees inclination.
_STD19 = (
    ("Fp1", (-0.3090, 0.9511, 0.0000)),
    ("Fp2", (0.3090, 0.9511, 0.0000)),
    ("F3", (-0.5450, 0.6730, 0.5000)),
    ("F4", (0.5450, 0.6730, 0.5000)),
    ("C3", (-0.7071, 0.0000, 0.7071)),
    ("C4", (0.7071, 0.0000, 0.7071)),
    ("P3", (-0.5450, -0.6730, 0.5000)),
    ("P4", (0.5450, -0.6730, 0.5000)),
    ("O1", (-0.3090, -0.9511, 0.0000)),
    ("O2", (0.3090, -0.9511, 0.0000)),
    ("F7", (-0.8090, 0.5878, 0.0000)),
    ("F8", (0.8090, 0.5878, 0.0000)),
    ("T3", (-1.0000, 0.0000, 0.0000)),
    ("T4", (1.0000, 0.0000, 0.0000)),
    ("T5", (-0.8090, -0.5878, 0.0000)),
    ("T6", (0.8090, -0.5878, 0.0000)),
    ("Fz", (0.0000, 0.7071, 0.7071)),
    ("Cz", (0.0000, 0.0000, 1.0000)),
    ("Pz", (0.0000, -0.7071, 0.7071)),
)


@dataclass(frozen=True)
class Montage:
    """An electrode layout: label, ordered channel names, unit-sphere positions."""

    label: str
    names: tuple[str, ...]
    positions: np.ndarray = field(repr=False)  # (n_channels, 3)

    def __post_init__(self) -> None:
        if frozen_field(self, "positions").shape != (len(self.names), 3):
            raise InvalidData("positions must be (n_channels, 3)")

    @property
    def n_channels(self) -> int:
        return len(self.names)


def _hemisphere_spiral(n: int) -> np.ndarray:
    """Golden-section spiral over the upper hemisphere, vertex included.

    Deterministic, roughly equal-area layout; k-th point sits at
    z = 1 - k/n, azimuth k * golden angle.
    """
    k = np.arange(n, dtype=float)
    z = 1.0 - k / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    azimuth = k * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(azimuth), r * np.sin(azimuth), z])


def _spiral_montage(label: str, n: int) -> Montage:
    names = tuple(f"E{i + 1}" for i in range(n))
    return Montage(label=label, names=names, positions=_hemisphere_spiral(n))


BUILTIN_MONTAGES: dict[str, Montage] = {
    "std19": Montage(
        label="std19",
        names=tuple(name for name, _ in _STD19),
        positions=np.array([xyz for _, xyz in _STD19]),
    ),
    "egi32": _spiral_montage("egi32", 32),
    "egi64": _spiral_montage("egi64", 64),
    "egi128": _spiral_montage("egi128", 128),
}

# Channel-count aliases used by the experiment grid (19/32/64/128).
MONTAGE_BY_SIZE: dict[int, str] = {m.n_channels: label for label, m in BUILTIN_MONTAGES.items()}


def get_montage(montage: str | int | Montage) -> Montage:
    """Resolve a montage label, channel count, or Montage instance."""
    if isinstance(montage, Montage):
        return montage
    if isinstance(montage, bool):
        raise ValueError(f"montage must be a label or a channel count, got {montage} of type bool")
    if isinstance(montage, numbers.Integral):  # an int or a NumPy integer
        label = MONTAGE_BY_SIZE.get(operator.index(montage))
        if label is None:
            raise ValueError(f"no built-in montage with {montage} channels")
        return BUILTIN_MONTAGES[label]
    try:
        return BUILTIN_MONTAGES[montage]
    except KeyError:
        raise ValueError(
            f"unknown montage {montage!r}; built-ins: {sorted(BUILTIN_MONTAGES)}"
        ) from None
