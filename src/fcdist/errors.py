"""Exception types shared across the package, and the shared field checks.

Bad arguments and configs raise a ValueError. Data that fails a check (NaN,
inf, a bad shape or range, a constant library row, a malformed matrix file
or sidecar) raises :class:`InvalidData`. The conditions that a grid cell or
normative subject records (too few segments, an empty band, ...) keep their
own types below; those and InvalidData derive from :class:`FcdistError`.
"""

from dataclasses import fields
from numbers import Real

import numpy as np


class FcdistError(Exception):
    """Base class for all fcdist errors."""


class InvalidData(FcdistError, ValueError):
    """Input data failed a validity check (non-finite, misshapen, out of range)."""


def checked_array(value, name: str, dtype=float, ndim: int | None = None) -> np.ndarray:
    """``value`` as a C-contiguous array of ``dtype``, checked.

    No copy when the value already is one. Raises InvalidData unless it has
    ``ndim`` dimensions (when given) and only finite entries.
    """
    a = np.ascontiguousarray(value, dtype=dtype)
    if ndim is not None and a.ndim != ndim:
        raise InvalidData(f"{name} must be {ndim}-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidData(f"{name} must be finite")
    return a


def frozen_field(obj, name: str, dtype=float, ndim: int | None = None) -> np.ndarray:
    """Set field ``name`` of frozen dataclass ``obj`` to its read-only ``checked_array``.

    The field is a read-only view, so an input array that needed no copy
    stays writable for its owner. Such a field shares memory with that
    array: the finite and shape checks hold when the container is built,
    and a later write to the caller's array bypasses them.
    """
    a = checked_array(getattr(obj, name), name, dtype, ndim).view()
    a.flags.writeable = False
    object.__setattr__(obj, name, a)
    return a


def check_rate(fs, error: type[ValueError] = InvalidData) -> None:
    """Raise ``error`` unless the sampling rate ``fs`` is a positive, finite real
    number (NumPy scalars included) that is not a bool."""
    if isinstance(fs, bool) or not isinstance(fs, Real) or not 0 < fs < np.inf:
        raise error("fs must be positive and finite")


# Annotation of a scalar field -> (accepted types, their name in messages).
_FIELD_TYPES = {"int": (int, "an int"), "float": ((int, float), "a number"),
                "str": (str, "a string")}


def check_number(name: str, value, kind: str, error: type[ValueError] = ValueError):
    """``value`` if it is of ``kind``, else ``error`` naming ``name``: "int" takes
    an int, "float" an int or a float, "str" a str, and a bool counts as no number."""
    types, what = _FIELD_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise error(f"{name} must be {what}, got {value!r}")
    return value


def check_field_types(obj) -> None:
    """``check_number`` on each int, float or str field of dataclass ``obj``, in field order."""
    for f in fields(obj):
        kind = getattr(f.type, "__name__", f.type)
        if kind in _FIELD_TYPES:
            check_number(f.name, getattr(obj, f.name), kind)


# --- source assembly / forward model ---

class InsufficientLibrary(FcdistError):
    """More active sources requested than the library provides."""


class InsufficientSamples(FcdistError):
    """More samples requested than the library rows contain."""


class ShapeMismatch(FcdistError):
    """Matrix dimensions do not line up."""


# --- spectral estimation ---

class TooFewSegments(FcdistError):
    """Fewer than two full segments fit the record."""


class ZeroPowerChannel(FcdistError):
    """A channel has zero spectral power at some retained frequency."""


class EmptyBand(FcdistError):
    """A band selects no bins on the frequency axis."""


class FewSegmentsWarning(UserWarning):
    """Diagnostic: fewer segments averaged than the recommended minimum."""


# --- connectivity metrics ---

class TooShort(FcdistError):
    """Record shorter than one analysis window."""


class DegenerateEnvelope(FcdistError):
    """An envelope pair had no usable window (constant in every window)."""


# --- inference ---

class ConstantSeries(FcdistError):
    """Correlation input has zero variance."""


class TooFewPoints(FcdistError):
    """Not enough points for the requested statistic."""


# --- pipeline / I/O ---

class CrossSpectrumFormatError(FcdistError):
    """Cross-spectrum file failed to parse or is internally inconsistent."""


class NoData(FcdistError):
    """No usable input remained after skipping bad files."""


class ExperimentFailed(FcdistError):
    """More than half of the experiment grid cells failed."""
