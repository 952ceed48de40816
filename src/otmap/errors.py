"""Exception types shared across the package, and its count, seed, rate and real-array checks.

Every error raised on a contract violation derives from :class:`OtmapError`,
so a caller can catch every package failure with one ``except`` clause
without enumerating modules.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class OtmapError(Exception):
    """Base class for all package-specific errors."""


class SizeMismatch(OtmapError):
    """Two operands have incompatible counts or dimensions."""


class PoolTooLarge(OtmapError):
    """A point set exceeds the dense-solve size limit."""


class SpecError(OtmapError):
    """A count, seed, rate, specification, input array or input file is malformed or out of range."""


class NonFiniteGradient(OtmapError):
    """A parameter gradient contains NaN or infinite entries; the run aborts."""


def _count(n: int, what: str, least: int = 1) -> int:
    """``n`` as an int >= ``least``, from an ``int`` (not a ``bool``) or a NumPy
    integer; :class:`SpecError` naming ``what`` otherwise."""
    if (type(n) is int or isinstance(n, np.integer)) and n >= least:
        return int(n)
    raise SpecError(f"need an integer {what} >= {least}, got {n!r}")


def _seed(seed: int) -> int:
    """``seed`` as an int >= 0 (NumPy integers too); :class:`SpecError` otherwise."""
    return _count(seed, "seed", least=0)


def _rate(x: float, what: str, positive: bool = True) -> None:
    """Check ``x`` is a finite real (NumPy floats too, ``bool`` not), > 0, or >= 0 unless
    ``positive``; :class:`SpecError` naming ``what`` otherwise."""
    real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    if not (real and (0 < x if positive else 0 <= x) and x < math.inf):
        raise SpecError(f"{what} must be finite and {'positive' if positive else '>= 0'}, got {x}")


def _real(x, what: str) -> np.ndarray:
    """``x`` as an array of real numbers (bool, integer or float dtype), without a copy
    where it already is one; :class:`SpecError` naming ``what`` for ragged nested
    sequences and other entries (complex, strings, objects)."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # NumPy refuses ragged nested sequences
        raise SpecError(f"{what} rows must all have the same length: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise SpecError(f"{what} entries must be real numbers, got dtype {arr.dtype}")
    return arr
