"""Exception types shared across the package, and its count and seed checks.

Every error raised on a contract violation derives from :class:`OtmapError`,
so a caller can catch every package failure with one ``except`` clause
without enumerating modules.
"""

from __future__ import annotations

import operator


class OtmapError(Exception):
    """Base class for all package-specific errors."""


class SizeMismatch(OtmapError):
    """Two operands have incompatible point counts or dimensions."""


class InvalidCost(OtmapError):
    """A cost matrix contains NaN or infinite entries."""


class PoolTooLarge(OtmapError):
    """A point set exceeds the dense-solve size limit."""


class SpecError(OtmapError):
    """A layer or training specification is internally inconsistent."""


class NonFiniteGradient(OtmapError):
    """A parameter gradient contains NaN or infinite entries; the run aborts."""


class TooFewPoints(OtmapError):
    """An operation needs more points than the input provides."""


class InvalidCount(OtmapError):
    """A requested number of samples, points, clusters or iterations is out of range."""


class ModelError(OtmapError):
    """A fitted model is numerically unusable (e.g. non-PSD covariance)."""


class BadMagic(OtmapError):
    """An IDX file starts with an unexpected magic number."""


class TruncatedFile(OtmapError):
    """An IDX file ends before its header-declared payload."""


class CountMismatch(OtmapError):
    """Image and label files disagree on the number of items."""


def _count(n: int, what: str, error: type[OtmapError] = InvalidCount, least: int = 1) -> int:
    """``n`` as an int >= ``least`` (NumPy integers too); ``error`` naming ``what`` otherwise."""
    try:
        n = operator.index(n)
    except TypeError:
        pass
    else:
        if n >= least:
            return n
    raise error(f"need an integer {what} >= {least}, got {n!r}")


def _seed(seed: int) -> int:
    """``seed`` as an int >= 0 (NumPy integers too); :class:`SpecError` otherwise."""
    return _count(seed, "seed", SpecError, least=0)
