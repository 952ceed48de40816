"""Exact optimal transport between equal-size point sets.

Balanced transport between two sets of the same size has a permutation as
its optimal solution, so everything here reduces to the linear assignment
problem: build a dense cost matrix, solve it exactly, and read distances
off the matched pairs.

The solver is :func:`scipy.optimize.linear_sum_assignment` (a shortest
augmenting path method of the Jonker-Volgenant family).  It is exact and
deterministic: a given cost matrix always yields the same permutation, with
ties between equal-cost optima broken by the solver's fixed augmentation
order.  All solver arithmetic is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidCost, PoolTooLarge, SizeMismatch, UnsupportedMetric

# Dense k x k matrices only; above this the cost matrix alone is > 2 GiB.
MAX_DENSE_K = 16384


class CostMetric(Enum):
    """Pointwise cost c(a, b) used for assignments and reported distances.

    Squared Euclidean is the training cost, Euclidean the default for
    reported divergences, L1 available for feedback plots.
    """

    SQUARED_EUCLIDEAN = "sqeuclidean"
    EUCLIDEAN = "euclidean"
    L1 = "l1"


_CDIST_NAME = {
    CostMetric.SQUARED_EUCLIDEAN: "sqeuclidean",
    CostMetric.EUCLIDEAN: "euclidean",
    CostMetric.L1: "cityblock",
}


@dataclass(frozen=True)
class PointSet:
    """A batch of k points in d dimensions, rows = points.

    The universal currency between modules.  Data is stored as a read-only
    float64 array; every entry must be finite.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise SizeMismatch(f"point set must be 2-D (k, d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise SizeMismatch(f"point set needs k >= 1 and d >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidCost("point set contains NaN or infinite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def __repr__(self) -> str:  # keep reprs short; these can hold 10k points
        return f"PointSet(k={self.k}, d={self.d})"


@dataclass(frozen=True)
class CostMatrix:
    """Dense k x k matrix of pairwise costs under a given metric."""

    values: np.ndarray
    metric: CostMetric

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Assignment:
    """A minimum-cost bijection between two equal-size point sets.

    ``perm[i]`` is the target index matched to source point i;  ``perm``
    is always a permutation of 0..k-1 (checked on construction, else
    :class:`SizeMismatch`).
    """

    perm: np.ndarray
    total_cost: float

    def __post_init__(self) -> None:
        perm = np.asarray(self.perm)
        k = len(perm) if perm.ndim == 1 else 0
        in_range = k > 0 and perm.dtype.kind in "iu" and perm.min() >= 0 and perm.max() < k
        if not (in_range and (np.bincount(perm.astype(np.intp), minlength=k) == 1).all()):
            raise SizeMismatch(
                f"perm must be a 1-D integer permutation of 0..k-1, got shape {perm.shape}, dtype {perm.dtype}"
            )

    @property
    def k(self) -> int:
        return self.perm.shape[0]


def _check_same_shape(a: PointSet, b: PointSet) -> None:
    if a.k != b.k or a.d != b.d:
        raise SizeMismatch(
            f"point sets must match in size and dimension: got ({a.k}, {a.d}) vs ({b.k}, {b.d})"
        )


def pairwise_cost(a: PointSet, b: PointSet, metric: CostMetric) -> CostMatrix:
    """All-pairs costs between two equal-size point sets.

    Entry (i, j) is ``metric(a_i, b_j)``.  Raises :class:`SizeMismatch` on
    shape disagreement and :class:`PoolTooLarge` above the dense limit.
    """
    _check_same_shape(a, b)
    if a.k > MAX_DENSE_K:
        raise PoolTooLarge(f"k={a.k} exceeds the dense cost-matrix limit of {MAX_DENSE_K}")
    values = cdist(a.data, b.data, _CDIST_NAME[metric])
    return CostMatrix(values=values, metric=metric)


def solve_assignment(costs: CostMatrix) -> Assignment:
    """Exact minimum-total-cost bijection for a square cost matrix.

    Deterministic for a fixed input.  Non-square input raises
    :class:`SizeMismatch`; NaN or infinite entries raise :class:`InvalidCost`.
    """
    values = np.asarray(costs.values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise SizeMismatch(f"assignment needs a square cost matrix, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise InvalidCost("cost matrix contains NaN or infinite entries")
    rows, cols = linear_sum_assignment(values)
    # linear_sum_assignment returns rows in sorted order, so cols is the permutation.
    perm = cols.astype(np.int64)
    perm.setflags(write=False)
    total = float(values[rows, cols].sum())
    return Assignment(perm=perm, total_cost=total)


def matched_distances(a: PointSet, b: PointSet, sigma: Assignment, metric: CostMetric) -> np.ndarray:
    """Per-pair costs metric(a_i, b_{sigma(i)}) as a length-k vector."""
    _check_same_shape(a, b)
    if sigma.k != a.k:
        raise SizeMismatch(f"assignment covers {sigma.k} points but sets have {a.k}")
    diff = a.data - b.data[sigma.perm]
    if metric is CostMetric.SQUARED_EUCLIDEAN:
        return np.einsum("ij,ij->i", diff, diff)
    if metric is CostMetric.EUCLIDEAN:
        return np.linalg.norm(diff, axis=1)
    if metric is CostMetric.L1:
        return np.abs(diff).sum(axis=1)
    raise UnsupportedMetric(f"unknown metric {metric!r}")


def ot_divergence(
    a: PointSet,
    b: PointSet,
    assign_metric: CostMetric = CostMetric.SQUARED_EUCLIDEAN,
    report_metric: CostMetric = CostMetric.EUCLIDEAN,
) -> float:
    """Average matched-pair distance under the optimal bijection.

    The bijection is solved under ``assign_metric``; the reported average
    uses ``report_metric``.  Defaults follow the package convention:
    assign under squared Euclidean (the training cost), report Euclidean
    (an average distance).
    """
    sigma = solve_assignment(pairwise_cost(a, b, assign_metric))
    return float(matched_distances(a, b, sigma, report_metric).mean())

