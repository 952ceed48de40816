"""Exact optimal transport between equal-size point sets.

Balanced transport between two sets of the same size has a permutation as
its optimal solution, so everything here reduces to the linear assignment
problem: build a dense cost matrix, solve it exactly, and read distances
off the matched pairs.

There is one cost, squared Euclidean: every mapper, the OTTrans pairing and
the divergence solve under it.  Reported distances (:func:`matched_distances`,
:func:`ot_divergence`) are the Euclidean lengths of the matched pairs.

The solver is :func:`scipy.optimize.linear_sum_assignment` (a shortest
augmenting path method of the Jonker-Volgenant family).  The result is exact
and deterministic per input: a minimum-total-cost permutation, the same one
every time for the same cost matrix.  All solver arithmetic is 64-bit.

For k <= ``WARM_START_MAX_K`` the solver is warm-started.  Subtracting row
and column potentials ``f_i + g_j`` from the costs shifts every
permutation's total by the same constant, so the optimum is unchanged; with
entropic (Sinkhorn) potentials (Cuturi 2013) the reduced matrix leaves the
augmenting paths little to do.  The warm start costs one extra k x k float64
array, which is why it stops at k = 1024.  On negative costs, or where
rounding in the reduced costs could hide the optimum, the raw matrix is
solved instead (see :func:`solve_assignment`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidCost, PoolTooLarge, SizeMismatch

# Dense k x k matrices only; above this the cost matrix alone is > 2 GiB.
MAX_DENSE_K = 16384
# The warm start hands the solver a second k x k float64 array (the reduced
# costs; scipy's solver takes no duals), 8 MiB at k = 1024.  That stays below
# the 32 MB matrix of a 2000-point divergence, so peak memory does not grow;
# applied to that solve it would add another 32 MB.
WARM_START_MAX_K = 1024
# |f|_1 + |g|_1 may be at most this multiple of the matched total; then the
# rounding of C - f - g keeps the warm total within 5e-13 of the optimum,
# relative.
_MAX_POTENTIAL_RATIO = 1e3


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
    """Dense k x k matrix of pairwise costs (squared Euclidean from :func:`pairwise_cost`)."""

    values: np.ndarray

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


def pairwise_cost(a: PointSet, b: PointSet) -> CostMatrix:
    """All-pairs squared Euclidean costs between two equal-size point sets.

    Entry (i, j) is ``|a_i - b_j|^2``.  Raises :class:`SizeMismatch` on
    shape disagreement and :class:`PoolTooLarge` above the dense limit.
    """
    _check_same_shape(a, b)
    if a.k > MAX_DENSE_K:
        raise PoolTooLarge(f"k={a.k} exceeds the dense cost-matrix limit of {MAX_DENSE_K}")
    return CostMatrix(values=cdist(a.data, b.data, "sqeuclidean"))


def _reduced_costs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Reduced costs ``C - f_i - g_j`` from Sinkhorn potentials, with f and g.

    Returns None where the raw matrix is solved instead: k = 0, k above
    ``WARM_START_MAX_K``, or a negative cost.  Starts from the row and
    column minimum reduction and refines it with three Sinkhorn stages at
    epsilon = 0.2, 0.05 and 0.01 times the mean reduced cost, 5 sweeps
    each.  A stage whose potentials come out non-finite (a zero or
    overflowing mean, an underflowing kernel) is dropped, and so are the
    later ones.  One k x k work array holds each stage's kernel and then
    the result.
    """
    k = values.shape[0]
    if k == 0 or k > WARM_START_MAX_K:
        return None
    f = values.min(axis=1)
    if f.min() < 0:
        return None
    work = values - f[:, None]
    g = work.min(axis=0)
    work -= g
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        scale = work.mean()
        for frac in (0.2, 0.05, 0.01):
            eps = frac * scale
            # Stabilised kernel exp(-(C - f - g) / eps), rebuilt in place.
            np.subtract(values, f[:, None], out=work)
            work -= g
            work *= -1.0 / eps
            np.exp(work, out=work)
            v = np.ones(k)
            for _ in range(5):
                u = 1.0 / (work @ v)
                v = 1.0 / (u @ work)
            f_next = f + eps * np.log(u)
            g_next = g + eps * np.log(v)
            if not (np.isfinite(f_next).all() and np.isfinite(g_next).all()):
                break
            f, g = f_next, g_next
    np.subtract(values, f[:, None], out=work)
    work -= g
    return work, f, g


def solve_assignment(costs: CostMatrix) -> Assignment:
    """Exact minimum-total-cost bijection for a square cost matrix.

    Exact (to float64 rounding) and deterministic per input.  Non-square
    or empty input raises :class:`SizeMismatch`; NaN or infinite entries
    raise :class:`InvalidCost`.
    ``total_cost`` always sums the given costs over the returned permutation.
    """
    values = np.asarray(costs.values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise SizeMismatch(f"assignment needs a square cost matrix, got shape {values.shape}")
    # min and max propagate NaN, so two reductions stand in for a k x k mask.
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise InvalidCost("cost matrix contains NaN or infinite entries")
    rows = None
    warm = _reduced_costs(values)
    if warm is not None:
        reduced, f, g = warm
        rows, cols = linear_sum_assignment(reduced)
        del warm, reduced
        # Each reduced entry is off by at most about u(|C| + |f_i| + |g_j|)
        # (u the unit roundoff), so on non-negative costs the warm total is
        # within about 4u(total + |f|_1 + |g|_1) of the optimum.  Potentials
        # far larger than the matched costs (costs spanning many orders of
        # magnitude) would lose the optimum to rounding; solve cold then.
        if (np.abs(f).sum() + np.abs(g).sum()) / _MAX_POTENTIAL_RATIO > values[rows, cols].sum():
            rows = None
    if rows is None:
        rows, cols = linear_sum_assignment(values)
    # linear_sum_assignment returns rows in sorted order, so cols is the permutation.
    perm = cols.astype(np.int64)
    perm.setflags(write=False)
    total = float(values[rows, cols].sum())
    return Assignment(perm=perm, total_cost=total)


def matched_distances(a: PointSet, b: PointSet, sigma: Assignment) -> np.ndarray:
    """Euclidean per-pair distances |a_i - b_{sigma(i)}| as a length-k vector."""
    _check_same_shape(a, b)
    if sigma.k != a.k:
        raise SizeMismatch(f"assignment covers {sigma.k} points but sets have {a.k}")
    return np.linalg.norm(a.data - b.data[sigma.perm], axis=1)


def ot_divergence(a: PointSet, b: PointSet) -> float:
    """Mean Euclidean matched-pair distance under the squared-Euclidean optimum.

    The bijection minimises the total squared Euclidean cost (the training
    cost); the reported average is of the plain Euclidean distances.
    """
    sigma = solve_assignment(pairwise_cost(a, b))
    return float(matched_distances(a, b, sigma).mean())
