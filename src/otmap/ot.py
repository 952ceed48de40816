"""Exact optimal transport between equal-size point sets.

Balanced transport between two sets of the same size has a permutation as
its optimal solution, so everything here reduces to the linear assignment
problem: build a dense cost matrix, solve it exactly, and read distances
off the matched pairs.

There is one cost, squared Euclidean: every mapper, the OTTrans pairing and
the divergence solve under it.  The distance :func:`ot_divergence` reports
is the mean Euclidean length of the matched pairs.

The solver is :func:`scipy.optimize.linear_sum_assignment` (a shortest
augmenting path method of the Jonker-Volgenant family).  The result is exact
and deterministic per input: a minimum-total-cost permutation, the same one
every time for the same cost matrix.  All solver arithmetic is 64-bit.

Every solve is warm-started.  Subtracting row and column potentials
``f_i + g_j`` from the costs shifts every permutation's total by the same
constant, so the optimum is unchanged; with entropic (Sinkhorn) potentials
(Cuturi 2013) the reduced matrix leaves the augmenting paths little to do.
The potentials are refined in one k x k scratch buffer.  Up to
``PRIVATE_COPY_MAX_K`` that buffer is a private copy of the costs.  Above
it, the cost matrix lends its own buffer: each stage
rebuilds the costs from the two point sets, and the raw matrix is rebuilt
in place before the solve returns, so no second k x k array is held.  Where
rounding in the reduced costs could hide the optimum, the raw matrix is
solved instead (see :func:`solve_assignment`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import PoolTooLarge, SizeMismatch, SpecError, _rate, _real

# Dense k x k matrices only; above this the cost matrix alone is > 2 GiB.
MAX_DENSE_K = 16384
# The largest k whose warm start works on a private copy of the costs (8 MiB
# at k = 1024).  Above it the cost matrix lends its own buffer and gets its
# costs rebuilt by cdist, which saves a second k x k array; at small
# k the copy is faster than the rebuilds (measured: lending at every k made
# the k = 256 solve 10% and the k = 128, d = 8 solve 21% slower).
PRIVATE_COPY_MAX_K = 1024
# |f|_1 + |g|_1 may be at most this multiple of the matched total; then the
# rounding of C - f - g keeps the warm total within 5e-13 of the optimum,
# relative.
_MAX_POTENTIAL_RATIO = 1e3


@dataclass(frozen=True)
class PointSet:
    """A batch of k points in d dimensions, rows = points.

    The universal currency between modules.  Data is stored as a read-only
    float64 array (unpickling validates it again).  Ragged, non-2-D or
    empty input, or an entry that is not a finite real number, raises
    :class:`SpecError`.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = _real(self.data, "point set").astype(np.float64)
        if arr.ndim != 2:
            raise SpecError(f"point set must be 2-D (k, d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise SpecError(f"point set needs k >= 1 and d >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise SpecError("point set contains NaN or infinite entries")
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

    def __reduce__(self) -> tuple[type[PointSet], tuple[np.ndarray]]:
        return PointSet, (self.data,)


@dataclass(frozen=True)
class CostMatrix:
    """Squared Euclidean costs between two point sets; built only by :func:`pairwise_cost`.

    ``values`` is read-only and ``points`` are the two sets it was built
    from, so that :func:`solve_assignment` can borrow the buffer above
    ``PRIVATE_COPY_MAX_K`` and rebuild it from the points afterwards.  Above
    that limit the matrix holds reduced costs while it is being solved: do
    not read it from another thread then, nor solve it from two threads at
    once.  It pickles as its two point sets and is rebuilt on loading.
    """

    values: np.ndarray
    points: tuple[PointSet, PointSet]

    @property
    def k(self) -> int:
        return self.values.shape[0]

    def __reduce__(self) -> tuple[Callable[[PointSet, PointSet], CostMatrix], tuple[PointSet, PointSet]]:
        return pairwise_cost, self.points


def _permutation(perm: np.ndarray) -> np.ndarray:
    """``perm`` as an array if it is a 1-D integer permutation of 0..k-1, k >= 1; else :class:`SpecError`."""
    perm = _real(perm, "perm")
    k = len(perm) if perm.ndim == 1 else 0
    in_range = k > 0 and perm.dtype.kind in "iu" and perm.min() >= 0 and perm.max() < k
    if not (in_range and (np.bincount(perm.astype(np.intp), minlength=k) == 1).all()):
        raise SpecError(
            f"perm must be a 1-D integer permutation of 0..k-1, got shape {perm.shape}, dtype {perm.dtype}"
        )
    return perm


@dataclass(frozen=True)
class Assignment:
    """A minimum-cost bijection between two equal-size point sets.

    ``perm[i]`` is the target index matched to source point i;  ``perm``
    is always a permutation of 0..k-1 and ``total_cost`` a finite float
    >= 0 (checked on construction, else :class:`SpecError`).  ``perm`` is
    stored as a private read-only integer array, so a list comes back as
    an array and writing to the caller's array afterwards changes nothing.
    """

    perm: np.ndarray
    total_cost: float

    def __post_init__(self) -> None:
        _rate(self.total_cost, "total_cost", positive=False)
        object.__setattr__(self, "total_cost", float(self.total_cost))
        perm = _permutation(self.perm).copy()
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)


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
    values = cdist(a.data, b.data, "sqeuclidean")
    values.setflags(write=False)
    return CostMatrix(values=values, points=(a, b))


def _warm_start(
    buf: np.ndarray, rebuild: Callable[[np.ndarray, np.ndarray], None]
) -> tuple[np.ndarray, np.ndarray]:
    """Sinkhorn potentials f, g for the costs C in ``buf``, leaving ``C - f_i - g_j`` there.

    ``rebuild(out, f)`` must write ``C - f_i`` into ``out``; C must be
    non-negative with k >= 1.  Starts from the row and column minimum
    reduction and refines it with three Sinkhorn stages at epsilon = 0.2,
    0.05 and 0.01 times the mean reduced cost, 5 sweeps each.  A stage whose
    potentials come out non-finite (a zero or overflowing mean, an
    underflowing kernel) is dropped, and so are the later ones.  ``buf``
    holds each stage's kernel in turn, and is rebuilt once at the end of
    each stage; no other k x k array is made.
    """
    k = buf.shape[0]
    f = buf.min(axis=1)
    buf -= f[:, None]
    g = buf.min(axis=0)
    buf -= g
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        scale = buf.mean()
        for frac in (0.2, 0.05, 0.01):
            eps = frac * scale
            # Stabilised kernel exp(-(C - f - g) / eps), in place over C - f - g.
            buf *= -1.0 / eps
            np.exp(buf, out=buf)
            v = np.ones(k)
            for _ in range(5):
                u = 1.0 / (buf @ v)
                v = 1.0 / (u @ buf)
            # Written over u and v, so only f and g outlive the stage.
            f_next = np.add(f, eps * np.log(u), out=u)
            g_next = np.add(g, eps * np.log(v), out=v)
            finite = np.isfinite(f_next).all() and np.isfinite(g_next).all()
            if finite:
                f, g = f_next, g_next
            rebuild(buf, f)
            buf -= g
            if not finite:
                break
    return f, g


def solve_assignment(costs: CostMatrix) -> Assignment:
    """Exact minimum-total-cost bijection for a matrix from :func:`pairwise_cost`.

    Exact (to float64 rounding) and deterministic per input.  Infinite
    entries (finite coordinates large enough for their squares to overflow)
    are out-of-range input and raise :class:`SpecError`.
    ``total_cost`` always sums the given costs over the returned permutation.

    The warm start needs one k x k scratch buffer.  Above
    ``PRIVATE_COPY_MAX_K`` that is ``costs.values`` itself: it holds reduced
    costs during the solve and is rebuilt from the points, bit for bit,
    before this returns or raises.  At or below it the buffer is a private copy.
    """
    values = costs.values
    # Squared distances between finite points are never negative or NaN, so
    # the maximum alone finds an overflow, without a k x k mask.
    if not np.isfinite(values.max()):
        raise SpecError("cost matrix contains infinite entries")
    a, b = costs.points
    lend = costs.k > PRIVATE_COPY_MAX_K
    if lend:
        # The buffer is lent through a writable view: ``values`` stays
        # read-only for every other reader, and scipy takes the view without
        # the copy it makes of a read-only array.
        values.setflags(write=True)
        buf = values.view()
        values.setflags(write=False)

        def rebuild(out: np.ndarray, f: np.ndarray) -> None:
            cdist(a.data, b.data, "sqeuclidean", out=out)
            out -= f[:, None]

    else:
        buf = values.copy()

        def rebuild(out: np.ndarray, f: np.ndarray) -> None:
            np.subtract(values, f[:, None], out=out)

    try:
        f, g = _warm_start(buf, rebuild)
        rows, cols = linear_sum_assignment(buf)
    finally:
        if lend:
            cdist(a.data, b.data, "sqeuclidean", out=buf)
    # Each reduced entry is off by at most about u(|C| + |f_i| + |g_j|)
    # (u the unit roundoff), so on non-negative costs the warm total is
    # within about 4u(total + |f|_1 + |g|_1) of the optimum.  Potentials
    # far larger than the matched costs (costs spanning many orders of
    # magnitude, or coincident sets with a total near 0) would lose the
    # optimum to rounding; solve cold then.
    if (np.abs(f).sum() + np.abs(g).sum()) / _MAX_POTENTIAL_RATIO > values[rows, cols].sum():
        # Cold, on the raw costs in buf (a lent buffer holds them again).
        if not lend:
            np.copyto(buf, values)
        rows, cols = linear_sum_assignment(buf)
    # linear_sum_assignment returns rows in sorted order, so cols is the permutation.
    return Assignment(perm=cols, total_cost=float(values[rows, cols].sum()))


def ot_divergence(a: PointSet, b: PointSet) -> float:
    """Mean Euclidean matched-pair distance under the squared-Euclidean optimum.

    The bijection minimises the total squared Euclidean cost (the training
    cost); the reported average is of the plain Euclidean distances.
    """
    sigma = solve_assignment(pairwise_cost(a, b))
    return float(np.linalg.norm(a.data - b.data[sigma.perm], axis=1).mean())
