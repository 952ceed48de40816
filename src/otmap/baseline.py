"""Cluster-mixture comparison model: K-means, one Gaussian per cluster.

Fits Lloyd's algorithm with k-means++ seeding, then approximates each
cluster with a full-covariance Gaussian weighted by its occupancy fraction.
Sampling the mixture gives the comparison generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SpecError, _count, _real, _seed
from .ot import PointSet

COV_RIDGE = 1e-6
# Lloyd iterations before k-means stops without converging.
MAX_ITERS = 100


@dataclass(frozen=True)
class ClusterModel:
    """Mixture of k Gaussians fitted to k-means clusters.

    The three fields are stored as private read-only float64 copies, so
    writing to the caller's arrays afterwards changes nothing here.  Input
    that is not an array of real numbers (ragged lists, complex or string
    entries) raises :class:`ModelError`.
    """

    weights: np.ndarray  # (k,), >= 0, sums to 1
    means: np.ndarray  # (k, d)
    covariances: np.ndarray  # (k, d, d), symmetric PSD up to -1e-9

    def __post_init__(self) -> None:
        for name in ("weights", "means", "covariances"):
            arr = _real(getattr(self, name), f"cluster {name}", ModelError).astype(np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.means.ndim != 2 or self.covariances.ndim != 3:
            raise ModelError(
                f"means must be (k, d) and covariances (k, d, d), got shapes "
                f"{self.means.shape} and {self.covariances.shape}"
            )
        w = self.weights
        if w.ndim != 1 or not np.isfinite(w).all() or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ModelError("cluster weights must be finite, non-negative and sum to 1")
        if self.means.shape[0] != len(w) or self.covariances.shape[:2] != (len(w), self.means.shape[1]):
            raise ModelError("weights, means, and covariances disagree on k or d")
        if not (np.isfinite(self.means).all() and np.isfinite(self.covariances).all()):
            raise ModelError("cluster means and covariances must be finite")
        for cov in self.covariances:
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ModelError("covariance matrices must be symmetric")

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return self.means.shape[1]


def _plusplus_seeds(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(len(x))]
    d2 = np.square(x - centers[0]).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:  # all points coincide with chosen centers
            centers[i:] = centers[0]
            break
        centers[i] = x[rng.choice(len(x), p=d2 / total)]
        d2 = np.minimum(d2, np.square(x - centers[i]).sum(axis=1))
    return centers


def kmeans_fit(points: PointSet, k: int, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding, then per-cluster Gaussians.

    Stops when no assignment changes or after ``MAX_ITERS``.  A cluster that
    empties is re-seeded at the point farthest from its current centroid.
    Covariances are full sample covariances with a small diagonal ridge.
    ``k`` above the number of distinct points raises :class:`SpecError`.
    """
    k = _count(k, "number of clusters k")
    x = points.data
    distinct = len(np.unique(x, axis=0))
    if k > distinct:
        raise SpecError(f"cannot fit {k} clusters to {points.k} points, {distinct} of them distinct")
    rng = np.random.default_rng(_seed(seed))
    centers = _plusplus_seeds(x, k, rng)
    labels = np.full(points.k, -1, dtype=np.int64)
    for _ in range(MAX_ITERS):
        d2 = np.square(x[:, None, :] - centers[None, :, :]).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centers[c] = x[mask].mean(axis=0)
            else:
                # Farthest point from its own centroid restarts the cluster.
                far = d2[np.arange(len(x)), new_labels].argmax()
                centers[c] = x[far]
                new_labels[far] = c
        if (new_labels == labels).all():
            break
        labels = new_labels

    d = points.d
    weights = np.empty(k)
    means = np.empty((k, d))
    covs = np.empty((k, d, d))
    for c in range(k):
        members = x[labels == c]
        weights[c] = len(members) / points.k
        means[c] = members.mean(axis=0)
        centered = members - means[c]
        covs[c] = (centered.T @ centered) / len(members) + COV_RIDGE * np.eye(d)
    return ClusterModel(weights=weights, means=means, covariances=covs)


def _gaussian_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix L with L L^T = cov.

    Cholesky on the fast path; on the PSD boundary (e.g. a degenerate
    cluster) fall back to an eigendecomposition with negative eigenvalues
    clipped at the -1e-9 tolerance, beyond which the model is rejected.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    evals, evecs = np.linalg.eigh(cov)
    if evals.min() < -1e-9:
        raise ModelError(f"covariance is not PSD (min eigenvalue {evals.min():.3e})")
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def sample_cluster_model(model: ClusterModel, n: int, seed: int = 0) -> PointSet:
    """Draw n points: cluster by weight, then its Gaussian."""
    n = _count(n, "number of samples n")
    rng = np.random.default_rng(_seed(seed))
    counts = rng.multinomial(n, model.weights)
    factors = [_gaussian_factor(cov) for cov in model.covariances]
    chunks = []
    for c, count in enumerate(counts):
        if count == 0:
            continue
        z = rng.standard_normal((count, model.d))
        chunks.append(model.means[c] + z @ factors[c].T)
    out = np.concatenate(chunks)
    return PointSet(out[rng.permutation(n)])
