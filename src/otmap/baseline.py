"""Cluster-mixture comparison model: K-means, one Gaussian per cluster.

Fits Lloyd's algorithm with k-means++ seeding, then approximates each
cluster with a full-covariance Gaussian weighted by its occupancy fraction.
Sampling the mixture gives the comparison generator.  Every covariance is
checked symmetric and PSD when the model is built, so sampling a model
can fail only on its count or seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError, _count, _real, _seed
from .ot import PointSet

COV_RIDGE = 1e-6
# Lloyd iterations before k-means stops without converging.
MAX_ITERS = 100


@dataclass(frozen=True)
class ClusterModel:
    """Mixture of k Gaussians fitted to k-means clusters.

    The three fields are stored as private read-only float64 copies, so
    writing to the caller's arrays afterwards changes nothing here; the
    weights are divided by their sum, so :func:`sample_cluster_model` can
    always draw from them.  Any malformed field raises :class:`SpecError`,
    a covariance that is asymmetric or not PSD (past -1e-9) included.
    """

    weights: np.ndarray  # (k,), >= 0, sums to 1
    means: np.ndarray  # (k, d)
    covariances: np.ndarray  # (k, d, d), symmetric PSD up to -1e-9

    def __post_init__(self) -> None:
        for name in ("weights", "means", "covariances"):
            object.__setattr__(self, name, _real(getattr(self, name), f"cluster {name}").astype(np.float64))
        if self.means.ndim != 2 or self.covariances.ndim != 3 or self.means.shape[1] == 0:
            raise SpecError(
                f"means must be (k, d) with d >= 1 and covariances (k, d, d), got shapes "
                f"{self.means.shape} and {self.covariances.shape}"
            )
        w = self.weights
        if w.ndim != 1 or not np.isfinite(w).all() or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise SpecError("cluster weights must be finite, non-negative and sum to 1")
        if self.means.shape[0] != len(w) or self.covariances.shape[:2] != (len(w), self.means.shape[1]):
            raise SpecError("weights, means, and covariances disagree on k or d")
        if not (np.isfinite(self.means).all() and np.isfinite(self.covariances).all()):
            raise SpecError("cluster means and covariances must be finite")
        if not np.allclose(self.covariances, self.covariances.transpose(0, 2, 1), atol=1e-12):
            raise SpecError("covariance matrices must be symmetric")
        min_eval = np.linalg.eigvalsh(self.covariances).min()
        if min_eval < -1e-9:
            raise SpecError(f"covariance is not PSD (min eigenvalue {min_eval:.3e})")
        w /= w.sum()
        for arr in (w, self.means, self.covariances):
            arr.setflags(write=False)

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


def kmeans_fit(points: PointSet, k: int, seed: int) -> ClusterModel:
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


def sample_cluster_model(model: ClusterModel, n: int, seed: int) -> PointSet:
    """Draw n points: cluster by weight, then its Gaussian, factored as
    ``evecs * sqrt(evals)`` from one ``eigh`` of the covariance stack with
    the eigenvalues clipped at 0, so a singular covariance samples on its
    subspace."""
    n = _count(n, "number of samples n")
    rng = np.random.default_rng(_seed(seed))
    counts = rng.multinomial(n, model.weights)
    evals, evecs = np.linalg.eigh(model.covariances)
    factors = evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]
    chunks = []
    for c, count in enumerate(counts):
        if count == 0:
            continue
        z = rng.standard_normal((count, model.d))
        chunks.append(model.means[c] + z @ factors[c].T)
    out = np.concatenate(chunks)
    return PointSet(out[rng.permutation(n)])
