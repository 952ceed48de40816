"""K-means fitting and Gaussian cluster sampling."""

import numpy as np
import pytest

from otmap.baseline import ClusterModel, _plusplus_seeds, kmeans_fit, sample_cluster_model
from otmap.datasets import SyntheticKind, SyntheticSpec, make_moons
from otmap.errors import InvalidCount, ModelError, SpecError
from otmap.ot import PointSet


def sse(x: np.ndarray, centers: np.ndarray) -> float:
    """Sum of squared distances from each row of x to its nearest center."""
    return float(np.square(x[:, None, :] - centers[None, :, :]).sum(axis=2).min(axis=1).sum())


class TestKmeansFit:
    def test_separable_repeated_locations(self):
        locs = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = PointSet(np.repeat(locs, [30, 20, 50], axis=0))
        model = kmeans_fit(pts, k=3, seed=1)
        order = np.argsort(model.means[:, 0] + 100 * model.means[:, 1])
        means = model.means[order]
        np.testing.assert_allclose(np.sort(means[:, 0]), [0.0, 0.0, 10.0], atol=1e-9)
        np.testing.assert_allclose(np.sort(model.weights), [0.2, 0.3, 0.5], atol=1e-12)
        for cov in model.covariances:
            assert np.abs(cov).max() <= 2e-6  # ridge only

    def test_single_cluster_is_global_moments(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(500, 3))
        model = kmeans_fit(PointSet(x), k=1, seed=0)
        np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-12)
        centered = x - x.mean(axis=0)
        expected = centered.T @ centered / len(x) + 1e-6 * np.eye(3)
        np.testing.assert_allclose(model.covariances[0], expected, atol=1e-12)
        assert model.weights[0] == 1.0

    def test_sse_close_to_reference_implementation(self):
        sklearn_cluster = pytest.importorskip("sklearn.cluster")
        pts = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=4000, seed=11))
        ours = kmeans_fit(pts, k=16, seed=3)
        ref = sklearn_cluster.KMeans(n_clusters=16, n_init=5, random_state=0).fit(pts.data)
        assert sse(pts.data, ours.means) <= ref.inertia_ * 1.05

    def test_fit_is_no_worse_than_its_seeds(self):
        pts = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=1500, seed=4))
        model = kmeans_fit(pts, k=8, seed=5)
        seeds = _plusplus_seeds(pts.data, 8, np.random.default_rng(5))
        assert sse(pts.data, model.means) <= sse(pts.data, seeds)

    def test_more_clusters_than_points(self):
        with pytest.raises(SpecError):
            kmeans_fit(PointSet(np.zeros((3, 2))), k=4)

    @pytest.mark.parametrize(
        "rows", [[[0.0, 0.0]] * 6, [[0.0, 0.0]] * 5 + [[1.0, 1.0]]], ids=["one-distinct", "two-distinct"]
    )
    def test_more_clusters_than_distinct_points(self, rows):
        # Repeated rows would leave clusters empty or identical.
        with pytest.raises(SpecError, match=f"{len(np.unique(rows, axis=0))} of them distinct"):
            kmeans_fit(PointSet(rows), k=3)


class TestSampleClusterModel:
    def test_zero_covariance_returns_mean(self):
        model = ClusterModel(
            weights=np.array([1.0]),
            means=np.array([[2.0, -1.0]]),
            covariances=np.zeros((1, 2, 2)),
        )
        pts = sample_cluster_model(model, 50, seed=1)
        np.testing.assert_allclose(pts.data, np.tile([2.0, -1.0], (50, 1)), atol=1e-12)

    def test_single_cluster_empirical_mean(self):
        cov = np.array([[[0.5, 0.1], [0.1, 0.3]]])
        model = ClusterModel(weights=np.array([1.0]), means=np.array([[1.0, 2.0]]), covariances=cov)
        n = 20_000
        pts = sample_cluster_model(model, n, seed=2)
        sd = np.sqrt(np.diag(cov[0]))
        err = np.abs(pts.data.mean(axis=0) - [1.0, 2.0])
        assert (err <= 3 * sd / np.sqrt(n)).all()

    def test_non_psd_covariance_rejected(self):
        model = ClusterModel(
            weights=np.array([1.0]),
            means=np.array([[0.0]]),
            covariances=np.array([[[-1.0]]]),
        )
        with pytest.raises(ModelError):
            sample_cluster_model(model, 10, seed=0)

    def test_lists_are_stored_as_float_arrays(self):
        model = ClusterModel(weights=[1.0], means=[[0.0]], covariances=[[[1.0]]])
        for arr in (model.weights, model.means, model.covariances):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert sample_cluster_model(model, 3, seed=0).k == 3

    def test_keeps_private_read_only_copies(self):
        w, mu, cov = np.array([1.0]), np.array([[0.0]]), np.array([[[1.0]]])
        model = ClusterModel(weights=w, means=mu, covariances=cov)
        w[0], mu[0, 0], cov[0, 0, 0] = 5.0, 5.0, 5.0
        assert (model.weights[0], model.means[0, 0], model.covariances[0, 0, 0]) == (1.0, 0.0, 1.0)
        for arr in (model.weights, model.means, model.covariances):
            assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "fields",
        [
            {"weights": [1.0], "means": [[0.0], [1.0, 2.0]], "covariances": [[[1.0]]]},
            {"weights": [0.5, [0.5]], "means": [[0.0]], "covariances": [[[1.0]]]},
            {"weights": [1.0], "means": [[0.0]], "covariances": [[[1.0]], [[1.0, 0.0]]]},
            {"weights": [1.0], "means": [[0.0]], "covariances": [[1.0]]},
        ],
        ids=["ragged-means", "ragged-weights", "ragged-covariances", "covariances-of-rank-2"],
    )
    def test_rejects_ragged_or_misranked_input(self, fields):
        with pytest.raises(ModelError):
            ClusterModel(**fields)

    def test_zero_count_rejected(self):
        model = ClusterModel(
            weights=np.array([1.0]), means=np.array([[0.0]]), covariances=np.array([[[1.0]]])
        )
        with pytest.raises(InvalidCount):
            sample_cluster_model(model, 0)

    def test_deterministic(self):
        pts = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=500, seed=8))
        model = kmeans_fit(pts, k=4, seed=9)
        a = sample_cluster_model(model, 100, seed=10)
        b = sample_cluster_model(model, 100, seed=10)
        assert np.array_equal(a.data, b.data)


class TestClusterModelJson:
    def test_invalid_weights_rejected(self):
        with pytest.raises(ModelError):
            ClusterModel(
                weights=np.array([0.5, 0.2]),
                means=np.zeros((2, 2)),
                covariances=np.stack([np.eye(2)] * 2),
            )

    def test_nan_means_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            ClusterModel(
                weights=np.array([1.0]), means=np.array([[np.nan, 0.0]]), covariances=np.eye(2)[None]
            )

    def test_nan_weight_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            ClusterModel(
                weights=np.array([np.nan, 1.0]), means=np.array([[0.0], [1.0]]), covariances=np.ones((2, 1, 1))
            )

    def test_infinite_covariance_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            ClusterModel(
                weights=np.array([1.0]),
                means=np.zeros((1, 2)),
                covariances=np.array([[[np.inf, 0.0], [0.0, 1.0]]]),
            )

    def test_flat_means_rejected(self):
        with pytest.raises(ModelError, match="means must be"):
            ClusterModel(weights=np.array([0.5, 0.5]), means=np.zeros(2), covariances=np.ones((2, 1, 1)))
