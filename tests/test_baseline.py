"""K-means fitting and Gaussian cluster sampling."""

import numpy as np
import pytest

from otmap.baseline import ClusterModel, _plusplus_seeds, kmeans_fit, sample_cluster_model
from otmap.datasets import SyntheticKind, SyntheticSpec, make_moons
from otmap.errors import SpecError
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

    def test_deterministic_per_seed(self):
        pts = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=500, seed=6))
        a, b = kmeans_fit(pts, k=5, seed=7), kmeans_fit(pts, k=5, seed=7)
        for x, y in zip((a.weights, a.means, a.covariances), (b.weights, b.means, b.covariances)):
            assert np.array_equal(x, y)

    def test_more_clusters_than_points(self):
        with pytest.raises(SpecError):
            kmeans_fit(PointSet(np.zeros((3, 2))), k=4, seed=0)

    @pytest.mark.parametrize(
        "rows", [[[0.0, 0.0]] * 6, [[0.0, 0.0]] * 5 + [[1.0, 1.0]]], ids=["one-distinct", "two-distinct"]
    )
    def test_more_clusters_than_distinct_points(self, rows):
        # Repeated rows would leave clusters empty or identical.
        with pytest.raises(SpecError, match=f"{len(np.unique(rows, axis=0))} of them distinct"):
            kmeans_fit(PointSet(rows), k=3, seed=0)


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

    def test_single_cluster_empirical_covariance(self):
        cov = np.array([[0.5, 0.3], [0.3, 0.4]])
        model = ClusterModel(weights=[1.0], means=[[1.0, 2.0]], covariances=[cov])
        n = 20_000
        x = sample_cluster_model(model, n, seed=3).data
        # Entry (i, j) of a Gaussian sample covariance has variance
        # (cov_ij^2 + cov_ii cov_jj) / n; allow 4 of its standard deviations.
        sd = np.sqrt((cov**2 + np.outer(np.diag(cov), np.diag(cov))) / n)
        assert (np.abs(np.cov(x, rowvar=False) - cov) <= 4 * sd).all()

    def test_rank_one_covariance_samples_on_its_line(self):
        # A singular covariance has no Cholesky factor; its samples lie on its range.
        model = ClusterModel(weights=[1.0], means=[[1.0, -1.0]], covariances=[[[1.0, 1.0], [1.0, 1.0]]])
        x = sample_cluster_model(model, 500, seed=4).data - [1.0, -1.0]
        np.testing.assert_allclose(x[:, 0], x[:, 1], rtol=0, atol=1e-12)
        assert x[:, 0].std() > 0.5

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(SpecError, match="not PSD"):
            ClusterModel(
                weights=np.array([1.0]),
                means=np.array([[0.0]]),
                covariances=np.array([[[-1.0]]]),
            )

    def test_psd_tolerance_is_checked_where_the_model_is_built(self):
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        inside, past = (rot @ np.diag([e, 1.0]) @ rot.T for e in (-5e-10, -2e-9))
        # A model that is built always samples: its tiny negative eigenvalue is clipped.
        assert sample_cluster_model(ClusterModel([1.0], [[0.0, 0.0]], [inside]), 10, seed=0).k == 10
        with pytest.raises(SpecError, match="not PSD"):
            ClusterModel([1.0], [[0.0, 0.0]], [past])

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
        "fields, match",
        [
            ({"weights": [1.0], "means": [[0.0], [1.0, 2.0]], "covariances": [[[1.0]]]}, "same length"),
            ({"weights": [0.5, [0.5]], "means": [[0.0]], "covariances": [[[1.0]]]}, "same length"),
            ({"weights": [1.0], "means": [[0.0]], "covariances": [[[1.0]], [[1.0, 0.0]]]}, "same length"),
            ({"weights": [1.0], "means": [[0.0]], "covariances": [[1.0]]}, r"covariances \(k, d, d\)"),
        ],
        ids=["ragged-means", "ragged-weights", "ragged-covariances", "covariances-of-rank-2"],
    )
    def test_rejects_ragged_or_misranked_input(self, fields, match):
        with pytest.raises(SpecError, match=match):
            ClusterModel(**fields)

    def test_samples_from_weights_that_sum_to_one_within_tolerance(self):
        # The sum is within ClusterModel's 1e-9 of 1 but past the 1e-12 multinomial allows.
        model = ClusterModel([0.5 + 3e-10, 0.5 + 3e-10, 0.0], [[0.0], [1.0], [2.0]], np.ones((3, 1, 1)))
        assert sample_cluster_model(model, 5, seed=0).k == 5

    def test_zero_count_rejected(self):
        model = ClusterModel(
            weights=np.array([1.0]), means=np.array([[0.0]]), covariances=np.array([[[1.0]]])
        )
        with pytest.raises(SpecError, match="need an integer"):
            sample_cluster_model(model, 0, seed=0)

    def test_deterministic(self):
        pts = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=500, seed=8))
        model = kmeans_fit(pts, k=4, seed=9)
        a = sample_cluster_model(model, 100, seed=10)
        b = sample_cluster_model(model, 100, seed=10)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_give_different_points(self):
        model = ClusterModel(weights=[1.0], means=[[0.0, 0.0]], covariances=[np.eye(2)])
        a = sample_cluster_model(model, 100, seed=10)
        b = sample_cluster_model(model, 100, seed=11)
        assert not np.array_equal(a.data, b.data)


class TestClusterModelJson:
    def test_invalid_weights_rejected(self):
        with pytest.raises(SpecError, match="sum to 1"):
            ClusterModel(
                weights=np.array([0.5, 0.2]),
                means=np.zeros((2, 2)),
                covariances=np.stack([np.eye(2)] * 2),
            )

    def test_nan_means_rejected(self):
        with pytest.raises(SpecError, match="finite"):
            ClusterModel(
                weights=np.array([1.0]), means=np.array([[np.nan, 0.0]]), covariances=np.eye(2)[None]
            )

    def test_nan_weight_rejected(self):
        with pytest.raises(SpecError, match="finite"):
            ClusterModel(
                weights=np.array([np.nan, 1.0]), means=np.array([[0.0], [1.0]]), covariances=np.ones((2, 1, 1))
            )

    def test_infinite_covariance_rejected(self):
        with pytest.raises(SpecError, match="finite"):
            ClusterModel(
                weights=np.array([1.0]),
                means=np.zeros((1, 2)),
                covariances=np.array([[[np.inf, 0.0], [0.0, 1.0]]]),
            )

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(SpecError, match="symmetric"):
            ClusterModel([0.5, 0.5], np.zeros((2, 2)), [np.eye(2), [[1.0, 0.1], [0.0, 1.0]]])

    def test_zero_dimensional_means_rejected(self):
        with pytest.raises(SpecError, match="d >= 1"):
            ClusterModel(weights=[1.0], means=np.zeros((1, 0)), covariances=np.zeros((1, 0, 0)))

    def test_flat_means_rejected(self):
        with pytest.raises(SpecError, match="means must be"):
            ClusterModel(weights=np.array([0.5, 0.5]), means=np.zeros(2), covariances=np.ones((2, 1, 1)))
