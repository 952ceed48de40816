"""Cost matrices, the exact assignment solver, and the divergence metric."""

import itertools
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from otmap.datasets import SyntheticKind, SyntheticSpec, make_moons
from otmap.errors import PoolTooLarge, SizeMismatch, SpecError
from otmap.mappers import _squared_cost_and_grad
import otmap.ot
from otmap.ot import (
    PRIVATE_COPY_MAX_K,
    Assignment,
    CostMatrix,
    PointSet,
    _warm_start,
    ot_divergence,
    pairwise_cost,
    solve_assignment,
)


def brute_force_min_cost(values: np.ndarray) -> float:
    """Exhaustive minimum over all permutations; the independence oracle."""
    k = values.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(k)):
        best = min(best, values[np.arange(k), perm].sum())
    return float(best)


class TestPointSet:
    def test_rejects_nan(self):
        with pytest.raises(SpecError, match="NaN or infinite"):
            PointSet([[0.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(SpecError, match="k >= 1"):
            PointSet(np.empty((0, 2)))

    def test_rejects_1d(self):
        with pytest.raises(SpecError, match="2-D"):
            PointSet([1.0, 2.0])

    @pytest.mark.parametrize(
        "data",
        [np.array([[1 + 2j, 0.0]]), np.array([[1.0 + 0j, 0.0]]), [["a", "b"]], [["1.0", "2.0"]], [[1.0, None]]],
        ids=["complex", "complex-real-valued", "strings", "numeric-strings", "object"],
    )
    def test_rejects_entries_that_are_not_real_numbers(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way to the error
            with pytest.raises(SpecError, match="real numbers"):
                PointSet(data)

    def test_rejects_ragged_rows(self):
        with pytest.raises(SpecError, match="same length"):
            PointSet([[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize("data", [[[1, 2], [3, 4]], np.array([[True, False]]), np.ones((2, 3), np.float32)])
    def test_integer_bool_and_float32_entries_become_float64(self, data):
        ps = PointSet(data)
        assert ps.data.dtype == np.float64
        assert np.array_equal(ps.data, np.asarray(data, dtype=np.float64))

    def test_data_is_read_only(self):
        ps = PointSet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ps.data[0, 0] = 3.0


class TestPairwiseCost:
    def test_pythagorean_squared(self):
        c = pairwise_cost(PointSet([[0.0, 0.0]]), PointSet([[3.0, 4.0]]))
        np.testing.assert_allclose(c.values, [[25.0]])

    def test_size_mismatch_names_shapes(self):
        with pytest.raises(SizeMismatch, match=r"\(1, 2\).*\(2, 2\)"):
            pairwise_cost(PointSet([[0.0, 0.0]]), PointSet([[1.0, 1.0], [2.0, 2.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(SizeMismatch):
            pairwise_cost(PointSet([[0.0, 0.0]]), PointSet([[1.0, 1.0, 1.0]]))

    def test_dense_limit(self):
        big = PointSet(np.zeros((16385, 1)))
        with pytest.raises(PoolTooLarge):
            pairwise_cost(big, big)

    def test_recompute_invariant(self):
        rng = np.random.default_rng(5)
        a, b = PointSet(rng.normal(size=(6, 3))), PointSet(rng.normal(size=(6, 3)))
        c = pairwise_cost(a, b)
        manual = ((a.data[:, None, :] - b.data[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(c.values, manual, rtol=1e-12, atol=1e-12)

    def test_values_are_read_only(self):
        c = pairwise_cost(PointSet([[0.0, 0.0]]), PointSet([[3.0, 4.0]]))
        with pytest.raises(ValueError):
            c.values[0, 0] = 0.0


def random_costs(rng: np.random.Generator, k: int, d: int) -> CostMatrix:
    """Costs between two uniform samples of k points in d dimensions."""
    return pairwise_cost(PointSet(rng.random((k, d))), PointSet(rng.random((k, d))))


class TestSolveAssignment:
    def test_zero_diagonal(self):
        pts = PointSet([[0.0], [1.0]])
        sol = solve_assignment(pairwise_cost(pts, pts))
        assert sol.perm.tolist() == [0, 1]
        assert sol.total_cost == 0.0

    def test_zero_anti_diagonal(self):
        sol = solve_assignment(pairwise_cost(PointSet([[0.0], [2.0]]), PointSet([[2.0], [0.0]])))
        assert sol.perm.tolist() == [1, 0]
        assert sol.total_cost == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry(self, bad):
        # An infinite coordinate never makes a point set; a finite one of the
        # same sign near 1e200 squares to an infinite cost, which is refused.
        with pytest.raises(SpecError, match="NaN or infinite"):
            PointSet([[bad, 0.0]])
        a = PointSet([[0.0, 0.0], [1.0, 0.0], [np.copysign(1e200, bad), 0.0]])
        b = PointSet([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(SpecError, match="infinite entries"):
            solve_assignment(pairwise_cost(a, b))

    def test_matches_brute_force_on_200_random_6x6(self):
        # Up to d = 5 the 6 x 6 squared distances (rank <= d + 2) are generic.
        rng = np.random.default_rng(42)
        for _ in range(200):
            costs = random_costs(rng, 6, int(rng.integers(1, 6)))
            sol = solve_assignment(costs)
            assert sorted(sol.perm.tolist()) == list(range(6))
            assert sol.total_cost == pytest.approx(brute_force_min_cost(costs.values), abs=1e-12)

    def test_deterministic_for_fixed_input(self):
        # Every source point is at the same distance from every target, so
        # any permutation is optimal.
        def solve_tied() -> np.ndarray:
            return solve_assignment(pairwise_cost(PointSet(np.zeros((5, 1))), PointSet(np.ones((5, 1))))).perm

        assert solve_tied().tolist() == solve_tied().tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=7),
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_optimality_property(self, k, d, seed):
        costs = random_costs(np.random.default_rng(seed), k, d)
        sol = solve_assignment(costs)
        assert sorted(sol.perm.tolist()) == list(range(k))
        assert sol.total_cost == pytest.approx(brute_force_min_cost(costs.values), abs=1e-12)


def noise_to_moons_points(k: int, seed: int) -> tuple[PointSet, PointSet]:
    """Uniform noise and moons: the geometry training starts from."""
    noise = PointSet(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(k, 2)))
    return noise, make_moons(SyntheticSpec(SyntheticKind.MOONS, k, seed=seed + 1))


def noise_to_moons(k: int, seed: int) -> np.ndarray:
    """Squared costs from uniform noise to moons."""
    return pairwise_cost(*noise_to_moons_points(k, seed)).values


def warm_start_copy(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_warm_start`` on a copy of ``values``: reduced costs, f and g."""
    buf = values.copy()
    f, g = _warm_start(buf, lambda out, f: np.subtract(values, f[:, None], out=out))
    return buf, f, g


def assert_matches_reference(costs: CostMatrix) -> None:
    """solve_assignment returns a permutation with the cold solver's optimal total."""
    sol = solve_assignment(costs)
    values = costs.values
    rows, cols = linear_sum_assignment(values)
    assert sorted(sol.perm.tolist()) == list(range(values.shape[0]))
    assert sol.total_cost == pytest.approx(float(values[rows, cols].sum()), rel=1e-12)
    assert sol.total_cost == float(values[np.arange(values.shape[0]), sol.perm].sum())


def count_solver_calls(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Record the size of every linear_sum_assignment call solve_assignment makes."""
    calls: list[int] = []

    def counting(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        calls.append(values.shape[0])
        return linear_sum_assignment(values)

    monkeypatch.setattr(otmap.ot, "linear_sum_assignment", counting)
    return calls


class TestWarmStart:
    """The Sinkhorn warm start against scipy's solver run on the raw matrix."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(min_value=1, max_value=160), seed=st.integers(min_value=0, max_value=2**31))
    def test_noise_to_moons(self, k, seed):
        assert_matches_reference(pairwise_cost(*noise_to_moons_points(k, seed)))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(min_value=1, max_value=160), seed=st.integers(min_value=0, max_value=2**31))
    def test_normal_to_normal(self, k, seed):
        rng = np.random.default_rng(seed)
        a, b = PointSet(rng.normal(size=(k, 2))), PointSet(rng.normal(size=(k, 2)))
        assert_matches_reference(pairwise_cost(a, b))

    def test_duplicated_points(self):
        rng = np.random.default_rng(4)
        noise = rng.uniform(-1.0, 1.0, size=(60, 2))
        moons = make_moons(SyntheticSpec(SyntheticKind.MOONS, 60, seed=5)).data
        a, b = PointSet(np.repeat(noise, 3, axis=0)), PointSet(np.repeat(moons, 3, axis=0))
        assert_matches_reference(pairwise_cost(a, b))

    def test_all_equal(self):
        assert_matches_reference(pairwise_cost(PointSet(np.zeros((50, 1))), PointSet(np.full((50, 1), 3.0))))

    def test_integer_l1_costs(self):
        # Integer grids give integer costs with many ties.  On 0/1
        # coordinates the squared Euclidean cost is the L1 (Hamming) cost.
        rng = np.random.default_rng(6)
        grid_a, grid_b = rng.integers(0, 5, size=(120, 2)), rng.integers(3, 9, size=(120, 2))
        assert_matches_reference(pairwise_cost(PointSet(grid_a), PointSet(grid_b)))
        a, b = PointSet(rng.integers(0, 2, size=(120, 6))), PointSet(rng.integers(0, 2, size=(120, 6)))
        costs = pairwise_cost(a, b)
        np.testing.assert_array_equal(costs.values, cdist(a.data, b.data, "cityblock"))
        assert_matches_reference(costs)

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scaled_costs(self, scale):
        noise, moons = noise_to_moons_points(200, 7)
        s = np.sqrt(scale)
        assert_matches_reference(pairwise_cost(PointSet(s * noise.data), PointSet(s * moons.data)))

    def test_single_point(self):
        assert_matches_reference(pairwise_cost(PointSet([[0.0]]), PointSet([[1.5]])))

    @pytest.mark.parametrize("k", [PRIVATE_COPY_MAX_K, PRIVATE_COPY_MAX_K + 1, 2000])
    def test_size_limit(self, k):
        # Either side of the private-copy limit, and the divergence's size.
        assert_matches_reference(pairwise_cost(*noise_to_moons_points(k, 8)))

    def test_costs_spanning_300_decades(self, monkeypatch):
        # Coordinates near 1e150 swallow the O(1) offsets, so every cost is
        # O(1) or about 1e300, and an O(1) matching exists.  Potentials sized
        # by the 1e300 entries would round the O(1) costs away; the rounding
        # guard must re-solve cold, on either side of the private-copy limit.
        rng = np.random.default_rng(9)
        for k in (40, PRIVATE_COPY_MAX_K + 1):
            far = 1e150 * (rng.random((k, 2)) < 0.5)
            a = PointSet(rng.random((k, 2)) + far)
            b = PointSet(rng.random((k, 2)) + far[rng.permutation(k)])
            costs = pairwise_cost(a, b)
            assert costs.values.max() > 1e299
            calls = count_solver_calls(monkeypatch)
            assert_matches_reference(costs)
            assert calls == [k, k]
            assert solve_assignment(costs).total_cost < 2.0 * k

    @pytest.mark.parametrize("k", [128, PRIVATE_COPY_MAX_K + 1])
    def test_rounding_guard_solves_coincident_sets_cold(self, k, monkeypatch):
        # The optimal total is 0, below any potentials the warm start finds.
        _, moons = noise_to_moons_points(k, 20)
        calls = count_solver_calls(monkeypatch)
        assert solve_assignment(pairwise_cost(moons, moons)).total_cost == 0.0
        assert calls == [k, k]

    def test_non_finite_stage_keeps_previous_potentials(self):
        # Costs near 1e307: the mean reduced cost overflows, so the first
        # Sinkhorn stage is non-finite and the min-reduction potentials are kept.
        rng = np.random.default_rng(13)
        a, b = (PointSet(rng.uniform(-4e153, 4e153, size=(8, 2))) for _ in range(2))
        costs = pairwise_cost(a, b)
        values = costs.values
        reduced, f, g = warm_start_copy(values)
        assert np.isfinite(reduced).all()
        np.testing.assert_array_equal(f, values.min(axis=1))
        np.testing.assert_array_equal(reduced, values - f[:, None] - g)
        assert_matches_reference(costs)

    def test_reduced_costs_plus_potentials_give_back_the_input(self):
        values = noise_to_moons(300, 11)
        reduced, f, g = warm_start_copy(values)
        np.testing.assert_allclose(
            reduced + f[:, None] + g[None, :], values, rtol=0, atol=1e-12 * values.max()
        )

    @pytest.mark.parametrize(
        "k, limit", [(PRIVATE_COPY_MAX_K, 1.1), (PRIVATE_COPY_MAX_K + 1, 0.01), (2000, 0.01)]
    )
    def test_peak_memory(self, k, limit):
        # One extra k x k float64 array up to the limit, none above it, where
        # the matrix lends its own buffer; the finiteness check adds no k x k
        # bool mask (0.125) either.
        costs = pairwise_cost(*noise_to_moons_points(k, 12))
        tracemalloc.start()
        try:
            solve_assignment(costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * 8 * k * k

    def test_cold_fallback_holds_no_second_matrix(self):
        # Identical sets: the optimal total is 0, so the rounding guard solves
        # cold, on the lent buffer (scipy would copy a read-only matrix).
        k = PRIVATE_COPY_MAX_K + 1
        _, moons = noise_to_moons_points(k, 18)
        costs = pairwise_cost(moons, moons)
        tracemalloc.start()
        try:
            sol = solve_assignment(costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.total_cost == 0.0
        assert peak <= 0.01 * 8 * k * k

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_unpickled_matrix_above_the_limit(self, protocol):
        # A matrix pickles as its two point sets and is rebuilt on loading,
        # so the loaded one lends and restores its buffer like the original.
        costs = pairwise_cost(*noise_to_moons_points(PRIVATE_COPY_MAX_K + 1, 17))
        blob = pickle.dumps(costs, protocol=protocol)
        assert len(blob) < costs.values.nbytes / 100
        loaded = pickle.loads(blob)
        before = loaded.values.tobytes()
        assert before == costs.values.tobytes()
        expected, sol = solve_assignment(costs), solve_assignment(loaded)
        assert sol.perm.tolist() == expected.perm.tolist()
        assert sol.total_cost == expected.total_cost
        assert loaded.values.tobytes() == before
        assert not loaded.values.flags.writeable
        assert not any(ps.data.flags.writeable for ps in loaded.points)

    @pytest.mark.parametrize("k", [1, PRIVATE_COPY_MAX_K, PRIVATE_COPY_MAX_K + 1])
    def test_values_unchanged_by_the_solve(self, k):
        costs = pairwise_cost(*noise_to_moons_points(k, 15))
        before = costs.values.tobytes()
        solve_assignment(costs)
        assert costs.values.tobytes() == before
        assert not costs.values.flags.writeable

    @pytest.mark.parametrize("k", [1, PRIVATE_COPY_MAX_K, PRIVATE_COPY_MAX_K + 1])
    def test_values_restored_when_the_solver_raises(self, k, monkeypatch):
        def broken(values):
            raise RuntimeError("solver failed")

        costs = pairwise_cost(*noise_to_moons_points(k, 16))
        before = costs.values.tobytes()
        monkeypatch.setattr(otmap.ot, "linear_sum_assignment", broken)
        with pytest.raises(RuntimeError, match="solver failed"):
            solve_assignment(costs)
        assert costs.values.tobytes() == before
        assert not costs.values.flags.writeable

    def test_lent_buffer_is_rebuilt_once_per_stage(self, monkeypatch):
        # Three Sinkhorn stages rebuild the lent costs once each; the raw
        # matrix is rebuilt once more before the solve returns.
        costs = pairwise_cost(*noise_to_moons_points(PRIVATE_COPY_MAX_K + 1, 19))
        before = costs.values.tobytes()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return cdist(*args, **kwargs)

        monkeypatch.setattr(otmap.ot, "cdist", counting)
        assert_matches_reference(costs)
        assert calls == ["sqeuclidean"] * 4
        assert costs.values.tobytes() == before


class TestOtDivergence:
    def test_identity_is_zero(self):
        pts = PointSet(np.random.default_rng(0).normal(size=(100, 2)))
        assert ot_divergence(pts, pts) == 0.0

    def test_single_forced_pair(self):
        assert ot_divergence(PointSet([[0.0, 0.0]]), PointSet([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        a = PointSet(rng.normal(size=(40, 2)))
        b_rows = rng.normal(size=(40, 2))
        before = ot_divergence(a, PointSet(b_rows))
        after = ot_divergence(a, PointSet(b_rows[rng.permutation(40)]))
        assert before == pytest.approx(after, rel=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(11)
        a_rows, b_rows = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
        s = 3.7
        base = ot_divergence(PointSet(a_rows), PointSet(b_rows))
        scaled = ot_divergence(PointSet(s * a_rows), PointSet(s * b_rows))
        assert scaled == pytest.approx(s * base, rel=1e-9)
        # assignment choice under squared cost is unchanged by scaling
        perm1 = solve_assignment(pairwise_cost(PointSet(a_rows), PointSet(b_rows))).perm
        perm2 = solve_assignment(pairwise_cost(PointSet(s * a_rows), PointSet(s * b_rows))).perm
        assert perm1.tolist() == perm2.tolist()

    def test_small_perturbation_bound(self):
        rng = np.random.default_rng(3)
        a_rows = rng.normal(size=(50, 2))
        eps = 1e-3
        noise = rng.uniform(-1.0, 1.0, size=(50, 2))
        noise *= eps / np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
        b = PointSet(a_rows[rng.permutation(50)] + noise)
        assert ot_divergence(PointSet(a_rows), b) <= eps + 1e-12

    def test_above_the_private_copy_limit_matches_cold_solve(self):
        rng = np.random.default_rng(19)
        k = PRIVATE_COPY_MAX_K + 1
        a, b = PointSet(rng.normal(size=(k, 2))), PointSet(rng.normal(size=(k, 2)))
        _, cols = linear_sum_assignment(cdist(a.data, b.data, "sqeuclidean"))
        cold = Assignment(perm=cols, total_cost=0.0)
        assert ot_divergence(a, b) == float(np.linalg.norm(a.data - b.data[cold.perm], axis=1).mean())

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = PointSet(rng.normal(size=(25, 3)))
        b = PointSet(rng.normal(size=(25, 3)))
        assert ot_divergence(a, b) == pytest.approx(ot_divergence(b, a), rel=1e-12)

    def test_assigns_squared_euclidean_reports_euclidean(self):
        # Two draws in, the squared-Euclidean and Euclidean optima differ, so
        # changing either half of the cost pair changes the value.
        rng = np.random.default_rng(0)
        for _ in range(2):
            a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        _, cols = linear_sum_assignment(cdist(a, b, "sqeuclidean"))
        _, euclid_cols = linear_sum_assignment(cdist(a, b, "euclidean"))
        assert cols.tolist() != euclid_cols.tolist()
        expected = np.linalg.norm(a - b[cols], axis=1).mean()
        assert ot_divergence(PointSet(a), PointSet(b)) == expected
        assert expected != np.linalg.norm(a - b[euclid_cols], axis=1).mean()


class TestAssignment:
    @pytest.mark.parametrize(
        "perm",
        [[0, 0, 1], [0, 1, 3], [-1, 0, 1], [[0, 1], [1, 0]], [0.0, 1.0], np.array([], dtype=np.int64)],
        ids=["repeat", "out-of-range", "negative", "2-d", "float", "empty"],
    )
    def test_rejects_non_permutation(self, perm):
        with pytest.raises(SpecError, match="permutation"):
            Assignment(perm=np.asarray(perm), total_cost=0.0)

    def test_keeps_a_private_read_only_copy(self):
        p = np.array([1, 0])
        sigma = Assignment(p, 0.0)
        p[:] = 0
        assert sigma.perm.tolist() == [1, 0] and not sigma.perm.flags.writeable
        listed = Assignment([1, 0], 0.0).perm
        assert isinstance(listed, np.ndarray) and listed.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "cost", ["x", float("nan"), float("inf"), -1.0, True], ids=["string", "nan", "inf", "negative", "bool"]
    )
    def test_rejects_a_total_cost_that_is_not_finite_and_non_negative(self, cost):
        with pytest.raises(SpecError, match="total_cost"):
            Assignment([0], cost)

    def test_stores_total_cost_as_a_float(self):
        cost = Assignment([0], np.float32(2.5)).total_cost
        assert type(cost) is float and cost == 2.5


class TestAssignmentCostGradient:
    def test_zero_at_minimum(self):
        rng = np.random.default_rng(2)
        a = PointSet(rng.normal(size=(6, 2)))
        sigma = Assignment(perm=np.arange(6), total_cost=0.0)
        _, grad = _squared_cost_and_grad(a.data, a.data[sigma.perm], a.k)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_single_point_closed_form(self):
        a, b = PointSet([[1.0, 0.0]]), PointSet([[0.0, 0.0]])
        sigma = Assignment(perm=np.array([0]), total_cost=1.0)
        np.testing.assert_allclose(_squared_cost_and_grad(a.data, b.data[sigma.perm], a.k)[1], [[2.0, 0.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        k, d = 5, 3
        a_rows = rng.normal(size=(k, d))
        b = PointSet(rng.normal(size=(k, d)))
        sigma = solve_assignment(pairwise_cost(PointSet(a_rows), b))

        def frozen_objective(flat: np.ndarray) -> float:
            diff = flat.reshape(k, d) - b.data[sigma.perm]
            return float(np.einsum("ij,ij->i", diff, diff).mean())

        _, grad = _squared_cost_and_grad(a_rows, b.data[sigma.perm], k)
        h = 1e-6
        flat = a_rows.ravel().copy()
        for idx in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[idx] += h
            down[idx] -= h
            fd = (frozen_objective(up) - frozen_objective(down)) / (2 * h)
            rel = abs(fd - grad.ravel()[idx]) / max(abs(fd), 1e-12)
            assert rel < 1e-5
