"""Prior sampling, the diversity penalty, and both mapper trainers."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from otmap import mappers
from otmap.datasets import SyntheticKind, SyntheticSpec, make_moons
from otmap.errors import InvalidCount, SizeMismatch, SpecError, TooFewPoints
from otmap.mappers import (
    PriorSpec,
    TrainConfig,
    diversity_penalty,
    generate,
    pool_sampler,
    sample_prior,
    train_otgen,
    train_ottrans,
)
from otmap.nn import Activation, LayerSpec, Mlp, forward, init_mlp
from otmap.ot import PointSet, ot_divergence, pairwise_cost, solve_assignment


def small_mapper(seed=0, in_dim=2, out_dim=2, width=64, hidden=2, dtype=np.float32):
    dims = [in_dim] + [width] * hidden
    specs = [LayerSpec(i, o, Activation.LEAKY_RELU) for i, o in zip(dims, dims[1:])]
    specs.append(LayerSpec(dims[-1], out_dim, Activation.IDENTITY))
    return Mlp(specs, init_mlp(specs, seed=seed).params.astype(dtype))


def mean_pair_distance(x: np.ndarray) -> float:
    k = len(x)
    total, count = 0.0, 0
    for i in range(k):
        for j in range(i + 1, k):
            total += float(np.linalg.norm(x[i] - x[j]))
            count += 1
    return total / count


def all_pairs_penalty_reference(p: np.ndarray, z: np.ndarray) -> tuple[float, np.ndarray]:
    # Pair-list form of the exact penalty: enumerate i < j, gather both
    # endpoints, scatter the unit vectors with np.add.at.
    i, j = np.triu_indices(len(p), 1)
    diff = p[i] - p[j]
    norms = np.linalg.norm(diff, axis=1)
    mpd_p = float(norms.mean())
    mpd_z = float(np.linalg.norm(z[i] - z[j], axis=1).mean())
    units = diff / np.maximum(norms, 1e-12)[:, None]
    grad = np.zeros_like(p)
    np.add.at(grad, i, units)
    np.add.at(grad, j, -units)
    grad *= np.sign(mpd_p - mpd_z) / len(i)
    return abs(mpd_p - mpd_z), grad


class TestSamplePrior:
    def test_large_sample_statistics(self):
        pts = sample_prior(PriorSpec(dim=2), k=10_000, rng=np.random.default_rng(5))
        assert pts.k == 10_000 and pts.d == 2
        assert np.all(pts.data >= -1.0) and np.all(pts.data < 1.0)
        assert np.abs(pts.data.mean(axis=0)).max() < 0.02

    def test_two_generators_from_one_seed_give_the_same_draws(self):
        spec = PriorSpec(dim=3)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        first = sample_prior(spec, 17, a).data
        assert np.array_equal(first, sample_prior(spec, 17, b).data)
        second = sample_prior(spec, 17, a).data
        assert np.array_equal(second, sample_prior(spec, 17, b).data)
        assert not np.array_equal(first, second)

    def test_single_point_in_range(self):
        pts = sample_prior(PriorSpec(dim=2), k=1, rng=np.random.default_rng(0))
        assert pts.data.shape == (1, 2)
        assert np.all(pts.data >= -1.0) and np.all(pts.data < 1.0)

    def test_rejects_zero_count(self):
        with pytest.raises(InvalidCount):
            sample_prior(PriorSpec(dim=2), k=0, rng=np.random.default_rng(0))

    def test_invalid_spec(self):
        with pytest.raises(SpecError):
            PriorSpec(dim=0)

    def test_draws_uniform_on_minus_one_to_one_from_the_seed(self):
        got = sample_prior(PriorSpec(dim=3), 20, np.random.default_rng(11)).data
        want = np.random.default_rng(11).uniform(-1, 1, (20, 3))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("lr", v) for v in (np.nan, np.inf, 0.0, -1e-3, "1e-3", None)]
        + [("lambda_div", v) for v in (np.nan, np.inf, -0.5, "0.5", None)],
    )
    def test_rejects_rates_that_are_not_finite_and_in_range(self, field, value):
        with pytest.raises(SpecError, match=field):
            TrainConfig(prior=PriorSpec(dim=2), **{field: value})

    def test_accepts_numpy_float_rates(self):
        cfg = TrainConfig(prior=PriorSpec(dim=2), lr=np.float32(1e-3), lambda_div=np.float64(0.5))
        assert (cfg.lr, cfg.lambda_div) == (np.float32(1e-3), 0.5)


class TestDiversityPenalty:
    def test_identical_sets(self):
        p = PointSet(np.random.default_rng(0).normal(size=(10, 3)))
        value, grad = diversity_penalty(p, p)
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(12, 2))
        p = z + np.array([5.0, -3.0])
        value, _ = diversity_penalty(PointSet(p), PointSet(z))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_doubling_gives_mean_pair_distance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(9, 2))
        value, _ = diversity_penalty(PointSet(2.0 * z), PointSet(z))
        assert value == pytest.approx(mean_pair_distance(z), rel=1e-9)

    def test_value_matches_naive_enumeration(self):
        rng = np.random.default_rng(3)
        p, z = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        value, _ = diversity_penalty(PointSet(p), PointSet(z))
        assert value == pytest.approx(abs(mean_pair_distance(p) - mean_pair_distance(z)), rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        k, d = 8, 3
        p = rng.normal(size=(k, d))
        z = 2.5 * rng.normal(size=(k, d))  # keep the two mean distances apart
        _, grad = diversity_penalty(PointSet(p), PointSet(z))
        h = 1e-6
        for idx in range(k * d):
            up, down = p.ravel().copy(), p.ravel().copy()
            up[idx] += h
            down[idx] -= h
            v_up, _ = diversity_penalty(PointSet(up.reshape(k, d)), PointSet(z))
            v_down, _ = diversity_penalty(PointSet(down.reshape(k, d)), PointSet(z))
            fd = (v_up - v_down) / (2 * h)
            assert abs(fd - grad.ravel()[idx]) / max(abs(fd), 1e-10) < 1e-4

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            diversity_penalty(PointSet([[0.0, 0.0]]), PointSet([[1.0, 1.0]]))

    @pytest.mark.parametrize("z_shape", [(5, 2), (4, 3)])
    def test_shape_mismatch(self, z_shape):
        p = PointSet(np.zeros((4, 2)))
        with pytest.raises(SizeMismatch):
            diversity_penalty(p, PointSet(np.ones(z_shape)))

    @pytest.mark.parametrize("k", [512, 600, 1025])
    def test_exact_path_matches_pair_enumeration_with_duplicates(self, k):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(k, 2))
        p[1] = p[0]  # exact duplicates
        p[7] = p[0]
        p[3] = p[2] + np.array([1e-13, 0.0])  # closer than the 1e-12 floor
        p[mappers._PENALTY_BLOCK] = p[mappers._PENALTY_BLOCK - 1]  # a pair split across row blocks
        z = 1.5 * rng.normal(size=(k, 2))
        value, grad = diversity_penalty(PointSet(p), PointSet(z))
        ref_value, ref_grad = all_pairs_penalty_reference(p, z)
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_coincident_points_add_nothing(self):
        # Every pair is coincident, so every term of the gradient is zero.
        k = 600
        p = np.tile([0.3, -1.7], (k, 1))
        z = np.random.default_rng(7).normal(size=(k, 2))
        value, grad = diversity_penalty(PointSet(p), PointSet(z))
        assert value == pytest.approx(all_pairs_penalty_reference(p, z)[0], rel=1e-12)
        assert np.array_equal(grad, np.zeros((k, 2)))

    def test_memory_grows_with_row_blocks_not_pair_grid(self):
        # A k x k float64 matrix would be 8k^2 bytes; row blocks need far less.
        k = 2048
        rng = np.random.default_rng(8)
        p, z = PointSet(rng.normal(size=(k, 2))), PointSet(rng.normal(size=(k, 2)))
        tracemalloc.start()
        try:
            diversity_penalty(p, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * k * k


class TestPoolSampler:
    def test_epoch_without_replacement(self):
        pool = PointSet(np.arange(10, dtype=float).reshape(10, 1))
        nxt = pool_sampler(pool, batch_k=5, seed=0)
        seen = np.concatenate([nxt().data.ravel(), nxt().data.ravel()])
        assert sorted(seen.tolist()) == list(range(10))

    def test_reshuffles_when_exhausted(self):
        pool = PointSet(np.arange(6, dtype=float).reshape(6, 1))
        nxt = pool_sampler(pool, batch_k=4, seed=1)
        batches = [nxt() for _ in range(5)]  # forces several reshuffles
        assert all(b.k == 4 for b in batches)

    def test_deterministic(self):
        pool = PointSet(np.random.default_rng(0).normal(size=(20, 2)))
        a = pool_sampler(pool, 8, seed=3)
        b = pool_sampler(pool, 8, seed=3)
        for _ in range(4):
            assert np.array_equal(a().data, b().data)

    def test_batch_larger_than_pool(self):
        pool = PointSet(np.zeros((3, 2)))
        with pytest.raises(SpecError):
            pool_sampler(pool, 4, seed=0)

    @pytest.mark.parametrize("batch_k", [0, -2])
    def test_rejects_empty_batch_when_built(self, batch_k):
        pool = PointSet(np.zeros((3, 2)))
        with pytest.raises(SpecError, match="batch_k"):
            pool_sampler(pool, batch_k, seed=0)


class TestGenerate:
    def test_identity_network_reproduces_prior(self):
        net = Mlp([LayerSpec(2, 2, Activation.IDENTITY)], np.zeros(6))
        net.layers[0].weight[:] = np.eye(2)
        prior = PriorSpec(dim=2)
        out = generate(net, prior, 50, np.random.default_rng(123))
        np.testing.assert_allclose(out.data, sample_prior(prior, 50, np.random.default_rng(123)).data, atol=1e-12)

    def test_zero_count_rejected(self):
        net = small_mapper()
        with pytest.raises(InvalidCount):
            generate(net, PriorSpec(dim=2), 0, np.random.default_rng(0))

    def test_dim_mismatch(self):
        net = small_mapper(in_dim=3)
        from otmap.errors import SizeMismatch

        with pytest.raises(SizeMismatch):
            generate(net, PriorSpec(dim=2), 4, np.random.default_rng(0))


class TestTrainOttrans:
    def test_constant_target_converges(self):
        q = np.array([0.5, -0.25])
        targets = PointSet(np.tile(q, (256, 1)))
        cfg = TrainConfig(prior=PriorSpec(dim=2, seed=1), steps=2000, batch_k=32, lr=1e-3, seed=7)
        net = small_mapper(seed=2)
        result = train_ottrans(targets, cfg, net)
        assert result.losses.min() < 1e-4  # reaches the bar within the budget
        assert result.losses[-1] < 1e-3
        out = generate(result.net, cfg.prior, 64, np.random.default_rng(99))
        assert np.abs(out.data - q).max() < 0.05

    def test_minibatches_come_from_the_frozen_pairing(self, monkeypatch):
        # Record every step's (network input, regression target) and check
        # each row against a pairing solved independently on the same pool.
        targets = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=128, seed=0))
        cfg = TrainConfig(prior=PriorSpec(dim=2, seed=2), steps=50, batch_k=16, seed=3)
        xs, ys = [], []
        forward, cost = mappers._forward_cached, mappers._squared_cost_and_grad

        def record_input(net, x):
            xs.append(np.array(x))
            return forward(net, x)

        def record_target(pred, target, divisor):
            ys.append(np.array(target))
            return cost(pred, target, divisor)

        monkeypatch.setattr(mappers, "_forward_cached", record_input)
        monkeypatch.setattr(mappers, "_squared_cost_and_grad", record_target)
        train_ottrans(targets, cfg, small_mapper(seed=4))

        # The noise pool is the first of the two streams spawned from cfg.seed.
        prior_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed).spawn(2)[0]))
        pool = sample_prior(cfg.prior, targets.k, prior_rng)
        sigma = solve_assignment(pairwise_cost(pool, targets))
        assert len(xs) == len(ys) == cfg.steps
        for x, y in zip(xs, ys):
            hits = np.all(x[:, None, :] == pool.data[None, :, :], axis=2)
            assert (hits.sum(axis=1) == 1).all()  # each input row is one pool row
            rows = hits.argmax(axis=1)
            assert len(set(rows.tolist())) == cfg.batch_k  # drawn without replacement
            np.testing.assert_array_equal(y, targets.data[sigma.perm[rows]])

    def test_each_epoch_uses_every_pool_row_once(self, monkeypatch):
        # m = 48, batch 16: steps 0-2 and steps 3-5 each cover the pool once.
        targets = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=48, seed=1))
        cfg = TrainConfig(prior=PriorSpec(dim=2, seed=2), steps=6, batch_k=16, seed=3)
        xs = []
        forward = mappers._forward_cached

        def record_input(net, x):
            xs.append(np.array(x))
            return forward(net, x)

        monkeypatch.setattr(mappers, "_forward_cached", record_input)
        train_ottrans(targets, cfg, small_mapper(seed=4))

        prior_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed).spawn(2)[0]))
        pool = sample_prior(cfg.prior, targets.k, prior_rng)
        rows = []
        for x in xs:
            hits = np.all(x[:, None, :] == pool.data[None, :, :], axis=2)
            assert (hits.sum(axis=1) == 1).all()
            rows.append(hits.argmax(axis=1))
        per_epoch = targets.k // cfg.batch_k
        for start in range(0, cfg.steps, per_epoch):
            used = np.concatenate(rows[start : start + per_epoch])
            assert sorted(used.tolist()) == list(range(targets.k))

    def test_deterministic_runs(self):
        targets = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=64, seed=5))
        cfg = TrainConfig(prior=PriorSpec(dim=2, seed=6), steps=30, batch_k=8, seed=8)
        r1 = train_ottrans(targets, cfg, small_mapper(seed=9))
        r2 = train_ottrans(targets, cfg, small_mapper(seed=9))
        assert np.array_equal(r1.losses, r2.losses)
        for la, lb in zip(r1.net.layers, r2.net.layers):
            assert np.array_equal(la.weight, lb.weight)

    def test_batch_exceeding_pool(self):
        targets = PointSet(np.zeros((8, 2)))
        cfg = TrainConfig(prior=PriorSpec(dim=2), steps=1, batch_k=16)
        with pytest.raises(SpecError):
            train_ottrans(targets, cfg, small_mapper())


class TestTrainOtgen:
    def test_constant_target_converges(self):
        q = np.array([0.3, 0.8])
        sampler = lambda: PointSet(np.tile(q, (32, 1)))
        cfg = TrainConfig(prior=PriorSpec(dim=2, seed=1), steps=2000, batch_k=32, lr=1e-3, seed=5)
        result = train_otgen(sampler, cfg, small_mapper(seed=6))
        assert result.losses.min() < 1e-4  # reaches the bar within the budget
        assert result.losses[-1] < 1e-3

    def test_loss_equals_resolved_assignment_cost(self, monkeypatch):
        # lambda = 0: every recorded loss must equal (1/k) x the optimum of
        # that step's cost matrix, solved independently by scipy.
        costs = []

        def spy(c):
            costs.append(c)
            return solve_assignment(c)

        monkeypatch.setattr(mappers, "solve_assignment", spy)
        pool = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=512, seed=1))
        cfg = TrainConfig(prior=PriorSpec(dim=2, seed=2), steps=5, batch_k=16, seed=3)
        result = train_otgen(pool_sampler(pool, 16, seed=4), cfg, small_mapper(seed=7))
        assert len(costs) == 5
        for step, c in enumerate(costs):
            rows, cols = linear_sum_assignment(c.values)
            assert result.losses[step] == pytest.approx(c.values[rows, cols].sum() / c.k, rel=1e-9)

    def test_frozen_sigma_gradient_matches_finite_differences(self):
        # One full objective evaluation (transport term + diversity term)
        # against central differences, with the assignment held fixed.
        rng = np.random.default_rng(11)
        k, lam = 6, 0.5
        net = small_mapper(seed=12, width=8, hidden=2, dtype=np.float64)
        noise = PointSet(rng.uniform(-1, 1, size=(k, 2)))
        z = PointSet(rng.normal(size=(k, 2)) * 2.0)

        from otmap.mappers import _squared_cost_and_grad
        from otmap.nn import _backward_from_cache, _forward_cached

        out, cache = _forward_cached(net, noise.data)
        sigma = solve_assignment(pairwise_cost(PointSet(out), z))

        def objective() -> float:
            o, _ = _forward_cached(net, noise.data)
            loss, _ = _squared_cost_and_grad(o, z.data[sigma.perm], k)
            dval, _ = diversity_penalty(PointSet(o), z)
            return loss + lam * dval

        _, out_grad = _squared_cost_and_grad(out, z.data[sigma.perm], k)
        _, div_grad = diversity_penalty(PointSet(out), z)
        grads = Mlp(net.specs, np.empty_like(net.params))
        analytic = _backward_from_cache(net, cache, out_grad + lam * div_grad, grads).params

        h = 1e-5
        fd = np.empty_like(analytic)
        pos = 0
        for layer in net.layers:
            for param in (layer.weight, layer.bias):
                flat = param.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = objective()
                    flat[i] = orig - h
                    down = objective()
                    flat[i] = orig
                    fd[pos] = (up - down) / (2 * h)
                    pos += 1
        rel = np.abs(fd - analytic) / np.maximum(np.abs(fd), 1e-8)
        assert float(rel.max()) < 1e-4

    def test_divergence_improves_on_moons_median_of_five(self):
        # Scaled-down version of the full-run property: after a short burst of
        # training the generated sample is closer to the data than at step 0.
        spec = SyntheticSpec(SyntheticKind.MOONS, n=2000, seed=100)
        pool = make_moons(spec)
        eval_real = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=400, seed=101))
        before, after = [], []
        for seed in range(5):
            net = small_mapper(seed=200 + seed)
            prior = PriorSpec(dim=2, seed=300 + seed)
            gen0 = generate(net, prior, 400, np.random.default_rng(400 + seed))
            before.append(ot_divergence(gen0, eval_real))
            cfg = TrainConfig(prior=prior, steps=600, batch_k=64, lr=1e-3, seed=500 + seed)
            result = train_otgen(pool_sampler(pool, 64, seed=600 + seed), cfg, net)
            gen1 = generate(result.net, prior, 400, np.random.default_rng(400 + seed))
            after.append(ot_divergence(gen1, eval_real))
        assert np.median(after) < np.median(before)

    def test_deterministic_with_diversity_penalty(self):
        pool = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=256, seed=3))
        cfg = TrainConfig(
            prior=PriorSpec(dim=2, seed=4), steps=20, batch_k=32, lambda_div=0.5, seed=5
        )
        r1 = train_otgen(pool_sampler(pool, 32, seed=6), cfg, small_mapper(seed=7))
        r2 = train_otgen(pool_sampler(pool, 32, seed=6), cfg, small_mapper(seed=7))
        assert np.array_equal(r1.losses, r2.losses)
        for la, lb in zip(r1.net.layers, r2.net.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
