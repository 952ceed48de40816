"""Network construction, forward/backward correctness, Adam, checkpoints."""

import copy
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otmap.errors import NonFiniteGradient, SizeMismatch, SpecError
from otmap.nn import (
    _ADAM_BLOCK,
    Activation,
    Layer,
    LayerSpec,
    Mlp,
    _activate,
    _activation_backward,
    _forward_cached,
    adam_step,
    backward,
    forward,
    init_adam,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
)
from otmap.ot import PointSet


def paper_mapper_specs() -> list[LayerSpec]:
    dims = [2, 512, 512, 512, 512]
    specs = [LayerSpec(i, o, Activation.LEAKY_RELU) for i, o in zip(dims, dims[1:])]
    specs.append(LayerSpec(512, 2, Activation.IDENTITY))
    return specs


def reference_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Straightforward per-sample, per-neuron reimplementation (the oracle)."""
    out = np.zeros((x.shape[0], net.out_dim))
    for r, row in enumerate(x):
        h = row.astype(np.float64)
        for layer in net.layers:
            z = np.empty(layer.spec.out_dim)
            for j in range(layer.spec.out_dim):
                z[j] = float(np.dot(layer.weight[j].astype(np.float64), h)) + float(layer.bias[j])
            if layer.spec.activation is Activation.LEAKY_RELU:
                h = np.array([v if v > 0 else layer.spec.slope * v for v in z])
            elif layer.spec.activation is Activation.SIGMOID:
                h = 1.0 / (1.0 + np.exp(-z))
            else:
                h = z
        out[r] = h
    return out


def flatten_grads(grads) -> np.ndarray:
    return np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """Equal dtype and shape, NaN at the same places, every other entry
    bit for bit (so -0.0 differs from +0.0)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(f"u{a.itemsize}"), b[~nan].view(f"u{b.itemsize}"))


def reference_activation(z: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """The two-branch formulas, one masked gather per branch."""
    if spec.activation is Activation.LEAKY_RELU:
        return np.where(z > 0, z, spec.slope * z)
    if spec.activation is Activation.SIGMOID:
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return z


def reference_activation_backward(g: np.ndarray, a: np.ndarray, spec: LayerSpec) -> np.ndarray:
    if spec.activation is Activation.LEAKY_RELU:
        return g * np.where(a > 0, np.asarray(1.0, dtype=a.dtype), np.asarray(spec.slope, dtype=a.dtype))
    if spec.activation is Activation.SIGMOID:
        return g * (a * (1.0 - a))
    return g * np.ones_like(a)


def reference_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Step t of Adam, one parameter array at a time, in place."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for param, g, mp, vp in zip(params, grads, m, v):
        mp *= beta1
        mp += (1.0 - beta1) * g
        vp *= beta2
        vp += (1.0 - beta2) * np.square(g)
        param -= lr * (mp / c1) / (np.sqrt(vp / c2) + eps)


def wide_grads(net: Mlp, rng: np.random.Generator):
    """Random gradients whose magnitudes span 1e-3 to 1e3, in the net's dtype."""
    return [
        tuple(
            (rng.normal(size=p.shape) * 10.0 ** rng.uniform(-3, 3, size=p.shape)).astype(net.dtype)
            for p in (l.weight, l.bias)
        )
        for l in net.layers
    ]


class TestInit:
    def test_param_count_of_mapper_architecture(self):
        net = init_mlp(paper_mapper_specs(), seed=7)
        assert net.param_count == (2 * 512 + 512) + 3 * (512 * 512 + 512) + (512 * 2 + 2)
        assert net.param_count == 790_530

    def test_deterministic_per_seed(self):
        a = init_mlp(paper_mapper_specs(), seed=7)
        b = init_mlp(paper_mapper_specs(), seed=7)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_different_seed_differs(self):
        a = init_mlp(paper_mapper_specs(), seed=7)
        b = init_mlp(paper_mapper_specs(), seed=8)
        assert not np.array_equal(a.layers[0].weight, b.layers[0].weight)

    def test_broken_chain(self):
        with pytest.raises(SpecError):
            init_mlp([LayerSpec(3, 4), LayerSpec(5, 2)], seed=0)

    def test_bias_starts_zero(self):
        net = init_mlp([LayerSpec(3, 4)], seed=0)
        assert np.array_equal(net.layers[0].bias, np.zeros(4, dtype=np.float32))

    def test_weight_range_follows_fan_in(self):
        net = init_mlp([LayerSpec(6, 200)], seed=0)
        bound = np.sqrt(6.0 / 6)
        assert np.abs(net.layers[0].weight).max() <= bound

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_are_the_cast_float64_draws(self, dtype):
        specs = [LayerSpec(2, 16), LayerSpec(16, 8), LayerSpec(8, 2, Activation.IDENTITY)]
        net = init_mlp(specs, seed=3, dtype=dtype)
        rng = np.random.default_rng(3)
        for spec, layer in zip(specs, net.layers):
            bound = np.sqrt(6.0 / spec.in_dim)
            expected = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim)).astype(dtype)
            assert layer.weight.dtype == dtype
            assert layer.weight.tobytes() == expected.tobytes()
            assert np.shares_memory(layer.weight, net.params)


class TestFlatStorage:
    def test_layers_are_views_into_params(self):
        net = init_mlp(paper_mapper_specs(), seed=1)
        assert net.params.shape == (net.param_count,)
        pos = 0
        for layer in net.layers:
            for arr in (layer.weight, layer.bias):
                assert np.shares_memory(arr, net.params)
                np.testing.assert_array_equal(arr.ravel(), net.params[pos : pos + arr.size])
                pos += arr.size
        assert pos == net.param_count

    def test_packs_separate_arrays(self):
        rng = np.random.default_rng(2)
        w0, b0 = rng.normal(size=(3, 2)), rng.normal(size=3)
        w1, b1 = rng.normal(size=(1, 3)), rng.normal(size=1)
        net = Mlp([Layer(w0, b0, LayerSpec(2, 3)), Layer(w1, b1, LayerSpec(3, 1))])
        np.testing.assert_array_equal(net.params, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
        assert not np.shares_memory(net.layers[0].weight, w0)
        net.params[0] = 42.0
        assert net.layers[0].weight[0, 0] == 42.0

    def test_rejects_inconsistent_layers(self):
        spec = LayerSpec(2, 3)
        with pytest.raises(SizeMismatch):
            Mlp([Layer(np.zeros((2, 3)), np.zeros(3), spec)])
        with pytest.raises(SizeMismatch):
            Mlp([Layer(np.zeros((3, 2)), np.zeros(1), spec)])
        with pytest.raises(SpecError):
            Mlp([Layer(np.zeros((3, 2)), np.zeros(3, dtype=np.float32), spec)])
        with pytest.raises(SpecError):
            Mlp([])

    def test_rejects_unchained_layers(self):
        layers = [Layer(np.zeros((3, 2)), np.zeros(3), LayerSpec(2, 3)),
                  Layer(np.zeros((2, 9)), np.zeros(2), LayerSpec(9, 2))]
        with pytest.raises(SpecError, match="chain"):
            Mlp(layers)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["deepcopy", "pickle"])
    def test_copy_trains_like_the_original(self, clone):
        net = init_mlp([LayerSpec(2, 8), LayerSpec(8, 2, Activation.IDENTITY)], seed=4)
        twin = clone(net)
        assert not np.shares_memory(twin.params, net.params)
        for layer in twin.layers:
            assert np.shares_memory(layer.weight, twin.params)
        rng = np.random.default_rng(5)
        x, g = PointSet(rng.normal(size=(6, 2))), rng.normal(size=(6, 2))
        for n in (net, twin):
            state = init_adam(n)
            for _ in range(3):
                adam_step(n, backward(n, x, g), state, lr=1e-2)
        np.testing.assert_array_equal(twin.params, net.params)
        np.testing.assert_array_equal(forward(twin, x).data, forward(net, x).data)


class TestForward:
    def test_identity_network(self):
        net = init_mlp([LayerSpec(3, 3, Activation.IDENTITY)], seed=0)
        net.layers[0].weight[:] = np.eye(3, dtype=np.float32)
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = forward(net, PointSet(x))
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_leaky_relu_definition(self):
        net = init_mlp([LayerSpec(1, 1, Activation.LEAKY_RELU, slope=0.01)], seed=0, dtype=np.float64)
        net.layers[0].weight[:] = 1.0
        out = forward(net, PointSet([[-3.0]]))
        assert out.data[0, 0] == pytest.approx(-0.03)

    def test_matches_reference_implementation(self):
        specs = [
            LayerSpec(2, 7, Activation.LEAKY_RELU, slope=0.2),
            LayerSpec(7, 5, Activation.SIGMOID),
            LayerSpec(5, 3, Activation.IDENTITY),
        ]
        net = init_mlp(specs, seed=11, dtype=np.float64)
        x = np.random.default_rng(12).normal(size=(4, 2))
        fast = forward(net, PointSet(x))
        slow = reference_forward(net, x)
        np.testing.assert_allclose(fast.data, slow, rtol=1e-6, atol=1e-9)

    def test_dim_mismatch(self):
        net = init_mlp([LayerSpec(3, 2)], seed=0)
        with pytest.raises(SizeMismatch):
            forward(net, PointSet([[1.0, 2.0]]))


class TestActivations:
    """The in-place activations against the two-branch reference, bit for bit."""

    @staticmethod
    def special_values(dtype) -> np.ndarray:
        tiny = np.finfo(dtype).smallest_subnormal
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0, 1e4, -1e4, tiny, -tiny,
                 1000 * tiny, -1000 * tiny, np.finfo(dtype).tiny, -np.finfo(dtype).tiny]
        normal = np.random.default_rng(0).normal(size=64) * 10.0
        return np.concatenate([edges, normal]).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "spec",
        [LayerSpec(1, 1, Activation.LEAKY_RELU, slope=s) for s in (0.01, 0.2, 0.999, 1e-6)]
        + [LayerSpec(1, 1, Activation.SIGMOID), LayerSpec(1, 1, Activation.IDENTITY)],
        ids=lambda spec: f"{spec.activation.value}-{spec.slope}",
    )
    def test_matches_two_branch_reference(self, dtype, spec):
        z = self.special_values(dtype)
        a = _activate(z.copy(), spec)
        assert_same_bits(a, reference_activation(z, spec))
        # Every output paired with every upstream gradient, specials included.
        a_grid, g_grid = np.meshgrid(a, self.special_values(dtype))
        g_before = g_grid.copy()
        with np.errstate(invalid="ignore"):  # 0 * inf
            gz = _activation_backward(g_grid, a_grid, spec)
            assert_same_bits(gz, reference_activation_backward(g_grid, a_grid, spec))
        assert_same_bits(g_grid, g_before)


class TestBackward:
    def test_zero_output_grad(self):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2)], seed=0)
        batch = PointSet(np.random.default_rng(0).normal(size=(3, 2)))
        grads = backward(net, batch, np.zeros((3, 2)))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)

    def test_single_linear_layer_closed_form(self):
        net = init_mlp([LayerSpec(3, 2, Activation.IDENTITY)], seed=1, dtype=np.float64)
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7]])
        grads = backward(net, PointSet(x), g)
        np.testing.assert_allclose(grads[0][0], g.T @ x, rtol=1e-12)
        np.testing.assert_allclose(grads[0][1], g[0], rtol=1e-12)

    def _finite_difference_check(self, specs, seed, k, kink_margin=0.0):
        net = init_mlp(specs, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(k, specs[0].in_dim))
        out_grad = rng.normal(size=(k, specs[-1].out_dim))
        batch = PointSet(x)
        if kink_margin > 0:
            # A central difference across the LeakyReLU kink measures neither
            # side's slope: keep every pre-activation off it by the margin.
            _, cache = _forward_cached(net, x)
            assume(all(
                np.abs(np.where(out > 0, out, out / spec.slope)).min() > kink_margin
                for out, spec in zip(cache[1:], specs)
                if spec.activation is Activation.LEAKY_RELU
            ))

        analytic = flatten_grads(backward(net, batch, out_grad))

        def loss() -> float:
            out = forward(net, batch)
            return float((out_grad * out.data).sum())

        h = 1e-4
        fd = np.empty_like(analytic)
        pos = 0
        for layer in net.layers:
            for param in (layer.weight, layer.bias):
                flat = param.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss()
                    flat[i] = orig - h
                    down = loss()
                    flat[i] = orig
                    fd[pos] = (up - down) / (2 * h)
                    pos += 1
        denom = np.maximum(np.abs(fd), 1e-8)
        max_rel = float((np.abs(fd - analytic) / denom).max())
        assert max_rel < 1e-4, f"max relative error {max_rel:.2e}"

    def test_matches_finite_differences_four_layer(self):
        specs = [
            LayerSpec(3, 6, Activation.LEAKY_RELU),
            LayerSpec(6, 6, Activation.LEAKY_RELU),
            LayerSpec(6, 4, Activation.LEAKY_RELU),
            LayerSpec(4, 2, Activation.IDENTITY),
        ]
        self._finite_difference_check(specs, seed=3, k=5)

    @settings(max_examples=20, deadline=None)
    @given(
        act=st.sampled_from(list(Activation)),
        seed=st.integers(min_value=0, max_value=10_000),
        hidden=st.integers(min_value=1, max_value=6),
    )
    def test_gradient_check_property(self, act, seed, hidden):
        specs = [LayerSpec(2, hidden, act), LayerSpec(hidden, 2, act)]
        # 1e-3 is 10 finite-difference steps.
        self._finite_difference_check(specs, seed=seed, k=3, kink_margin=1e-3)

    def test_shape_mismatch(self):
        net = init_mlp([LayerSpec(2, 3)], seed=0)
        with pytest.raises(SizeMismatch):
            backward(net, PointSet([[1.0, 2.0]]), np.zeros((1, 4)))


class TestLeakyReluContraction:
    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(-50, 50),
        y=st.floats(-50, 50),
        slope=st.floats(0.001, 0.999),
    )
    def test_lipschitz_bound(self, x, y, slope):
        f = lambda v: v if v > 0 else slope * v
        assert abs(f(x) - f(y)) <= abs(x - y) + 1e-12


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        net = init_mlp([LayerSpec(2, 3)], seed=0)
        before = net.layers[0].weight.copy()
        state = init_adam(net)
        grads = [(np.zeros_like(net.layers[0].weight), np.zeros_like(net.layers[0].bias))]
        adam_step(net, grads, state, lr=0.001)
        assert np.array_equal(net.layers[0].weight, before)
        assert state.t == 1

    def test_first_step_magnitude_is_lr(self):
        # Bias-corrected first step: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps') with magnitude ~ lr regardless of g.
        net = init_mlp([LayerSpec(1, 1, Activation.IDENTITY)], seed=0, dtype=np.float64)
        w0 = float(net.layers[0].weight[0, 0])
        state = init_adam(net)
        grads = [(np.array([[0.5]]), np.array([0.0]))]
        adam_step(net, grads, state, lr=0.001)
        delta = float(net.layers[0].weight[0, 0]) - w0
        assert delta == pytest.approx(-0.001, rel=1e-6)

    def test_step_size_bound(self):
        net = init_mlp([LayerSpec(3, 4), LayerSpec(4, 2)], seed=5)
        state = init_adam(net)
        rng = np.random.default_rng(0)
        lr = 0.01
        for _ in range(25):
            before = [l.weight.copy() for l in net.layers]
            grads = [
                (rng.normal(size=l.weight.shape).astype(np.float32) * 10.0 ** rng.integers(-3, 3),
                 rng.normal(size=l.bias.shape).astype(np.float32))
                for l in net.layers
            ]
            adam_step(net, grads, state, lr=lr)
            for layer, prev in zip(net.layers, before):
                assert np.abs(layer.weight - prev).max() <= 10 * lr

    def test_non_finite_gradient_aborts(self):
        net = init_mlp([LayerSpec(2, 2)], seed=0)
        state = init_adam(net)
        grads = [(np.full_like(net.layers[0].weight, np.nan), np.zeros_like(net.layers[0].bias))]
        with pytest.raises(NonFiniteGradient):
            adam_step(net, grads, state, lr=0.001)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_array_reference(self, dtype):
        # 300 * 300 weights put the second layer across an Adam block boundary.
        specs = [LayerSpec(4, 300), LayerSpec(300, 300), LayerSpec(300, 3, Activation.IDENTITY)]
        assert init_mlp(specs, seed=0).param_count > _ADAM_BLOCK
        net = init_mlp(specs, seed=8, dtype=dtype)
        params = [p.copy() for l in net.layers for p in (l.weight, l.bias)]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = init_adam(net)
        rng = np.random.default_rng(9)
        for t in range(1, 51):
            grads = wide_grads(net, rng)
            adam_step(net, grads, state, lr=1e-3)
            reference_adam(params, [g for pair in grads for g in pair], m, v, t, lr=1e-3)
        assert state.t == 50
        ours = [p for l in net.layers for p in (l.weight, l.bias)]
        for got, want in zip(ours + list(sum(state.m, ())) + list(sum(state.v, ())), params + m + v):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_its_layer(self, bad):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=1)
        state = init_adam(net)
        rng = np.random.default_rng(2)
        for _ in range(2):
            adam_step(net, wide_grads(net, rng), state, lr=1e-3)
        for layer in range(3):
            for which in range(2):
                grads = backward(net, PointSet(rng.normal(size=(5, 2))), rng.normal(size=(5, 2)))
                grads[layer][which].flat[-1] = bad
                before = [net.params.copy(), state.m.flat.copy(), state.v.flat.copy()]
                with pytest.raises(NonFiniteGradient, match=f"layer {layer} at Adam step 3"):
                    adam_step(net, grads, state, lr=1e-3)
                for got, want in zip([net.params, state.m.flat, state.v.flat], before):
                    assert_same_bits(got, want)
                assert state.t == 2

    def test_rejects_gradients_of_the_wrong_shape(self):
        net = init_mlp([LayerSpec(2, 3)], seed=0)
        state = init_adam(net)
        for grads in ([(np.zeros((3, 2)), np.zeros(1))], [(np.zeros((2, 3)), np.zeros(3))]):
            with pytest.raises(SizeMismatch):
                adam_step(net, grads, state, lr=1e-3)
        assert state.t == 0

    def test_deterministic_trajectories(self):
        def run():
            net = init_mlp([LayerSpec(2, 8), LayerSpec(8, 2, Activation.IDENTITY)], seed=3)
            state = init_adam(net)
            rng = np.random.default_rng(9)
            for _ in range(20):
                x = PointSet(rng.normal(size=(4, 2)))
                g = rng.normal(size=(4, 2))
                grads = backward(net, x, g)
                adam_step(net, grads, state, lr=3e-4)
            return np.concatenate([l.weight.ravel() for l in net.layers])

        assert np.array_equal(run(), run())


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = init_mlp(paper_mapper_specs(), seed=21)
        state = init_adam(net)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = PointSet(rng.normal(size=(8, 2)))
            adam_step(net, backward(net, x, rng.normal(size=(8, 2))), state, lr=1e-3)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net, adam=state, extra={"note": "test"})
        bundle = load_checkpoint(path)
        assert bundle.extra == {"note": "test"}
        assert bundle.adam.t == state.t
        for la, lb in zip(net.layers, bundle.net.layers):
            assert la.spec == lb.spec
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
        for (ma, mb), (na, nb) in zip(state.m, bundle.adam.m):
            assert np.array_equal(ma, na)
            assert np.array_equal(mb, nb)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_resume_matches_straight_run(self, tmp_path, dtype):
        specs = [LayerSpec(2, 16), LayerSpec(16, 16, Activation.SIGMOID), LayerSpec(16, 2, Activation.IDENTITY)]
        rng = np.random.default_rng(3)
        batches = [(PointSet(rng.normal(size=(8, 2))), rng.normal(size=(8, 2))) for _ in range(12)]

        def run(net, state, steps):
            for x, g in steps:
                adam_step(net, backward(net, x, g), state, lr=1e-2)

        straight = init_mlp(specs, seed=4, dtype=dtype)
        straight_adam = init_adam(straight)
        run(straight, straight_adam, batches)

        net = init_mlp(specs, seed=4, dtype=dtype)
        state = init_adam(net)
        run(net, state, batches[:5])
        save_checkpoint(tmp_path / "mid.npz", net, adam=state)
        bundle = load_checkpoint(tmp_path / "mid.npz")
        run(bundle.net, bundle.adam, batches[5:])

        assert bundle.adam.t == straight_adam.t == 12
        assert_same_bits(bundle.net.params, straight.params)
        assert_same_bits(bundle.adam.m.flat, straight_adam.m.flat)
        assert_same_bits(bundle.adam.v.flat, straight_adam.v.flat)

    def test_checkpoint_without_adam(self, tmp_path):
        net = init_mlp([LayerSpec(2, 2)], seed=0)
        path = tmp_path / "bare.npz"
        save_checkpoint(path, net)
        bundle = load_checkpoint(path)
        assert bundle.adam is None
        assert np.array_equal(bundle.net.layers[0].weight, net.layers[0].weight)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("w0", lambda a: a.T.copy()),
            ("b1", lambda a: a[:-1]),
            ("w1", lambda a: a.astype(np.float64)),
            ("mw0", lambda a: a[:, :1]),
            ("vb1", lambda a: np.zeros(3, dtype=a.dtype)),
            ("mb0", None),
        ],
        ids=["weight-shape", "bias-shape", "dtype", "first-moment-shape", "second-moment-shape", "missing"],
    )
    def test_rejects_mismatched_arrays(self, tmp_path, key, edit):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net, adam=init_adam(net))
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        if edit is None:
            del arrays[key]
        else:
            arrays[key] = edit(arrays[key])
        np.savez(path, **arrays)
        with pytest.raises(SpecError, match=key):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, meta=np.array('{"format": "something-else"}'))
        with pytest.raises(SpecError):
            load_checkpoint(path)

    @staticmethod
    def _rewrite(path, edit_meta=None, **arrays):
        # Re-save a checkpoint with its metadata edited in place and the
        # given arrays replaced (None drops one).
        with np.load(path) as data:
            saved = {name: data[name] for name in data.files}
        meta = json.loads(str(saved["meta"]))
        if edit_meta is not None:
            edit_meta(meta)
        saved["meta"] = np.array(json.dumps(meta))
        saved.update(arrays)
        np.savez(path, **{name: a for name, a in saved.items() if a is not None})

    def test_loads_older_file_with_rng_state(self, tmp_path):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "old.npz"
        save_checkpoint(path, net, adam=init_adam(net))
        state = np.random.default_rng(1).bit_generator.state
        self._rewrite(path, lambda meta: meta.update(rng_state=state))
        bundle = load_checkpoint(path)
        assert_same_bits(bundle.net.params, net.params)
        assert bundle.adam.t == 0

    def test_rejects_unchained_layers(self, tmp_path):
        # Each array matches its own layer's metadata, but 2->3 cannot feed 9->2.
        net = init_mlp([LayerSpec(2, 3), LayerSpec(3, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        self._rewrite(
            path, lambda meta: meta["layers"][1].update(in_dim=9), w1=np.zeros((2, 9), dtype=np.float32)
        )
        with pytest.raises(SpecError, match="chain"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, bad",
        [("t", "x"), ("t", -3), ("t", 2.5), ("t", True), ("beta1", 1.5), ("beta2", -0.1),
         ("beta1", float("nan")), ("eps", -1.0), ("eps", 0.0), ("eps", float("inf"))],
    )
    def test_rejects_bad_adam_settings_naming_the_file(self, tmp_path, key, bad):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net, adam=init_adam(net))
        self._rewrite(path, lambda meta: meta["adam"].update({key: bad}))
        with pytest.raises(SpecError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage", ["no-meta", "layer-without-slope", "not-npz", "empty", "truncated", "single-array"]
    )
    def test_rejects_malformed_file_naming_it(self, tmp_path, damage):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        if damage == "no-meta":
            self._rewrite(path, meta=None)
        elif damage == "layer-without-slope":
            self._rewrite(path, lambda meta: meta["layers"][0].pop("slope"))
        elif damage == "not-npz":
            path.write_text("in_dim,out_dim\n2,4\n")
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:100])
        else:
            with open(path, "wb") as f:
                np.save(f, net.params)
        with pytest.raises(SpecError, match=re.escape(str(path))):
            load_checkpoint(path)
