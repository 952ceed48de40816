"""Network construction, forward/backward correctness, Adam, checkpoints."""

import copy
import json
import pickle
import re
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otmap.errors import NonFiniteGradient, SizeMismatch, SpecError
from otmap.nn import (
    _ADAM_BLOCK,
    _Adam,
    Activation,
    LEAKY_SLOPE,
    LayerSpec,
    Mlp,
    _activate,
    _activation_backward,
    _forward_cached,
    adam_step,
    backward,
    forward,
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
                h = np.array([v if v > 0 else LEAKY_SLOPE * v for v in z])
            elif layer.spec.activation is Activation.SIGMOID:
                h = 1.0 / (1.0 + np.exp(-z))
            else:
                h = z
        out[r] = h
    return out


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
        return np.where(z > 0, z, LEAKY_SLOPE * z)
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
        return g * np.where(a > 0, np.asarray(1.0, dtype=a.dtype), np.asarray(LEAKY_SLOPE, dtype=a.dtype))
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


def init_mlp64(specs, seed: int) -> Mlp:
    """The net init_mlp builds, its vector cast to float64."""
    return Mlp(specs, init_mlp(specs, seed).params.astype(np.float64))


def grads_of(net: Mlp, pairs) -> Mlp:
    """(dW, db) array pairs as Adam takes them: an Mlp of the net's specs, in its dtype."""
    return Mlp(net.specs, np.concatenate([np.ravel(a) for pair in pairs for a in pair], dtype=net.dtype))


def wide_grads(net: Mlp, rng: np.random.Generator) -> Mlp:
    """Random gradients whose magnitudes span 1e-3 to 1e3, in the net's dtype."""
    return grads_of(
        net,
        [
            tuple(rng.normal(size=p.shape) * 10.0 ** rng.uniform(-3, 3, size=p.shape) for p in (l.weight, l.bias))
            for l in net.layers
        ],
    )


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

    def test_activation_given_by_value_is_the_member(self, tmp_path):
        by_value = init_mlp([LayerSpec(2, 3, "leaky_relu")], seed=0)
        by_member = init_mlp([LayerSpec(2, 3, Activation.LEAKY_RELU)], seed=0)
        x = PointSet(np.random.default_rng(1).normal(size=(8, 2)) * 5.0)
        assert by_value.specs[0].activation is Activation.LEAKY_RELU
        assert_same_bits(forward(by_value, x).data, forward(by_member, x).data)
        save_checkpoint(tmp_path / "net.npz", by_value)
        assert load_checkpoint(tmp_path / "net.npz").specs == by_member.specs

    @pytest.mark.parametrize("activation", ["relu", None])
    def test_rejects_unknown_activation(self, activation):
        with pytest.raises(SpecError, match="activation"):
            LayerSpec(2, 3, activation)

    def test_bias_starts_zero(self):
        net = init_mlp([LayerSpec(3, 4)], seed=0)
        assert np.array_equal(net.layers[0].bias, np.zeros(4, dtype=np.float32))

    def test_weight_range_follows_fan_in(self):
        net = init_mlp([LayerSpec(6, 200)], seed=0)
        bound = np.sqrt(6.0 / 6)
        assert np.abs(net.layers[0].weight).max() <= bound

    def test_weights_are_the_cast_float64_draws(self):
        specs = [LayerSpec(2, 16), LayerSpec(16, 8), LayerSpec(8, 2, Activation.IDENTITY)]
        net = init_mlp(specs, seed=3)
        rng = np.random.default_rng(3)
        for spec, layer in zip(specs, net.layers):
            bound = np.sqrt(6.0 / spec.in_dim)
            expected = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim)).astype(np.float32)
            assert layer.weight.dtype == np.float32
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

    def test_adopts_its_vector_without_a_copy(self):
        specs = (LayerSpec(2, 3), LayerSpec(3, 1))
        v = np.arange(13, dtype=np.float64)
        net = Mlp(specs, v)
        assert net.params is v and net.specs == specs
        np.testing.assert_array_equal(net.layers[1].weight, [[9.0, 10.0, 11.0]])
        v[0] = 42.0
        assert net.layers[0].weight[0, 0] == 42.0

    def test_rejects_no_specs(self):
        with pytest.raises(SpecError, match="at least one layer"):
            Mlp((), np.zeros(0))

    def test_rejects_unchained_specs(self):
        with pytest.raises(SpecError, match="chain"):
            Mlp((LayerSpec(2, 3), LayerSpec(9, 2)), np.zeros(9 + 20))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: init_mlp([(2, 3)], seed=0),
            lambda: Mlp([LayerSpec(2, 2), "x"], np.zeros(6)),
            lambda: init_mlp(LayerSpec(2, 2), seed=0),
        ],
        ids=["init_mlp-tuple", "Mlp-string", "init_mlp-one-spec"],
    )
    def test_rejects_specs_that_are_not_layer_specs(self, build):
        with pytest.raises(SpecError, match="iterable of LayerSpec"):
            build()

    @pytest.mark.parametrize(
        "vector",
        [
            np.zeros((1, 9)),
            np.zeros(9, dtype=np.int64),
            np.zeros(9, dtype=np.float16),
            np.zeros(18)[::2],
            np.zeros(9).tolist(),
            "read-only",
        ],
        ids=["2-d", "integer", "float16", "strided", "list", "read-only"],
    )
    def test_rejects_vectors_it_cannot_view(self, vector):
        if isinstance(vector, str):
            vector = np.zeros(9)
            vector.setflags(write=False)
        with pytest.raises(SpecError, match="params"):
            Mlp((LayerSpec(2, 3),), vector)

    @pytest.mark.parametrize("size", [8, 10])
    def test_rejects_a_vector_of_the_wrong_length(self, size):
        with pytest.raises(SizeMismatch):
            Mlp((LayerSpec(2, 3),), np.zeros(size))

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
            state = _Adam(n.params)
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
        assert LEAKY_SLOPE == 0.01
        net = init_mlp64([LayerSpec(1, 1, Activation.LEAKY_RELU)], seed=0)
        net.layers[0].weight[:] = 1.0
        out = forward(net, PointSet([[-3.0]]))
        assert out.data[0, 0] == pytest.approx(-0.03)

    def test_matches_reference_implementation(self):
        specs = [
            LayerSpec(2, 7, Activation.LEAKY_RELU),
            LayerSpec(7, 5, Activation.SIGMOID),
            LayerSpec(5, 3, Activation.IDENTITY),
        ]
        net = init_mlp64(specs, seed=11)
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
        [LayerSpec(1, 1, activation) for activation in Activation],
        ids=lambda spec: f"{spec.activation.value}-{LEAKY_SLOPE}",
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
        assert grads.specs == net.specs and not grads.params.any()

    def test_single_linear_layer_closed_form(self):
        net = init_mlp64([LayerSpec(3, 2, Activation.IDENTITY)], seed=1)
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7]])
        grads = backward(net, PointSet(x), g)
        np.testing.assert_allclose(grads.layers[0].weight, g.T @ x, rtol=1e-12)
        np.testing.assert_allclose(grads.layers[0].bias, g[0], rtol=1e-12)

    def _finite_difference_check(self, specs, seed, k, kink_margin=0.0):
        net = init_mlp64(specs, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(k, specs[0].in_dim))
        out_grad = rng.normal(size=(k, specs[-1].out_dim))
        batch = PointSet(x)
        if kink_margin > 0:
            # A central difference across the LeakyReLU kink measures neither
            # side's slope: keep every pre-activation off it by the margin.
            _, cache = _forward_cached(net, x)
            assume(all(
                np.abs(np.where(out > 0, out, out / LEAKY_SLOPE)).min() > kink_margin
                for out, spec in zip(cache[1:], specs)
                if spec.activation is Activation.LEAKY_RELU
            ))

        analytic = backward(net, batch, out_grad).params

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
    @given(x=st.floats(-50, 50), y=st.floats(-50, 50))
    def test_lipschitz_bound(self, x, y):
        f = lambda v: float(_activate(np.array([v]), LayerSpec(1, 1))[0])
        assert abs(f(x) - f(y)) <= abs(x - y) + 1e-12


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        net = init_mlp([LayerSpec(2, 3)], seed=0)
        before = net.layers[0].weight.copy()
        state = _Adam(net.params)
        grads = grads_of(net, [(np.zeros_like(net.layers[0].weight), np.zeros_like(net.layers[0].bias))])
        adam_step(net, grads, state, lr=0.001)
        assert np.array_equal(net.layers[0].weight, before)
        assert state.t == 1

    def test_first_step_magnitude_is_lr(self):
        # Bias-corrected first step: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps') with magnitude ~ lr regardless of g.
        net = init_mlp64([LayerSpec(1, 1, Activation.IDENTITY)], seed=0)
        w0 = float(net.layers[0].weight[0, 0])
        state = _Adam(net.params)
        grads = grads_of(net, [(np.array([[0.5]]), np.array([0.0]))])
        adam_step(net, grads, state, lr=0.001)
        delta = float(net.layers[0].weight[0, 0]) - w0
        assert delta == pytest.approx(-0.001, rel=1e-6)

    def test_step_size_bound(self):
        net = init_mlp([LayerSpec(3, 4), LayerSpec(4, 2)], seed=5)
        state = _Adam(net.params)
        rng = np.random.default_rng(0)
        lr = 0.01
        for _ in range(25):
            before = [l.weight.copy() for l in net.layers]
            grads = grads_of(net, [
                (rng.normal(size=l.weight.shape).astype(np.float32) * 10.0 ** rng.integers(-3, 3),
                 rng.normal(size=l.bias.shape).astype(np.float32))
                for l in net.layers
            ])
            adam_step(net, grads, state, lr=lr)
            for layer, prev in zip(net.layers, before):
                assert np.abs(layer.weight - prev).max() <= 10 * lr

    def test_non_finite_gradient_aborts(self):
        net = init_mlp([LayerSpec(2, 2)], seed=0)
        state = _Adam(net.params)
        grads = grads_of(net, [(np.full_like(net.layers[0].weight, np.nan), np.zeros_like(net.layers[0].bias))])
        with pytest.raises(NonFiniteGradient):
            adam_step(net, grads, state, lr=0.001)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_array_reference(self, dtype):
        # 300 * 300 weights put the second layer across an Adam block boundary.
        specs = [LayerSpec(4, 300), LayerSpec(300, 300), LayerSpec(300, 3, Activation.IDENTITY)]
        assert init_mlp(specs, seed=0).param_count > _ADAM_BLOCK
        net = Mlp(specs, init_mlp(specs, seed=8).params.astype(dtype))
        params = [p.copy() for l in net.layers for p in (l.weight, l.bias)]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = _Adam(net.params)
        rng = np.random.default_rng(9)
        for t in range(1, 51):
            grads = wide_grads(net, rng)
            adam_step(net, grads, state, lr=1e-3)
            reference_adam(params, [g for l in grads.layers for g in (l.weight, l.bias)], m, v, t, lr=1e-3)
        assert state.t == 50
        for got, want in zip([net.params, state.m, state.v], [params, m, v]):
            assert_same_bits(got, np.concatenate([a.ravel() for a in want]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_its_layer(self, bad):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=1)
        state = _Adam(net.params)
        rng = np.random.default_rng(2)
        for _ in range(2):
            adam_step(net, wide_grads(net, rng), state, lr=1e-3)
        for layer in range(3):
            for which in range(2):
                grads = backward(net, PointSet(rng.normal(size=(5, 2))), rng.normal(size=(5, 2)))
                grads.layers[layer][which].flat[-1] = bad
                before = [net.params.copy(), state.m.copy(), state.v.copy()]
                with pytest.raises(NonFiniteGradient, match=f"layer {layer} at Adam step 3"):
                    adam_step(net, grads, state, lr=1e-3)
                for got, want in zip([net.params, state.m, state.v], before):
                    assert_same_bits(got, want)
                assert state.t == 2

    def test_deterministic_trajectories(self):
        def run():
            net = init_mlp([LayerSpec(2, 8), LayerSpec(8, 2, Activation.IDENTITY)], seed=3)
            state = _Adam(net.params)
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
        state = _Adam(net.params)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = PointSet(rng.normal(size=(8, 2)))
            adam_step(net, backward(net, x, rng.normal(size=(8, 2))), state, lr=1e-3)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path)
        for la, lb in zip(net.layers, loaded.layers):
            assert la.spec == lb.spec
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_checkpoint_without_adam(self, tmp_path):
        # A checkpoint is the net alone: a header and the flat parameters, no optimizer state.
        net = init_mlp64([LayerSpec(2, 2)], seed=0)
        path = tmp_path / "bare.npz"
        save_checkpoint(path, net)
        with np.load(path) as data:
            assert sorted(data.files) == ["meta", "params"]
            assert json.loads(str(data["meta"])) == {
                "format": "otmap-checkpoint",
                "version": 3,
                "dtype": "float64",
                "layers": [{"in_dim": 2, "out_dim": 2, "activation": "leaky_relu"}],
            }
        assert_same_bits(load_checkpoint(path).params, net.params)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("params", lambda a: a[:-1]),
            ("params", lambda a: a[None]),
            ("params", lambda a: a.astype(np.float64)),
            ("params", None),
        ],
        ids=["params-length", "params-rank", "dtype", "missing"],
    )
    def test_rejects_mismatched_arrays(self, tmp_path, key, edit):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        if edit is None:
            del arrays[key]
        else:
            arrays[key] = edit(arrays[key])
        np.savez(path, **arrays)
        with pytest.raises(SpecError, match=f"{re.escape(str(path))}: .*'{key}'"):
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

    def test_ignores_unknown_header_keys(self, tmp_path):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "old.npz"
        save_checkpoint(path, net)
        state = np.random.default_rng(1).bit_generator.state
        self._rewrite(path, lambda meta: meta.update(rng_state=state))
        assert_same_bits(load_checkpoint(path).params, net.params)

    def test_rejects_unchained_layers(self, tmp_path):
        # Swapped, the two layers still hold 15 parameters, but 2->3 cannot feed 2->2.
        net = init_mlp([LayerSpec(2, 2), LayerSpec(2, 3, Activation.IDENTITY)], seed=0)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        self._rewrite(path, lambda meta: meta["layers"].reverse())
        with pytest.raises(SpecError, match=f"{re.escape(str(path))}: .*chain"):
            load_checkpoint(path)

    def test_round_trips_numpy_typed_specs(self, tmp_path):
        specs = [LayerSpec(np.int64(2), np.int32(3)), LayerSpec(np.uint8(3), 1)]
        net = init_mlp(specs, seed=0)
        assert all(type(s.in_dim) is type(s.out_dim) is int for s in net.specs)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        loaded = load_checkpoint(path)
        assert loaded.specs == net.specs == (LayerSpec(2, 3), LayerSpec(3, 1))
        assert_same_bits(loaded.params, net.params)

    def test_writes_exactly_the_given_path(self, tmp_path):
        # No ".npz" is appended, so a path without an extension round-trips.
        net = init_mlp([LayerSpec(2, 3), LayerSpec(3, 1, Activation.IDENTITY)], seed=2)
        path = tmp_path / "ckpt"
        save_checkpoint(path, net)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        loaded = load_checkpoint(str(path))
        assert loaded.specs == net.specs
        assert_same_bits(loaded.params, net.params)

    @pytest.mark.parametrize(
        "damage",
        ["no-meta", "layer-without-activation", "bad-dim", "bad-activation", "no-layers", "int-dtype",
         "float16-dtype", "version-1", "version-2", "not-npz", "empty", "truncated", "single-array",
         "object-params", "bad-crc", "bad-deflate", "nan-params"],
    )
    def test_rejects_malformed_file_naming_it(self, tmp_path, damage):
        net = init_mlp([LayerSpec(2, 4), LayerSpec(4, 2, Activation.IDENTITY)], seed=0)
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        if damage == "no-meta":
            self._rewrite(path, meta=None)
        elif damage == "layer-without-activation":
            self._rewrite(path, lambda meta: meta["layers"][0].pop("activation"))
        elif damage == "bad-dim":
            self._rewrite(path, lambda meta: meta["layers"][0].update(in_dim=-1))
        elif damage == "bad-activation":
            self._rewrite(path, lambda meta: meta["layers"][0].update(activation="relu"))
        elif damage == "no-layers":
            self._rewrite(path, lambda meta: meta.update(layers=[]), params=None)
        elif damage == "int-dtype":
            self._rewrite(path, lambda meta: meta.update(dtype="int64"), params=np.arange(net.param_count))
        elif damage == "float16-dtype":
            self._rewrite(path, lambda meta: meta.update(dtype="float16"), params=net.params.astype(np.float16))
        elif damage == "version-1":
            # The older format: one array per layer weight and bias.
            layers = {f"{k}{i}": a for i, l in enumerate(net.layers) for k, a in (("w", l.weight), ("b", l.bias))}
            self._rewrite(path, lambda meta: meta.update(version=1), params=None, **layers)
        elif damage == "version-2":
            # The format that also held Adam's step count and moments, and a slope per layer.
            def to_version_2(meta):
                meta.update(version=2, adam={"t": 0})
                for layer in meta["layers"]:
                    layer["slope"] = 0.01

            moments = np.zeros(net.param_count, dtype=net.dtype)
            self._rewrite(path, to_version_2, m=moments, v=moments)
        elif damage == "not-npz":
            path.write_text("in_dim,out_dim\n2,4\n")
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:100])
        elif damage == "object-params":
            # np.savez pickles an object array; the loader refuses pickles.
            self._rewrite(path, params=np.array([0.0] * (net.param_count - 1) + [None], dtype=object))
        elif damage == "nan-params":
            # A diverged net saved as is: the header and array are well formed.
            net.params[3] = np.nan
            save_checkpoint(path, net)
        elif damage == "bad-crc":
            raw = bytearray(path.read_bytes())
            raw[raw.index(net.params.tobytes()) + 5] ^= 0x01
            path.write_bytes(bytes(raw))
        elif damage == "bad-deflate":
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
            np.savez_compressed(path, **arrays)
            with zipfile.ZipFile(path) as archive:
                offset = archive.getinfo("params.npy").header_offset
            raw = bytearray(path.read_bytes())
            name_len, extra_len = struct.unpack_from("<HH", raw, offset + 26)
            raw[offset + 30 + name_len + extra_len] = 0xFF  # deflate block type 3 is reserved
            path.write_bytes(bytes(raw))
        else:
            with open(path, "wb") as f:
                np.save(f, net.params)
        with pytest.raises(SpecError, match=re.escape(str(path))):
            load_checkpoint(path)
