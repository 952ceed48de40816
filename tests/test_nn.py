"""Network construction, forward/backward correctness, Adam, checkpoints."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otmap.errors import NonFiniteGradient, SizeMismatch, SpecError
from otmap.nn import (
    Activation,
    LayerSpec,
    Mlp,
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
        rng_state = rng.bit_generator.state
        path = tmp_path / "net.npz"
        save_checkpoint(path, net, adam=state, rng_state=rng_state, extra={"note": "test"})
        bundle = load_checkpoint(path)
        assert bundle.extra == {"note": "test"}
        assert bundle.rng_state == rng_state
        assert bundle.adam.t == state.t
        for la, lb in zip(net.layers, bundle.net.layers):
            assert la.spec == lb.spec
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
        for (ma, mb), (na, nb) in zip(state.m, bundle.adam.m):
            assert np.array_equal(ma, na)
            assert np.array_equal(mb, nb)

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
