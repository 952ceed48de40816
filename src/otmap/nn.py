"""Minimal dense feed-forward networks with analytic backprop and Adam.

Everything a mapping network or autoencoder needs and nothing more: layers
are (weight, bias, activation) triples, gradients are computed by hand, and
the only optimizer is Adam with bias correction.  No autodiff graph, no
convolutions.

Training tensors default to float32; gradient-check tests build float64
networks via the ``dtype`` argument.  All operations are deterministic for
a fixed seed and data order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import NonFiniteGradient, SizeMismatch, SpecError
from .ot import PointSet


class Activation(Enum):
    LEAKY_RELU = "leaky_relu"
    IDENTITY = "identity"
    SIGMOID = "sigmoid"


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity of one dense layer.

    ``slope`` is the negative-side slope of LeakyReLU and is ignored by the
    other activations; it must lie in (0, 1).
    """

    in_dim: int
    out_dim: int
    activation: Activation = Activation.LEAKY_RELU
    slope: float = 0.01

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise SpecError(f"layer dims must be positive, got {self.in_dim} -> {self.out_dim}")
        if not (0.0 < self.slope < 1.0):
            raise SpecError(f"leaky slope must lie in (0, 1), got {self.slope}")


@dataclass
class Layer:
    """One dense layer: weight (out, in), bias (out,), and its spec."""

    weight: np.ndarray
    bias: np.ndarray
    spec: LayerSpec


@dataclass
class Mlp:
    """Feed-forward network parameters.

    Mutable training state: a single trainer owns an Mlp at a time.
    Forward passes on an Mlp nobody is mutating are safe from any thread.
    """

    layers: list[Layer]

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].spec.out_dim

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].weight.dtype

    @property
    def param_count(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)


# Parameter gradients mirror the layer list: one (dW, db) pair per layer.
ParamGrads = list[tuple[np.ndarray, np.ndarray]]


def init_mlp(specs: list[LayerSpec], seed: int, dtype: type = np.float32) -> Mlp:
    """Build a network with uniform fan-in-scaled weights and zero biases.

    Weights are drawn uniformly from +-sqrt(6 / fan_in) (He-style scaling
    for the LeakyReLU stacks used here).  Deterministic per seed.
    """
    if not specs:
        raise SpecError("need at least one layer spec")
    for prev, cur in zip(specs, specs[1:]):
        if prev.out_dim != cur.in_dim:
            raise SpecError(
                f"layer dims do not chain: {prev.in_dim}->{prev.out_dim} followed by "
                f"{cur.in_dim}->{cur.out_dim}"
            )
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        bound = np.sqrt(6.0 / spec.in_dim)
        w = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim)).astype(dtype)
        b = np.zeros(spec.out_dim, dtype=dtype)
        layers.append(Layer(weight=w, bias=b, spec=spec))
    return Mlp(layers=layers)


def _apply_activation(z: np.ndarray, spec: LayerSpec) -> np.ndarray:
    if spec.activation is Activation.LEAKY_RELU:
        return np.where(z > 0, z, spec.slope * z)
    if spec.activation is Activation.SIGMOID:
        # Branch on sign for stability at large |z|.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return z


def _activation_grad_from_output(a: np.ndarray, spec: LayerSpec) -> np.ndarray:
    # LeakyReLU output has the sign of its input, so the post-activation
    # value is enough to pick the branch; sigmoid' = a(1-a).
    if spec.activation is Activation.LEAKY_RELU:
        return np.where(a > 0, np.asarray(1.0, dtype=a.dtype), np.asarray(spec.slope, dtype=a.dtype))
    if spec.activation is Activation.SIGMOID:
        return a * (1.0 - a)
    return np.ones_like(a)


def _forward_cached(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass in the net's dtype; returns output and per-layer activations.

    ``cache[0]`` is the input, ``cache[i]`` the output of layer i-1.
    """
    h = np.ascontiguousarray(x, dtype=net.dtype)
    cache = [h]
    for layer in net.layers:
        z = h @ layer.weight.T + layer.bias
        h = _apply_activation(z, layer.spec)
        cache.append(h)
    return h, cache


def forward(net: Mlp, batch: PointSet) -> PointSet:
    """Map a point set through the network; output is k x out_dim."""
    if batch.d != net.in_dim:
        raise SizeMismatch(f"network expects input dim {net.in_dim}, got {batch.d}")
    out, _ = _forward_cached(net, batch.data)
    return PointSet(out)


def _backward_from_cache(
    net: Mlp, cache: list[np.ndarray], output_grad: np.ndarray
) -> tuple[ParamGrads, np.ndarray]:
    """Backprop dL/d(output) through cached activations.

    Returns per-layer (dW, db) plus the gradient with respect to the input,
    which lets callers chain networks (decoder into encoder).
    """
    g = np.ascontiguousarray(output_grad, dtype=net.dtype)
    if g.shape != cache[-1].shape:
        raise SizeMismatch(f"output_grad shape {g.shape} does not match output {cache[-1].shape}")
    grads: ParamGrads = [None] * len(net.layers)  # type: ignore[list-item]
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        gz = g * _activation_grad_from_output(cache[i + 1], layer.spec)
        grads[i] = (gz.T @ cache[i], gz.sum(axis=0))
        g = gz @ layer.weight
    return grads, g


def backward(net: Mlp, batch: PointSet, output_grad: np.ndarray) -> ParamGrads:
    """Gradients of L = sum(output_grad * forward(net, batch)) for all params."""
    if batch.d != net.in_dim:
        raise SizeMismatch(f"network expects input dim {net.in_dim}, got {batch.d}")
    _, cache = _forward_cached(net, batch.data)
    grads, _ = _backward_from_cache(net, cache, output_grad)
    return grads


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the step counter."""

    m: ParamGrads
    v: ParamGrads
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(net: Mlp, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    zeros = lambda: [
        (np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in net.layers
    ]
    return AdamState(m=zeros(), v=zeros(), beta1=beta1, beta2=beta2, eps=eps)


def adam_step(net: Mlp, grads: ParamGrads, state: AdamState, lr: float) -> tuple[Mlp, AdamState]:
    """One bias-corrected Adam update, in place; returns the updated pair.

    Raises :class:`NonFiniteGradient` before touching any parameter if a
    gradient entry is NaN or infinite.
    """
    if lr <= 0:
        raise SpecError(f"learning rate must be positive, got {lr}")
    if len(grads) != len(net.layers):
        raise SizeMismatch(f"got {len(grads)} gradient pairs for {len(net.layers)} layers")
    for i, (gw, gb) in enumerate(grads):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NonFiniteGradient(f"non-finite gradient in layer {i} at Adam step {state.t + 1}")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(net.layers, grads, state.m, state.v):
        for param, g, m, v in ((layer.weight, gw, mw, vw), (layer.bias, gb, mb, vb)):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * np.square(g)
            param -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return net, state


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "otmap-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class CheckpointBundle:
    """Everything a resumed or reused run needs from disk."""

    net: Mlp
    adam: AdamState | None = None
    rng_state: dict | None = None
    extra: dict = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    net: Mlp,
    adam: AdamState | None = None,
    rng_state: dict | None = None,
    extra: dict | None = None,
) -> None:
    """Write a versioned .npz checkpoint; round-trips bit-exactly."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": np.dtype(net.dtype).name,
        "layers": [
            {
                "in_dim": l.spec.in_dim,
                "out_dim": l.spec.out_dim,
                "activation": l.spec.activation.value,
                "slope": l.spec.slope,
            }
            for l in net.layers
        ],
        "adam": None
        if adam is None
        else {"t": adam.t, "beta1": adam.beta1, "beta2": adam.beta2, "eps": adam.eps},
        "rng_state": rng_state,
        "extra": extra or {},
    }
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        arrays[f"w{i}"] = layer.weight
        arrays[f"b{i}"] = layer.bias
    if adam is not None:
        for i, ((mw, mb), (vw, vb)) in enumerate(zip(adam.m, adam.v)):
            arrays[f"mw{i}"], arrays[f"mb{i}"] = mw, mb
            arrays[f"vw{i}"], arrays[f"vb{i}"] = vw, vb
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def _checked(data, key: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    if key not in data.files:
        raise SpecError(f"checkpoint is missing array {key!r}")
    arr = data[key]
    if arr.shape != shape:
        raise SpecError(f"checkpoint array {key!r} has shape {arr.shape}, expected {shape}")
    if arr.dtype != dtype:
        raise SpecError(f"checkpoint array {key!r} has dtype {arr.dtype}, expected {dtype}")
    return arr


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Every array must have the shape its layer metadata gives (Adam moments
    that of their parameter) and the dtype ``meta["dtype"]`` names, else
    :class:`SpecError` naming the array.
    """
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise SpecError(f"{path}: not an otmap checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise SpecError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        dtype = np.dtype(meta["dtype"])
        layers = []
        for i, ls in enumerate(meta["layers"]):
            spec = LayerSpec(
                in_dim=ls["in_dim"],
                out_dim=ls["out_dim"],
                activation=Activation(ls["activation"]),
                slope=ls["slope"],
            )
            weight = _checked(data, f"w{i}", (spec.out_dim, spec.in_dim), dtype)
            bias = _checked(data, f"b{i}", (spec.out_dim,), dtype)
            layers.append(Layer(weight=weight, bias=bias, spec=spec))
        net = Mlp(layers=layers)

        def moments(prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
            return [
                (_checked(data, f"{prefix}w{i}", l.weight.shape, dtype),
                 _checked(data, f"{prefix}b{i}", l.bias.shape, dtype))
                for i, l in enumerate(layers)
            ]

        adam = None
        if meta["adam"] is not None:
            a = meta["adam"]
            adam = AdamState(
                m=moments("m"),
                v=moments("v"),
                t=a["t"],
                beta1=a["beta1"],
                beta2=a["beta2"],
                eps=a["eps"],
            )
        return CheckpointBundle(net=net, adam=adam, rng_state=meta["rng_state"], extra=meta["extra"])
