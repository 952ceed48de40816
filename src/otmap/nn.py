"""Minimal dense feed-forward networks with analytic backprop and Adam.

Everything a mapping network or autoencoder needs and nothing more: layers
are (weight, bias, activation) triples, gradients are computed by hand, and
the only optimizer is Adam with bias correction.  No autodiff graph, no
convolutions.

Storage is flat.  An :class:`Mlp` keeps all its weights and biases in one
contiguous vector, ``params``, laid out layer after layer as the weight
(row-major) then the bias; each layer's ``weight`` and ``bias`` are views
into it.  Backward writes every gradient into one fresh vector of the same
layout (a :class:`ParamGrads`), Adam keeps its two moments as two more, and
one Adam update is a fixed sequence of in-place operations over those
vectors.  The arithmetic is that of the textbook per-array forms, operation
for operation, so the flat layout changes no result bit.

Training tensors default to float32; gradient-check tests build float64
networks via the ``dtype`` argument.  All operations are deterministic for
a fixed seed and data order.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import InitVar, dataclass, field
from enum import Enum
from math import prod
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


Shapes = list[tuple[tuple[int, ...], tuple[int, ...]]]


class ParamGrads(tuple):
    """One (weight-shaped, bias-shaped) array pair per layer, in layer order.

    Every array is a view into ``flat``, one contiguous vector laid out like
    :attr:`Mlp.params`.  Backward returns gradients in this form and
    :class:`AdamState` keeps its moments in it.
    """

    flat: np.ndarray

    def __new__(cls, flat: np.ndarray, shapes: Shapes) -> ParamGrads:
        pairs, pos = [], 0
        for w_shape, b_shape in shapes:
            w = flat[pos : pos + prod(w_shape)].reshape(w_shape)
            pos += w.size
            b = flat[pos : pos + prod(b_shape)].reshape(b_shape)
            pos += b.size
            pairs.append((w, b))
        if pos != flat.size:
            raise SizeMismatch(f"a {flat.size}-entry vector does not hold layers of shapes {shapes}")
        self = super().__new__(cls, pairs)
        self.flat = flat
        return self

    @classmethod
    def packed(cls, pairs, dtype: np.dtype) -> ParamGrads:
        """Copy (weight, bias) array pairs into one new vector of ``dtype``."""
        arrays = [np.asarray(a) for pair in pairs for a in pair]
        flat = np.concatenate([a.ravel() for a in arrays], dtype=dtype)
        return cls(flat, [(w.shape, b.shape) for w, b in zip(arrays[::2], arrays[1::2])])


@dataclass
class Mlp:
    """Feed-forward network parameters.

    Construction packs the layers' arrays into the flat vector ``params``
    and rebinds each ``weight`` and ``bias`` to a view into it: change them
    in place (``layer.weight[:] = ...``), since a rebound array would no
    longer be the one training updates.  Every array must have its spec's
    shape and the first weight's dtype, and each layer's input dimension
    the previous layer's output dimension, else :class:`SpecError` (or
    :class:`SizeMismatch` for an array of the wrong shape).

    Mutable training state: a single trainer owns an Mlp at a time.
    Forward passes on an Mlp nobody is mutating are safe from any thread.
    """

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False, compare=False)
    # init_mlp draws straight into a packed vector; when the layers' arrays
    # are that vector's views, it becomes ``params`` without another copy.
    _packed: InitVar[ParamGrads | None] = None

    def __post_init__(self, _packed: ParamGrads | None = None) -> None:
        if not self.layers:
            raise SpecError("a network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.spec.out_dim != cur.spec.in_dim:
                raise SpecError(
                    f"layer dims do not chain: {prev.spec.in_dim}->{prev.spec.out_dim} followed by "
                    f"{cur.spec.in_dim}->{cur.spec.out_dim}"
                )
        dtype = self.layers[0].weight.dtype
        for i, l in enumerate(self.layers):
            if l.weight.dtype != dtype or l.bias.dtype != dtype:
                raise SpecError(f"layer {i} arrays are {l.weight.dtype}/{l.bias.dtype}, expected {dtype}")
            if l.weight.shape != (l.spec.out_dim, l.spec.in_dim) or l.bias.shape != (l.spec.out_dim,):
                raise SizeMismatch(
                    f"layer {i} arrays have shapes {l.weight.shape}, {l.bias.shape} "
                    f"for a {l.spec.in_dim} -> {l.spec.out_dim} layer"
                )
        pairs = [(l.weight, l.bias) for l in self.layers]
        ids = lambda arrays: [(id(w), id(b)) for w, b in arrays]
        if _packed is None or ids(_packed) != ids(pairs):
            _packed = ParamGrads.packed(pairs, dtype)
        self.params = _packed.flat
        for layer, (w, b) in zip(self.layers, _packed):
            layer.weight, layer.bias = w, b

    # A copy or an unpickled net gets its own flat vector: the layers' arrays
    # arrive as separate copies and are packed again.
    def __getstate__(self) -> dict:
        return {"layers": self.layers}

    def __setstate__(self, state: dict) -> None:
        self.layers = state["layers"]
        self.__post_init__()

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].spec.out_dim

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    @property
    def param_count(self) -> int:
        return self.params.size

    @property
    def shapes(self) -> Shapes:
        return [(l.weight.shape, l.bias.shape) for l in self.layers]


def init_mlp(specs: list[LayerSpec], seed: int, dtype: type = np.float32) -> Mlp:
    """Build a network with uniform fan-in-scaled weights and zero biases.

    Weights are drawn uniformly from +-sqrt(6 / fan_in) (He-style scaling
    for the LeakyReLU stacks used here).  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    shapes = [((spec.out_dim, spec.in_dim), (spec.out_dim,)) for spec in specs]
    packed = ParamGrads(np.zeros(sum(prod(w) + prod(b) for w, b in shapes), dtype=dtype), shapes)
    for spec, (w, _) in zip(specs, packed):
        bound = np.sqrt(6.0 / spec.in_dim)
        # The float64 draw is cast once, straight into the packed vector.
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return Mlp([Layer(weight=w, bias=b, spec=spec) for spec, (w, b) in zip(specs, packed)], packed)


# Both activations are computed without np.where or masked copies: with a
# random sign pattern those branch per entry and cost several times the
# arithmetic.  A 0/1 mask is turned into a float instead and combined by
# np.maximum, which gives the two-branch formulas' exact results.


def _activate(z: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """Apply the activation to the pre-activation ``z`` in place; returns z."""
    if spec.activation is Activation.LEAKY_RELU:
        # slope in (0, 1): slope*z is the larger of the two exactly when z <= 0.
        return np.maximum(z, spec.slope * z, out=z)
    if spec.activation is Activation.SIGMOID:
        # Stable at large |z|: with e = exp(-|z|) in [0, 1], 1/(1+e) for
        # z >= 0 and e/(1+e) below; the numerator max(e, [z >= 0]) is 1 or e.
        num = (z >= 0).astype(z.dtype)
        e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
        np.maximum(e, num, out=num)
        e += 1.0
        return np.divide(num, e, out=e)
    return z


def _activation_backward(g: np.ndarray, a: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """dL/dz from dL/da and the activation's output ``a``.

    LeakyReLU output has the sign of its input, so ``a`` picks the slope,
    max([a > 0], slope) = 1 or slope; sigmoid' = a(1-a).  May return ``g``
    itself, never writes to it.
    """
    if spec.activation is Activation.LEAKY_RELU:
        gz = (a > 0).astype(a.dtype)
        np.maximum(gz, spec.slope, out=gz)
    elif spec.activation is Activation.SIGMOID:
        gz = 1.0 - a
        gz *= a
    else:
        return g
    gz *= g
    return gz


def _forward_cached(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass in the net's dtype; returns output and per-layer activations.

    ``cache[0]`` is the input, ``cache[i]`` the output of layer i-1.
    """
    h = np.ascontiguousarray(x, dtype=net.dtype)
    cache = [h]
    for layer in net.layers:
        z = h @ layer.weight.T
        z += layer.bias
        h = _activate(z, layer.spec)
        cache.append(h)
    return h, cache


def forward(net: Mlp, batch: PointSet) -> PointSet:
    """Map a point set through the network; output is k x out_dim."""
    if batch.d != net.in_dim:
        raise SizeMismatch(f"network expects input dim {net.in_dim}, got {batch.d}")
    out, _ = _forward_cached(net, batch.data)
    return PointSet(out)


def _backward_from_cache(
    net: Mlp, cache: list[np.ndarray], output_grad: np.ndarray, grads: ParamGrads
) -> ParamGrads:
    """Backprop dL/d(output) through cached activations.

    Writes the per-layer (dW, db) into ``grads``, laid out like the net's
    parameters, and returns it; the input gradient is never formed.
    """
    g = np.ascontiguousarray(output_grad, dtype=net.dtype)
    if g.shape != cache[-1].shape:
        raise SizeMismatch(f"output_grad shape {g.shape} does not match output {cache[-1].shape}")
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        gz = _activation_backward(g, cache[i + 1], layer.spec)
        dw, db = grads[i]
        np.matmul(gz.T, cache[i], out=dw)
        np.sum(gz, axis=0, out=db)
        if i > 0:
            g = gz @ layer.weight
    return grads


def backward(net: Mlp, batch: PointSet, output_grad: np.ndarray) -> ParamGrads:
    """Gradients of L = sum(output_grad * forward(net, batch)) for all params."""
    if batch.d != net.in_dim:
        raise SizeMismatch(f"network expects input dim {net.in_dim}, got {batch.d}")
    _, cache = _forward_cached(net, batch.data)
    grads = ParamGrads(np.empty_like(net.params), net.shapes)
    return _backward_from_cache(net, cache, output_grad, grads)


# Adam sweeps its flat vectors in blocks of this many entries: the block's
# slices of the five vectors it touches then stay in cache between the
# update's operations, and the scratch needs only two rows of this size.
_ADAM_BLOCK = 65536


@dataclass
class AdamState:
    """First/second moment buffers plus the step counter.

    ``m`` and ``v`` are laid out like the net's parameters; lists of
    (weight, bias) pairs are packed into :class:`ParamGrads` on construction.
    """

    m: ParamGrads
    v: ParamGrads
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.m, ParamGrads):
            self.m = ParamGrads.packed(self.m, np.asarray(self.m[0][0]).dtype)
        if not isinstance(self.v, ParamGrads):
            self.v = ParamGrads.packed(self.v, self.m.flat.dtype)
        self.scratch = np.empty((2, min(self.m.flat.size, _ADAM_BLOCK)), dtype=self.m.flat.dtype)


def init_adam(net: Mlp, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    zeros = lambda: ParamGrads(np.zeros_like(net.params), net.shapes)
    return AdamState(m=zeros(), v=zeros(), beta1=beta1, beta2=beta2, eps=eps)


def adam_step(net: Mlp, grads: ParamGrads, state: AdamState, lr: float) -> tuple[Mlp, AdamState]:
    """One bias-corrected Adam update, in place; returns the updated pair.

    ``grads`` holds one (dW, db) pair per layer, each of its parameter's
    shape; pairs that are not one :class:`ParamGrads` of the net's dtype are
    first copied into one.  Raises :class:`NonFiniteGradient` before
    touching any parameter if a gradient entry is NaN or infinite.
    """
    if lr <= 0:
        raise SpecError(f"learning rate must be positive, got {lr}")
    if len(grads) != len(net.layers):
        raise SizeMismatch(f"got {len(grads)} gradient pairs for {len(net.layers)} layers")
    for i, ((gw, gb), (w_shape, b_shape)) in enumerate(zip(grads, net.shapes)):
        if np.shape(gw) != w_shape or np.shape(gb) != b_shape:
            raise SizeMismatch(
                f"layer {i} gradients have shapes {np.shape(gw)}, {np.shape(gb)}, expected {w_shape}, {b_shape}"
            )
    if state.m.flat.shape != net.params.shape or state.v.flat.shape != net.params.shape:
        raise SizeMismatch(f"Adam moments hold {state.m.flat.size} entries, the net {net.param_count}")
    if not (isinstance(grads, ParamGrads) and grads.flat.dtype == net.dtype):
        grads = ParamGrads.packed(grads, net.dtype)
    g = grads.flat
    # min and max propagate NaN, so two reductions stand in for a mask.
    if not (np.isfinite(g.min()) and np.isfinite(g.max())):
        bad = next(i for i, (gw, gb) in enumerate(grads) if not (np.isfinite(gw).all() and np.isfinite(gb).all()))
        raise NonFiniteGradient(f"non-finite gradient in layer {bad} at Adam step {state.t + 1}")
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    p, m, v = net.params, state.m.flat, state.v.flat
    for lo in range(0, p.size, _ADAM_BLOCK):
        hi = lo + _ADAM_BLOCK
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        num, den = state.scratch[:, : pb.size]
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2;
        # param -= lr*(m/c1) / (sqrt(v/c2) + eps), operation for operation.
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=num)
        mb += num
        vb *= b2
        np.square(gb, out=num)
        num *= 1.0 - b2
        vb += num
        np.divide(mb, c1, out=num)
        num *= lr
        np.divide(vb, c2, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        pb -= num
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
    extra: dict = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    net: Mlp,
    adam: AdamState | None = None,
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


def _valid_adam_settings(t: object, beta1: object, beta2: object, eps: object) -> bool:
    # JSON true/false load as bool, an int subclass; neither is a count or a rate.
    def number(x: object) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    return (
        number(t) and isinstance(t, int) and t >= 0
        and all(number(b) and 0 <= b < 1 for b in (beta1, beta2))
        and number(eps) and np.isfinite(eps) and eps > 0
    )


def _read_meta(data, path: str | Path) -> tuple[np.dtype, list[LayerSpec], dict | None, dict]:
    # The checkpoint's JSON header as (dtype, layer specs, Adam settings or
    # None, extra); any missing or mistyped entry is a SpecError naming the file.
    try:
        meta = json.loads(str(data["meta"]))
        if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
            raise SpecError(f"{path}: not an otmap checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise SpecError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        specs = [
            LayerSpec(
                in_dim=ls["in_dim"],
                out_dim=ls["out_dim"],
                activation=Activation(ls["activation"]),
                slope=ls["slope"],
            )
            for ls in meta["layers"]
        ]
        a = meta["adam"]
        adam = None if a is None else {key: a[key] for key in ("t", "beta1", "beta2", "eps")}
        if adam is not None and not _valid_adam_settings(**adam):
            raise SpecError(
                f"{path}: invalid Adam state {adam}: needs an integer t >= 0, "
                "0 <= beta1, beta2 < 1 and a finite eps > 0"
            )
        return np.dtype(meta["dtype"]), specs, adam, meta["extra"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{path}: malformed checkpoint metadata: {exc!r}") from exc


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    """Load a checkpoint written by :func:`save_checkpoint`.

    A file that is not an npz archive, or whose metadata is missing or
    malformed, raises :class:`SpecError` naming the file; so do Adam
    settings that no run produces (t not an integer >= 0, a beta outside
    [0, 1), eps not finite and positive).  Every array must
    have the shape its layer metadata gives (Adam moments that of their
    parameter) and the dtype ``meta["dtype"]`` names, else
    :class:`SpecError` naming the array.  The loaded arrays are copied into
    the net's and the moments' flat vectors.  Keys the metadata carries
    beyond these (such as an older file's ``rng_state``) are ignored.
    """
    with open(path, "rb") as f:
        try:
            data = np.load(f, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise SpecError(f"{path}: not an npz checkpoint: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise SpecError(f"{path}: not an npz checkpoint: holds a single array")
        dtype, specs, adam_meta, extra = _read_meta(data, path)
        layers = [
            Layer(
                weight=_checked(data, f"w{i}", (spec.out_dim, spec.in_dim), dtype),
                bias=_checked(data, f"b{i}", (spec.out_dim,), dtype),
                spec=spec,
            )
            for i, spec in enumerate(specs)
        ]
        net = Mlp(layers=layers)

        def moments(prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
            return [
                (_checked(data, f"{prefix}w{i}", l.weight.shape, dtype),
                 _checked(data, f"{prefix}b{i}", l.bias.shape, dtype))
                for i, l in enumerate(layers)
            ]

        adam = None
        if adam_meta is not None:
            adam = AdamState(m=moments("m"), v=moments("v"), **adam_meta)
        return CheckpointBundle(net=net, adam=adam, extra=extra)
