"""Minimal dense feed-forward networks with analytic backprop and Adam.

Everything a mapping network or autoencoder needs and nothing more: layers
are (weight, bias, activation) triples, gradients are computed by hand, and
the only optimizer is Adam with bias correction.  No autodiff graph, no
convolutions.

A network is its layer specs plus one flat vector.  An :class:`Mlp`
keeps all its weights and biases in one contiguous vector, ``params``,
laid out layer after layer as the weight (row-major) then the bias;
:class:`ParamGrads` is the one place that knows that layout, and each
layer's ``weight`` and ``bias`` are its views into ``params``.  Backward
writes every gradient into a vector of the same layout (the trainers reuse
one across steps), Adam keeps its two moments as two more, and one Adam
update is a fixed sequence of in-place operations over those vectors.  The
arithmetic is that of the textbook per-array forms, operation for
operation, so the flat layout changes no result bit.

Training tensors default to float32; gradient-check tests build float64
networks via the ``dtype`` argument.  All operations are deterministic for
a fixed seed and data order.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from enum import Enum
from math import inf, prod
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteGradient, SizeMismatch, SpecError, _count
from .ot import PointSet


class Activation(Enum):
    LEAKY_RELU = "leaky_relu"
    IDENTITY = "identity"
    SIGMOID = "sigmoid"


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity of one dense layer.

    ``activation`` is an :class:`Activation` or its value, such as
    ``"leaky_relu"``; anything else raises :class:`SpecError`.  ``slope``
    is the negative-side slope of LeakyReLU and is ignored by the other
    activations; it must lie in (0, 1).  The activation is stored as the
    :class:`Activation`, the dims as ``int`` and the slope as ``float``, so
    NumPy scalars save to a checkpoint.
    """

    in_dim: int
    out_dim: int
    activation: Activation = Activation.LEAKY_RELU
    slope: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "in_dim", _count(self.in_dim, "layer in_dim", SpecError))
        object.__setattr__(self, "out_dim", _count(self.out_dim, "layer out_dim", SpecError))
        try:
            object.__setattr__(self, "activation", Activation(self.activation))
        except ValueError:
            raise SpecError(
                f"unknown activation {self.activation!r}, expected one of {[a.value for a in Activation]}"
            ) from None
        if not (0.0 < self.slope < 1.0):
            raise SpecError(f"leaky slope must lie in (0, 1), got {self.slope}")
        object.__setattr__(self, "slope", float(self.slope))


class Layer(NamedTuple):
    """One dense layer: weight (out, in), bias (out,), and its spec."""

    weight: np.ndarray
    bias: np.ndarray
    spec: LayerSpec


Shapes = list[tuple[tuple[int, ...], tuple[int, ...]]]


def _shapes(specs) -> Shapes:
    return [((s.out_dim, s.in_dim), (s.out_dim,)) for s in specs]


def _size(shapes: Shapes) -> int:
    return sum(prod(w) + prod(b) for w, b in shapes)


class ParamGrads(tuple):
    """One (weight-shaped, bias-shaped) array pair per layer, in layer order.

    Every array is a view into ``flat``, one contiguous vector laid out like
    :attr:`Mlp.params`; a vector of another size raises :class:`SizeMismatch`.
    A network's layers, its gradients and :class:`AdamState`'s moments all
    take this form.
    """

    flat: np.ndarray

    def __new__(cls, flat: np.ndarray, shapes: Shapes) -> ParamGrads:
        if flat.size != _size(shapes):
            raise SizeMismatch(f"a {flat.size}-entry vector does not hold layers of shapes {shapes}")
        pairs, pos = [], 0
        for w_shape, b_shape in shapes:
            w = flat[pos : pos + prod(w_shape)].reshape(w_shape)
            pos += w.size
            b = flat[pos : pos + prod(b_shape)].reshape(b_shape)
            pos += b.size
            pairs.append((w, b))
        self = super().__new__(cls, pairs)
        self.flat = flat
        return self

    @classmethod
    def packed(cls, pairs, dtype: np.dtype) -> ParamGrads:
        """Copy (weight, bias) array pairs into one new vector of ``dtype``."""
        arrays = [np.asarray(a) for pair in pairs for a in pair]
        flat = np.concatenate([a.ravel() for a in arrays], dtype=dtype)
        return cls(flat, [(w.shape, b.shape) for w, b in zip(arrays[::2], arrays[1::2])])


@dataclass(eq=False)
class Mlp:
    """A network: its layer specs plus one flat parameter vector.

    ``params`` must be a 1-D, C-contiguous, writable float vector holding
    exactly the specs' weights and biases; the net adopts it without a copy.
    ``layers`` holds one :class:`Layer` per spec whose ``weight`` and
    ``bias`` are views into ``params``, so writing either (in place) or
    ``params`` changes the same numbers.  No specs, or specs whose input
    dimension is not the previous output dimension, raise
    :class:`SpecError`, as does a vector of another kind; a vector of
    another length raises :class:`SizeMismatch`.

    Mutable training state: a single trainer owns an Mlp at a time.
    Forward passes on an Mlp nobody is mutating are safe from any thread.
    """

    specs: tuple[LayerSpec, ...]
    params: np.ndarray = field(repr=False)
    layers: tuple[Layer, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        if not self.specs:
            raise SpecError("a network needs at least one layer")
        for prev, cur in zip(self.specs, self.specs[1:]):
            if prev.out_dim != cur.in_dim:
                raise SpecError(
                    f"layer dims do not chain: {prev.in_dim}->{prev.out_dim} followed by "
                    f"{cur.in_dim}->{cur.out_dim}"
                )
        p = self.params
        # On a strided vector reshape would copy, and the layers would stop being views.
        if not (
            isinstance(p, np.ndarray) and p.ndim == 1 and p.dtype.kind == "f"
            and p.flags.c_contiguous and p.flags.writeable
        ):
            raise SpecError("params must be a 1-D, C-contiguous, writable float vector")
        self.layers = tuple(Layer(w, b, s) for (w, b), s in zip(ParamGrads(p, self.shapes), self.specs))

    def __reduce__(self) -> tuple[type[Mlp], tuple]:
        return Mlp, (self.specs, self.params)

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    @property
    def param_count(self) -> int:
        return self.params.size

    @property
    def shapes(self) -> Shapes:
        return _shapes(self.specs)


def init_mlp(specs: list[LayerSpec], seed: int, dtype: type = np.float32) -> Mlp:
    """Build a network with uniform fan-in-scaled weights and zero biases.

    Weights are drawn uniformly from +-sqrt(6 / fan_in) (He-style scaling
    for the LeakyReLU stacks used here), layer by layer.  Deterministic per
    seed.
    """
    rng = np.random.default_rng(seed)
    net = Mlp(specs, np.zeros(_size(_shapes(specs)), dtype=dtype))
    for layer in net.layers:
        bound = np.sqrt(6.0 / layer.spec.in_dim)
        # The float64 draw is cast once, straight into the flat vector.
        layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
    return net


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
# Adam's decay rates and denominator offset: Kingma & Ba's (2015) defaults.
_B1, _B2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment buffers plus the step counter.

    ``m`` and ``v`` are :class:`ParamGrads` laid out like the net's
    parameters.  ``t`` must be an integer >= 0, else :class:`SpecError`.
    """

    m: ParamGrads
    v: ParamGrads
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.m, ParamGrads) and isinstance(self.v, ParamGrads)):
            raise SpecError(f"Adam moments must be ParamGrads, got {type(self.m).__name__}, {type(self.v).__name__}")
        # JSON true/false load as bool, an int subclass, which is no count.
        if not (isinstance(self.t, int) and not isinstance(self.t, bool) and self.t >= 0):
            raise SpecError(f"invalid Adam step count t={self.t!r}: needs an integer t >= 0")
        self.scratch = np.empty((2, min(self.m.flat.size, _ADAM_BLOCK)), dtype=self.m.flat.dtype)


def init_adam(net: Mlp) -> AdamState:
    zeros = lambda: ParamGrads(np.zeros_like(net.params), net.shapes)
    return AdamState(m=zeros(), v=zeros())


def adam_step(net: Mlp, grads: ParamGrads, state: AdamState, lr: float) -> tuple[Mlp, AdamState]:
    """One bias-corrected Adam update, in place; returns the updated pair.

    ``grads`` is a :class:`ParamGrads` (else :class:`SpecError`) laid out
    like the net's parameters, one (dW, db) pair per layer of its
    parameter's shape (else :class:`SizeMismatch`); one of another
    dtype is first copied into the net's.  ``lr`` must be finite and
    positive, else :class:`SpecError`.  Raises :class:`NonFiniteGradient`
    before touching any parameter if a gradient entry is NaN or infinite.
    """
    if not 0 < lr < inf:
        raise SpecError(f"learning rate must be finite and positive, got {lr}")
    if not isinstance(grads, ParamGrads):
        raise SpecError(f"gradients must be ParamGrads, got {type(grads).__name__}")
    shapes = [(gw.shape, gb.shape) for gw, gb in grads]
    if shapes != net.shapes:
        raise SizeMismatch(f"gradients have shapes {shapes}, expected {net.shapes}")
    if state.m.flat.shape != net.params.shape or state.v.flat.shape != net.params.shape:
        raise SizeMismatch(f"Adam moments hold {state.m.flat.size} entries, the net {net.param_count}")
    if grads.flat.dtype != net.dtype:
        grads = ParamGrads.packed(grads, net.dtype)
    g = grads.flat
    # min and max propagate NaN, so two reductions stand in for a mask.
    if not (np.isfinite(g.min()) and np.isfinite(g.max())):
        bad = next(i for i, (gw, gb) in enumerate(grads) if not (np.isfinite(gw).all() and np.isfinite(gb).all()))
        raise NonFiniteGradient(f"non-finite gradient in layer {bad} at Adam step {state.t + 1}")
    state.t += 1
    c1 = 1.0 - _B1 ** state.t
    c2 = 1.0 - _B2 ** state.t
    p, m, v = net.params, state.m.flat, state.v.flat
    for lo in range(0, p.size, _ADAM_BLOCK):
        hi = lo + _ADAM_BLOCK
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        num, den = state.scratch[:, : pb.size]
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2;
        # param -= lr*(m/c1) / (sqrt(v/c2) + eps), operation for operation.
        mb *= _B1
        np.multiply(gb, 1.0 - _B1, out=num)
        mb += num
        vb *= _B2
        np.square(gb, out=num)
        num *= 1.0 - _B2
        vb += num
        np.divide(mb, c1, out=num)
        num *= lr
        np.divide(vb, c2, out=den)
        np.sqrt(den, out=den)
        den += _EPS
        num /= den
        pb -= num
    return net, state


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "otmap-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass
class CheckpointBundle:
    """Everything a resumed or reused run needs from disk."""

    net: Mlp
    adam: AdamState | None = None


def save_checkpoint(path: str | Path, net: Mlp, adam: AdamState | None = None) -> None:
    """Write a versioned .npz checkpoint; round-trips bit-exactly.

    The archive holds ``meta``, a JSON header with the dtype, the layer
    specs and Adam's step count; ``params``, the net's flat vector; and,
    when ``adam`` is given, its two moments as the vectors ``m`` and ``v``.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": net.dtype.name,
        "layers": [{**asdict(spec), "activation": spec.activation.value} for spec in net.specs],
        "adam": None if adam is None else {"t": adam.t},
    }
    moments = {} if adam is None else {"m": adam.m.flat, "v": adam.v.flat}
    np.savez(path, meta=np.array(json.dumps(meta)), params=net.params, **moments)


def _checked(data, key: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    if key not in data.files:
        raise SpecError(f"checkpoint is missing array {key!r}")
    arr = data[key]
    if arr.shape != shape:
        raise SpecError(f"checkpoint array {key!r} has shape {arr.shape}, expected {shape}")
    if arr.dtype != dtype:
        raise SpecError(f"checkpoint array {key!r} has dtype {arr.dtype}, expected {dtype}")
    return arr


def _read_meta(data) -> tuple[np.dtype, list[LayerSpec], int | None]:
    # The checkpoint's JSON header as (float dtype, layer specs, Adam's t or
    # None); any missing or mistyped entry is a SpecError.
    try:
        meta = json.loads(str(data["meta"]))
        if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
            raise SpecError("not an otmap checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise SpecError(f"unsupported checkpoint version {meta.get('version')}")
        dtype = np.dtype(meta["dtype"])
        if dtype.kind != "f":
            raise SpecError(f"checkpoint dtype {dtype} is not a float type")
        specs = [
            LayerSpec(
                in_dim=ls["in_dim"],
                out_dim=ls["out_dim"],
                activation=ls["activation"],
                slope=ls["slope"],
            )
            for ls in meta["layers"]
        ]
        if not specs:
            raise SpecError("checkpoint has no layers")
        a = meta["adam"]
        return dtype, specs, None if a is None else a["t"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed checkpoint metadata: {exc!r}") from exc


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Each of these faults raises :class:`SpecError` naming the file:

    - the file is not an npz archive;
    - its header is missing, malformed, of another format or version, or
      names a dtype that is not a float type;
    - a layer spec is invalid, or the layers do not chain;
    - Adam's step count is not an integer >= 0;
    - ``params``, or ``m`` or ``v`` when the header has Adam's step count,
      is not a vector of the specs' parameter count in the header's dtype
      (the error also names the array).

    The net and the moments adopt the loaded vectors.  Header keys beyond
    these are ignored.
    """
    with open(path, "rb") as f:
        try:
            try:
                data = np.load(f, allow_pickle=False)
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise SpecError(f"not an npz checkpoint: {exc}") from exc
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise SpecError("not an npz checkpoint: holds a single array")
            dtype, specs, t = _read_meta(data)
            shape = (_size(_shapes(specs)),)
            # Arrays read from an npz are fresh, writable and C-contiguous, so they can be adopted.
            net = Mlp(specs, _checked(data, "params", shape, dtype))
            if t is None:
                return CheckpointBundle(net)
            m, v = (ParamGrads(_checked(data, key, shape, dtype), net.shapes) for key in ("m", "v"))
            return CheckpointBundle(net, AdamState(m, v, t))
        except SpecError as exc:
            raise SpecError(f"{path}: {exc}") from exc
