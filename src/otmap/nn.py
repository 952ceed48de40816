"""Minimal dense feed-forward networks with analytic backprop and Adam.

Everything a mapping network or autoencoder needs and nothing more: layers
are (weight, bias, activation) triples, gradients are computed by hand, and
the only optimizer is Adam with bias correction.  No autodiff graph, no
convolutions.

A network is its layer specs plus one flat vector.  An :class:`Mlp`
keeps all its weights and biases in one contiguous vector, ``params``,
laid out layer after layer as the weight (row-major) then the bias; it is
the one place that knows that layout, and each layer's ``weight`` and
``bias`` are its views into ``params``.  A gradient is an :class:`Mlp` of
the same specs whose layers hold dW and db (the trainers reuse one across
steps), Adam keeps its two moments as two more vectors of that layout, and
one Adam update is a fixed sequence of in-place operations over those
vectors.  The arithmetic is that of the textbook per-array forms, operation
for operation, so the flat layout changes no result bit.

The public API is the network itself: build, forward, checkpoint.
Training goes through the trainers in ``mappers`` and ``autoenc``, whose
shared step, ``mappers._fit``, owns Adam's state (``_Adam``) for the
run and is the one caller of :func:`adam_step`.

Parameters are float32 or float64: networks start as float32, and
gradient-check tests build float64 ones from a cast vector.  All operations
are deterministic for a fixed seed and data order.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteGradient, OtmapError, SizeMismatch, SpecError, _count, _instance, _seed
from .ot import PointSet


# Negative-side slope of every LeakyReLU.
LEAKY_SLOPE = 0.01


class Activation(Enum):
    LEAKY_RELU = "leaky_relu"
    IDENTITY = "identity"
    SIGMOID = "sigmoid"


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity of one dense layer.

    ``activation`` is an :class:`Activation` or its value, such as
    ``"leaky_relu"``; anything else raises :class:`SpecError`.  LeakyReLU's
    negative-side slope is ``LEAKY_SLOPE``.  The activation is stored as the
    :class:`Activation` and the dims as ``int``, so NumPy integers save to a
    checkpoint.
    """

    in_dim: int
    out_dim: int
    activation: Activation = Activation.LEAKY_RELU

    def __post_init__(self) -> None:
        object.__setattr__(self, "in_dim", _count(self.in_dim, "layer in_dim"))
        object.__setattr__(self, "out_dim", _count(self.out_dim, "layer out_dim"))
        try:
            object.__setattr__(self, "activation", Activation(self.activation))
        except ValueError:
            raise SpecError(
                f"unknown activation {self.activation!r}, expected one of {[a.value for a in Activation]}"
            ) from None


class Layer(NamedTuple):
    """One dense layer: weight (out, in), bias (out,), and its spec."""

    weight: np.ndarray
    bias: np.ndarray
    spec: LayerSpec


def _param_count(specs) -> int:
    return sum(s.out_dim * s.in_dim + s.out_dim for s in specs)


def _layer_specs(specs) -> tuple[LayerSpec, ...]:
    # ``specs`` as a tuple; SpecError unless it is an iterable of LayerSpecs.
    try:
        found = tuple(specs)
    except TypeError:
        found = None
    if found is None or not all(isinstance(s, LayerSpec) for s in found):
        raise SpecError(f"layer specs must be an iterable of LayerSpec, got {specs!r}")
    return found


@dataclass(eq=False)
class Mlp:
    """A network: its layer specs plus one flat parameter vector.

    ``params`` must be a 1-D, C-contiguous, writable float32 or float64
    vector holding exactly the specs' weights and biases; the net adopts it
    without a copy.  ``layers`` holds one :class:`Layer` per spec whose
    ``weight`` and ``bias`` are views into ``params``, so writing either (in
    place) or ``params`` changes the same numbers.  Specs that are not an
    iterable of :class:`LayerSpec`, no specs, or specs whose input dimension
    is not the previous output dimension raise :class:`SpecError`, as does
    a vector of another kind or dtype (Adam's 1e-8 offset rounds to zero in
    float16); a vector of another length raises :class:`SizeMismatch`.

    Mutable training state: a single trainer owns an Mlp at a time.
    Forward passes on an Mlp nobody is mutating are safe from any thread.
    """

    specs: tuple[LayerSpec, ...]
    params: np.ndarray = field(repr=False)
    layers: tuple[Layer, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.specs = _layer_specs(self.specs)
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
            isinstance(p, np.ndarray) and p.ndim == 1 and p.dtype in (np.float32, np.float64)
            and p.flags.c_contiguous and p.flags.writeable
        ):
            raise SpecError("'params' must be a 1-D, C-contiguous, writable float32 or float64 vector")
        if p.size != (n := _param_count(self.specs)):
            raise SizeMismatch(f"'params' has {p.size} entries, the layers hold {n}")
        layers, pos = [], 0
        for s in self.specs:
            w = p[pos : pos + s.out_dim * s.in_dim].reshape(s.out_dim, s.in_dim)
            pos += w.size
            layers.append(Layer(w, p[pos : pos + s.out_dim], s))
            pos += s.out_dim
        self.layers = tuple(layers)

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


def init_mlp(specs: list[LayerSpec], seed: int) -> Mlp:
    """Build a float32 network with uniform fan-in-scaled weights and zero biases.

    Weights are drawn uniformly from +-sqrt(6 / fan_in) (He-style scaling
    for the LeakyReLU stacks used here), layer by layer.  Deterministic per
    seed; raises :class:`SpecError` unless ``seed`` is a non-negative integer
    and, as :class:`Mlp` does, for specs it cannot build.
    """
    rng = np.random.default_rng(_seed(seed))
    specs = _layer_specs(specs)
    net = Mlp(specs, np.zeros(_param_count(specs), dtype=np.float32))
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
        return np.maximum(z, LEAKY_SLOPE * z, out=z)
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
        np.maximum(gz, LEAKY_SLOPE, out=gz)
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
    _instance(net, Mlp, "net")
    _instance(batch, PointSet, "batch")
    if batch.d != net.in_dim:
        raise SizeMismatch(f"network expects input dim {net.in_dim}, got {batch.d}")
    out, _ = _forward_cached(net, batch.data)
    return PointSet(out)


def _backward_from_cache(net: Mlp, cache: list[np.ndarray], output_grad: np.ndarray, grads: Mlp) -> Mlp:
    """Backprop dL/d(output) through cached activations.

    Writes each layer's dW and db into ``grads.layers``, an :class:`Mlp` of
    the net's specs, and returns it; the input gradient is never formed.
    """
    g = np.ascontiguousarray(output_grad, dtype=net.dtype)
    if g.shape != cache[-1].shape:
        raise SizeMismatch(f"output_grad shape {g.shape} does not match output {cache[-1].shape}")
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        gz = _activation_backward(g, cache[i + 1], layer.spec)
        np.matmul(gz.T, cache[i], out=grads.layers[i].weight)
        np.sum(gz, axis=0, out=grads.layers[i].bias)
        if i > 0:
            g = gz @ layer.weight
    return grads


def backward(net: Mlp, batch: PointSet, output_grad: np.ndarray) -> Mlp:
    """Gradients of L = sum(output_grad * forward(net, batch)) for all params.

    They come as an :class:`Mlp` of the net's specs: its ``layers`` hold dW
    and db, and its :attr:`Mlp.params` the flat gradient vector.  No trainer
    calls this (``mappers._fit`` runs ``_backward_from_cache`` on its own
    forward cache); the gradient-check tests do, and
    ``benchmarks/tracing.py`` wraps this name in ``nn``.
    """
    _instance(net, Mlp, "net")
    _instance(batch, PointSet, "batch")
    if batch.d != net.in_dim:
        raise SizeMismatch(f"network expects input dim {net.in_dim}, got {batch.d}")
    _, cache = _forward_cached(net, batch.data)
    return _backward_from_cache(net, cache, output_grad, Mlp(net.specs, np.empty_like(net.params)))


# Adam sweeps its flat vectors in blocks of this many entries: the block's
# slices of the five vectors it touches then stay in cache between the
# update's operations, and the scratch needs only two rows of this size.
_ADAM_BLOCK = 65536
# Adam's decay rates and denominator offset: Kingma & Ba's (2015) defaults.
_B1, _B2, _EPS = 0.9, 0.999, 1e-8


class _Adam:
    """Adam's moments ``m`` and ``v``, laid out like ``params``, its step count
    ``t`` and a two-row scratch.  ``mappers._fit`` builds one per run."""

    def __init__(self, params: np.ndarray) -> None:
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self.scratch = np.empty((2, min(params.size, _ADAM_BLOCK)), dtype=params.dtype)


def adam_step(net: Mlp, grads: Mlp, state: _Adam, lr: float) -> None:
    """One bias-corrected Adam update of ``net.params`` and ``state``, in place.

    ``mappers._fit`` is the one caller: it builds ``grads``, an
    :class:`Mlp` of the net's specs and dtype, and ``state`` for the net,
    and ``TrainConfig`` checks ``lr``.  ``benchmarks/tracing.py`` wraps this
    name in ``nn``, ``mappers`` and ``autoenc``.  Raises
    :class:`NonFiniteGradient`, naming the first layer that holds a NaN or
    infinite entry, before any parameter or moment moves.
    """
    _instance(net, Mlp, "net")
    _instance(grads, Mlp, "grads")
    g = grads.params
    # min and max propagate NaN, so two reductions stand in for a mask.
    if not (np.isfinite(g.min()) and np.isfinite(g.max())):
        bad = next(
            i for i, l in enumerate(grads.layers) if not (np.isfinite(l.weight).all() and np.isfinite(l.bias).all())
        )
        raise NonFiniteGradient(f"non-finite gradient in layer {bad} at Adam step {state.t + 1}")
    state.t += 1
    c1 = 1.0 - _B1 ** state.t
    c2 = 1.0 - _B2 ** state.t
    p, m, v = net.params, state.m, state.v
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


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "otmap-checkpoint"
CHECKPOINT_VERSION = 3


def save_checkpoint(path: str | Path, net: Mlp) -> None:
    """Write a versioned npz checkpoint of ``net`` to exactly ``path``; round-trips bit-exactly.

    The archive holds ``meta``, a JSON header with the format, version,
    dtype and layer specs, and ``params``, the net's flat vector.  No
    ``.npz`` suffix is appended: ``save_checkpoint("ckpt", net)`` writes
    ``ckpt``, which ``load_checkpoint("ckpt")`` reads.
    """
    _instance(net, Mlp, "net")
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": net.dtype.name,
        "layers": [{**asdict(spec), "activation": spec.activation.value} for spec in net.specs],
    }
    with open(path, "wb") as f:
        np.savez(f, meta=np.array(json.dumps(meta)), params=net.params)


def load_checkpoint(path: str | Path) -> Mlp:
    """Load the network a :func:`save_checkpoint` file holds.

    Any fault in the file raises :class:`SpecError` naming it: the file is
    not a zip archive, fails its checksum or does not inflate; an array is
    missing, holds Python objects or does not decode; the header is
    malformed, of another format or version; a layer spec is invalid, there
    are none, or they do not chain; ``params`` is not a vector of the specs'
    parameter count in the header's dtype (the error also names the array),
    that dtype is neither float32 nor float64, or a parameter is NaN or
    infinite.  A missing file raises the ``OSError``.

    The net adopts the loaded vector.  Header keys beyond these are ignored.
    """
    with open(path, "rb") as f:
        try:
            with np.lib.npyio.NpzFile(f, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
                    raise SpecError("not an otmap checkpoint")
                if meta.get("version") != CHECKPOINT_VERSION:
                    raise SpecError(f"unsupported checkpoint version {meta.get('version')}")
                specs = [LayerSpec(ls["in_dim"], ls["out_dim"], ls["activation"]) for ls in meta["layers"]]
                params = data.get("params")
                if params is None or params.dtype.name != meta["dtype"]:
                    found = "missing" if params is None else f"of dtype {params.dtype}"
                    raise SpecError(f"checkpoint array 'params' is {found}, the header says {meta['dtype']}")
                # Arrays read from an npz are fresh, writable and C-contiguous, so the net adopts this one.
                net = Mlp(specs, params)
                if not np.isfinite(params).all():
                    raise SpecError("checkpoint array 'params' holds NaN or infinite entries")
                return net
        except (OtmapError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            why = exc if isinstance(exc, OtmapError) else f"unreadable checkpoint: {exc!r}"
            raise SpecError(f"{path}: {why}") from exc
