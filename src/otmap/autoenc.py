"""Deterministic fully connected autoencoder for the two-step pipeline.

The encoder compresses flattened images to a small latent space, the
decoder reconstructs them through a sigmoid output, and training minimizes
plain mean squared reconstruction error.  No latent regularization of any
kind: the latent distribution keeps whatever shape the data gives it, which
is exactly what the mapping network is later trained to hit.

Training runs the mappers' step (``mappers._fit``) on the encoder and
decoder joined into one network whose targets are its own inputs, then
splits the trained network back into the two halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import ImageBatch
from .errors import SizeMismatch, SpecError, _count
from .mappers import TrainConfig, _fit, _frozen_pairs
from .nn import Activation, LayerSpec, Mlp, _forward_cached, _param_count, init_mlp

# Not called here: benchmarks/tracing.py wraps both names in this module and fails without them.
from .nn import _backward_from_cache, adam_step  # noqa: F401
from .ot import PointSet

# Images per encoder forward pass: bounds its activations at this many rows.
_ENCODE_CHUNK = 4096


@dataclass(frozen=True)
class AutoencoderSpec:
    """Widths of the encoder stack; the decoder mirrors it.

    Hidden layers are LeakyReLU, the latent layer is linear, and the sigmoid
    output keeps decoded pixels in [0, 1].  ``hidden`` is stored as a tuple
    of ints; anything but an iterable of integers >= 1 raises :class:`SpecError`.
    """

    input_dim: int
    hidden: tuple[int, ...] = (512, 256)
    latent_dim: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_dim", _count(self.input_dim, "input_dim"))
        object.__setattr__(self, "latent_dim", _count(self.latent_dim, "latent_dim"))
        try:
            widths = iter(self.hidden)
        except TypeError:
            raise SpecError(f"hidden must be an iterable of widths, got {self.hidden!r}") from None
        object.__setattr__(self, "hidden", tuple(_count(width, "hidden width") for width in widths))


def autoencoder_layer_specs(spec: AutoencoderSpec) -> tuple[list[LayerSpec], list[LayerSpec]]:
    """Encoder and decoder layer specs: LeakyReLU hidden stacks, linear
    latent, sigmoid pixels."""
    enc_dims = (spec.input_dim, *spec.hidden)
    encoder = [LayerSpec(i, o) for i, o in zip(enc_dims, enc_dims[1:])]
    encoder.append(LayerSpec(enc_dims[-1], spec.latent_dim, Activation.IDENTITY))
    dec_dims = (spec.latent_dim, *reversed(spec.hidden))
    decoder = [LayerSpec(i, o) for i, o in zip(dec_dims, dec_dims[1:])]
    decoder.append(LayerSpec(dec_dims[-1], spec.input_dim, Activation.SIGMOID))
    return encoder, decoder


@dataclass
class AutoencoderResult:
    encoder: Mlp
    decoder: Mlp
    losses: np.ndarray  # per-step minibatch reconstruction MSE


def train_autoencoder(images: ImageBatch, spec: AutoencoderSpec, cfg: TrainConfig) -> AutoencoderResult:
    """Minimize mean squared reconstruction error with Adam minibatches.

    Batches sweep the image set without replacement, reshuffling each
    epoch.  Deterministic per cfg.seed.  A non-finite gradient raises
    :class:`otmap.errors.NonFiniteGradient` before either half's parameters change.
    """
    if images.pixels.shape[1] != spec.input_dim:
        raise SizeMismatch(
            f"autoencoder expects input dim {spec.input_dim}, images have {images.pixels.shape[1]}"
        )
    enc_specs, dec_specs = autoencoder_layer_specs(spec)
    init_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    enc_seed, dec_seed = (int(s.generate_state(1)[0]) for s in init_seq[:2])
    batch_rng = np.random.Generator(np.random.PCG64(init_seq[2]))
    split = _param_count(enc_specs)
    # Joining copies both halves into one parameter vector; each half's own is freed here.
    net = Mlp(
        enc_specs + dec_specs,
        np.concatenate([init_mlp(enc_specs, seed=enc_seed).params, init_mlp(dec_specs, seed=dec_seed).params]),
    )
    batch_k = min(cfg.batch_k, images.n)
    batches = _frozen_pairs(images.pixels, images.pixels, batch_k, batch_rng)
    result = _fit(net, cfg, batches, batch_k * spec.input_dim)
    return AutoencoderResult(
        Mlp(enc_specs, net.params[:split].copy()), Mlp(dec_specs, net.params[split:].copy()), result.losses
    )


def encode(encoder: Mlp, images: ImageBatch) -> PointSet:
    """Map images to latent vectors (k = n, d = latent dim)."""
    if images.pixels.shape[1] != encoder.in_dim:
        raise SizeMismatch(
            f"encoder expects input dim {encoder.in_dim}, images have {images.pixels.shape[1]}"
        )
    outs = []
    for start in range(0, images.n, _ENCODE_CHUNK):
        block, _ = _forward_cached(encoder, images.pixels[start : start + _ENCODE_CHUNK])
        outs.append(block)
    return PointSet(np.concatenate(outs))


def decode(decoder: Mlp, latents: PointSet) -> ImageBatch:
    """Map latent vectors back to square images, pixels clipped to [0, 1].

    The decoder's output dimension must be a square, else :class:`SpecError`.
    """
    if latents.d != decoder.in_dim:
        raise SizeMismatch(f"decoder expects latent dim {decoder.in_dim}, got {latents.d}")
    side = int(round(np.sqrt(decoder.out_dim)))
    if side * side != decoder.out_dim:
        raise SpecError(f"output dim {decoder.out_dim} is not a square image")
    pixels, _ = _forward_cached(decoder, latents.data)
    return ImageBatch(pixels=np.clip(pixels, 0.0, 1.0), h=side, w=side)
