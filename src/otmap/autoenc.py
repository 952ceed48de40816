"""Deterministic fully connected autoencoder for the two-step pipeline.

The encoder compresses flattened images to a small latent space, the
decoder reconstructs them through a sigmoid output, and training minimizes
plain mean squared reconstruction error.  No latent regularization of any
kind: the latent distribution keeps whatever shape the data gives it, which
is exactly what the mapping network is later trained to hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import ImageBatch
from .errors import SizeMismatch, SpecError
from .mappers import TrainConfig, _epoch_indices
from .nn import (
    Activation,
    LayerSpec,
    Mlp,
    _backward_from_cache,
    _forward_cached,
    adam_step,
    init_adam,
    init_mlp,
)
from .ot import PointSet


@dataclass(frozen=True)
class AutoencoderSpec:
    """Widths of the encoder stack; the decoder mirrors it.

    The sigmoid output keeps decoded pixels in [0, 1]; an identity output
    is allowed for non-pixel data.
    """

    input_dim: int
    hidden: tuple[int, ...] = (512, 256)
    latent_dim: int = 8
    slope: float = 0.01
    output_activation: Activation = Activation.SIGMOID

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.latent_dim < 1:
            raise SpecError("input_dim and latent_dim must be positive")
        if any(wd < 1 for wd in self.hidden):
            raise SpecError(f"hidden widths must be positive, got {self.hidden}")


def autoencoder_layer_specs(spec: AutoencoderSpec) -> tuple[list[LayerSpec], list[LayerSpec]]:
    """Encoder and decoder layer specs: LeakyReLU hidden stacks, linear
    latent, sigmoid pixels."""
    leaky = lambda i, o: LayerSpec(i, o, Activation.LEAKY_RELU, spec.slope)
    enc_dims = (spec.input_dim, *spec.hidden)
    encoder = [leaky(i, o) for i, o in zip(enc_dims, enc_dims[1:])]
    encoder.append(LayerSpec(enc_dims[-1], spec.latent_dim, Activation.IDENTITY))
    dec_dims = (spec.latent_dim, *reversed(spec.hidden))
    decoder = [leaky(i, o) for i, o in zip(dec_dims, dec_dims[1:])]
    decoder.append(LayerSpec(dec_dims[-1], spec.input_dim, spec.output_activation))
    return encoder, decoder


@dataclass
class AutoencoderResult:
    encoder: Mlp
    decoder: Mlp
    losses: np.ndarray  # per-step minibatch reconstruction MSE


def train_autoencoder(images: ImageBatch, spec: AutoencoderSpec, cfg: TrainConfig) -> AutoencoderResult:
    """Minimize mean squared reconstruction error with Adam minibatches.

    Batches sweep the image set without replacement, reshuffling each
    epoch.  Deterministic per cfg.seed.
    """
    if images.n < 1:
        raise SpecError("cannot train on an empty image batch")
    if images.pixels.shape[1] != spec.input_dim:
        raise SizeMismatch(
            f"autoencoder expects input dim {spec.input_dim}, images have {images.pixels.shape[1]}"
        )
    enc_specs, dec_specs = autoencoder_layer_specs(spec)
    init_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    encoder = init_mlp(enc_specs, seed=int(init_seq[0].generate_state(1)[0]))
    decoder = init_mlp(dec_specs, seed=int(init_seq[1].generate_state(1)[0]))
    batch_rng = np.random.Generator(np.random.PCG64(init_seq[2]))

    adam_enc = init_adam(encoder)
    adam_dec = init_adam(decoder)
    batches = _epoch_indices(images.n, min(cfg.batch_k, images.n), batch_rng)
    losses = np.empty(cfg.steps)
    for step, idx in zip(range(cfg.steps), batches):
        x = images.pixels[idx]
        latent, enc_cache = _forward_cached(encoder, x)
        recon, dec_cache = _forward_cached(decoder, latent)
        diff = recon.astype(np.float64) - x
        losses[step] = float(np.einsum("ij,ij->", diff, diff) / diff.size)
        out_grad = (2.0 / diff.size) * diff
        dec_grads, latent_grad = _backward_from_cache(decoder, dec_cache, out_grad)
        enc_grads, _ = _backward_from_cache(encoder, enc_cache, latent_grad, input_grad=False)
        adam_step(decoder, dec_grads, adam_dec, cfg.lr)
        adam_step(encoder, enc_grads, adam_enc, cfg.lr)
    return AutoencoderResult(encoder=encoder, decoder=decoder, losses=losses)


def encode(encoder: Mlp, images: ImageBatch, chunk: int = 4096) -> PointSet:
    """Map images to latent vectors (k = n, d = latent dim), ``chunk`` images
    per forward pass."""
    if chunk < 1:
        raise SpecError(f"chunk must be >= 1, got {chunk}")
    if images.pixels.shape[1] != encoder.in_dim:
        raise SizeMismatch(
            f"encoder expects input dim {encoder.in_dim}, images have {images.pixels.shape[1]}"
        )
    outs = []
    for start in range(0, images.n, chunk):
        block, _ = _forward_cached(encoder, images.pixels[start : start + chunk])
        outs.append(block.astype(np.float64))
    return PointSet(np.concatenate(outs))


def decode(decoder: Mlp, latents: PointSet, image_shape: tuple[int, int, int] | None = None) -> ImageBatch:
    """Map latent vectors back to images; sigmoid output keeps pixels in [0, 1].

    ``image_shape`` is (h, w, c); by default the output dimension is assumed
    to be a square single-channel image.
    """
    if latents.d != decoder.in_dim:
        raise SizeMismatch(f"decoder expects latent dim {decoder.in_dim}, got {latents.d}")
    if image_shape is None:
        side = int(round(np.sqrt(decoder.out_dim)))
        if side * side != decoder.out_dim:
            raise SpecError(
                f"output dim {decoder.out_dim} is not square; pass image_shape=(h, w, c)"
            )
        image_shape = (side, side, 1)
    h, w, c = image_shape
    if h * w * c != decoder.out_dim:
        raise SizeMismatch(f"image shape {image_shape} inconsistent with output dim {decoder.out_dim}")
    pixels, _ = _forward_cached(decoder, latents.data)
    return ImageBatch(pixels=np.clip(pixels, 0.0, 1.0), h=h, w=w, c=c)
