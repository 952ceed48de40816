"""Autoencoder training, encoding, and decoding."""

import numpy as np
import pytest
from scipy.optimize import minimize

from otmap import autoenc, mappers
from otmap.autoenc import (
    AutoencoderSpec,
    autoencoder_layer_specs,
    decode,
    encode,
    train_autoencoder,
)
from otmap.datasets import ImageBatch, make_glyphs
from otmap.errors import SizeMismatch, SpecError
from otmap.mappers import TrainConfig, _epoch_indices
from otmap.nn import (
    Activation,
    ParamGrads,
    _activation_backward,
    _forward_cached,
    adam_step,
    init_adam,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
)
from otmap.ot import PointSet


def tiny_images(n=64, h=6, w=6, seed=0):
    rng = np.random.default_rng(seed)
    px = rng.uniform(0.1, 0.9, size=(n, h * w)).astype(np.float32)
    return ImageBatch(pixels=px, h=h, w=w)


def backward_with_input_grad(net, cache, output_grad):
    # Every layer's (dW, db), packed like the net's parameters, and the
    # gradient wrt the net's input.
    g = np.ascontiguousarray(output_grad, dtype=net.dtype)
    grads = []
    for i in reversed(range(len(net.layers))):
        gz = _activation_backward(g, cache[i + 1], net.layers[i].spec)
        grads.append((gz.T @ cache[i], gz.sum(axis=0)))
        g = gz @ net.layers[i].weight
    return ParamGrads.packed(grads[::-1], net.dtype), g


def two_net_reference(images, spec, cfg):
    """Reference trainer: encoder and decoder as two nets with their own Adam
    states, the decoder's input gradient handed to the encoder by hand."""
    enc_specs, dec_specs = autoencoder_layer_specs(spec)
    init_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    encoder = init_mlp(enc_specs, seed=int(init_seq[0].generate_state(1)[0]))
    decoder = init_mlp(dec_specs, seed=int(init_seq[1].generate_state(1)[0]))
    batch_rng = np.random.Generator(np.random.PCG64(init_seq[2]))
    adam_enc, adam_dec = init_adam(encoder), init_adam(decoder)
    batches = _epoch_indices(images.n, min(cfg.batch_k, images.n), batch_rng)
    losses = np.empty(cfg.steps)
    for step, idx in zip(range(cfg.steps), batches):
        x = images.pixels[idx]
        latent, enc_cache = _forward_cached(encoder, x)
        recon, dec_cache = _forward_cached(decoder, latent)
        diff = recon.astype(np.float64) - x
        losses[step] = float(np.einsum("ij,ij->", diff, diff) / diff.size)
        dec_grads, latent_grad = backward_with_input_grad(decoder, dec_cache, (2.0 / diff.size) * diff)
        enc_grads, _ = backward_with_input_grad(encoder, enc_cache, latent_grad)
        adam_step(decoder, dec_grads, adam_dec, cfg.lr)
        adam_step(encoder, enc_grads, adam_enc, cfg.lr)
    return encoder, decoder, losses


class TestSpecs:
    def test_layer_chain(self):
        spec = AutoencoderSpec(input_dim=784, hidden=(512, 256), latent_dim=8)
        enc, dec = autoencoder_layer_specs(spec)
        assert [s.in_dim for s in enc] == [784, 512, 256]
        assert enc[-1].out_dim == 8 and enc[-1].activation is Activation.IDENTITY
        assert [s.in_dim for s in dec] == [8, 256, 512]
        assert dec[-1].out_dim == 784 and dec[-1].activation is Activation.SIGMOID

    def test_invalid_widths(self):
        with pytest.raises(SpecError):
            AutoencoderSpec(input_dim=10, hidden=(0,), latent_dim=2)


class TestTraining:
    def test_memorizes_single_repeated_image(self):
        base = make_glyphs(1, seed=5)
        images = ImageBatch(pixels=np.tile(base.pixels[:1], (64, 1))[:, :784], h=28, w=28)
        spec = AutoencoderSpec(input_dim=784, hidden=(64,), latent_dim=4)
        cfg = TrainConfig(steps=3000, batch_k=16, lr=1e-3, seed=1)
        result = train_autoencoder(images, spec, cfg)
        assert min(result.losses) < 1e-3
        recon = decode(result.decoder, encode(result.encoder, images))
        assert float(((recon.pixels - images.pixels) ** 2).mean()) < 1e-3

    def test_linear_spec_reaches_the_best_shared_sigmoid_fit(self):
        # Without a hidden layer the net is sigmoid(M x + c).  Its best fit
        # is at least as good as one sigmoid(a x + b) shared by every pixel.
        images = tiny_images(n=128, h=4, w=4)
        x = images.pixels.astype(np.float64).ravel()
        shared = minimize(lambda p: np.mean((1.0 / (1.0 + np.exp(-p[0] * x - p[1])) - x) ** 2), [4.0, -2.0],
                          method="Nelder-Mead")
        spec = AutoencoderSpec(input_dim=16, hidden=(), latent_dim=16)
        cfg = TrainConfig(steps=2000, batch_k=32, lr=3e-3, seed=2)
        result = train_autoencoder(images, spec, cfg)
        recon = decode(result.decoder, encode(result.encoder, images))
        assert np.mean((recon.pixels.astype(np.float64) - images.pixels) ** 2) <= shared.fun

    def test_loss_drops_below_initial(self):
        images = make_glyphs(256, seed=3)
        spec = AutoencoderSpec(input_dim=784, hidden=(64,), latent_dim=8)
        finals = []
        for seed in range(3):
            cfg = TrainConfig(steps=400, batch_k=32, lr=1e-3, seed=seed)
            result = train_autoencoder(images, spec, cfg)
            finals.append(result.losses[-1] < result.losses[0])
        assert np.median(finals) == 1.0

    def test_deterministic(self):
        images = tiny_images()
        spec = AutoencoderSpec(input_dim=36, hidden=(16,), latent_dim=4)
        cfg = TrainConfig(steps=50, batch_k=16, lr=1e-3, seed=4)
        a = train_autoencoder(images, spec, cfg)
        b = train_autoencoder(images, spec, cfg)
        assert np.array_equal(a.losses, b.losses)
        for la, lb in zip(a.encoder.layers, b.encoder.layers):
            assert np.array_equal(la.weight, lb.weight)

    @pytest.mark.parametrize("n, seed", [(64, 4), (50, 9)])  # 50 leaves a remainder of 2
    def test_matches_the_two_net_reference_bit_for_bit(self, n, seed):
        images = tiny_images(n=n, seed=seed)
        spec = AutoencoderSpec(input_dim=36, hidden=(16, 8), latent_dim=4)
        cfg = TrainConfig(steps=40, batch_k=16, lr=1e-3, seed=seed)
        result = train_autoencoder(images, spec, cfg)
        encoder, decoder, losses = two_net_reference(images, spec, cfg)
        assert np.array_equal(result.losses.view(np.uint64), losses.view(np.uint64))
        assert np.array_equal(result.encoder.params.view(np.uint32), encoder.params.view(np.uint32))
        assert np.array_equal(result.decoder.params.view(np.uint32), decoder.params.view(np.uint32))
        assert result.encoder.shapes == encoder.shapes and result.decoder.shapes == decoder.shapes

    def test_batches_sweep_epochs_without_replacement(self, monkeypatch):
        # n=10, batch 4: two disjoint batches per epoch, then the remainder
        # of 2 is dropped and step 3 starts a fresh shuffle.
        images = tiny_images(n=10)
        spec = AutoencoderSpec(input_dim=36, hidden=(8,), latent_dim=4)
        cfg = TrainConfig(steps=4, batch_k=4, lr=1e-3, seed=5)
        forward = mappers._forward_cached

        def batch_indices() -> list[list[int]]:
            steps = []

            def record(net, x):
                if x.shape[1] == spec.input_dim:  # the encoder's input
                    steps.append([int(np.flatnonzero((images.pixels == row).all(axis=1))[0]) for row in x])
                return forward(net, x)

            monkeypatch.setattr(mappers, "_forward_cached", record)
            train_autoencoder(images, spec, cfg)
            return steps

        steps = batch_indices()
        assert steps == batch_indices()
        assert not set(steps[0]) & set(steps[1])
        # The batch stream is the third child of SeedSequence(cfg.seed).
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed).spawn(3)[2]))
        first, second = rng.permutation(10).tolist(), rng.permutation(10).tolist()
        assert steps == [first[:4], first[4:8], second[:4], second[4:8]]

    def test_input_dim_mismatch(self):
        with pytest.raises(SizeMismatch):
            train_autoencoder(
                tiny_images(),
                AutoencoderSpec(input_dim=64, hidden=(8,), latent_dim=2),
                TrainConfig(steps=1, batch_k=4),
            )


@pytest.fixture(scope="module")
def trained():
    images = make_glyphs(256, seed=7)
    spec = AutoencoderSpec(input_dim=784, hidden=(64,), latent_dim=6)
    cfg = TrainConfig(steps=600, batch_k=32, lr=1e-3, seed=8)
    result = train_autoencoder(images, spec, cfg)
    return images, result


class TestEncodeDecode:

    def test_encode_shape(self, trained):
        images, result = trained
        latents = encode(result.encoder, images)
        assert latents.k == images.n and latents.d == 6

    def test_identical_images_identical_latents(self, trained):
        images, result = trained
        doubled = ImageBatch(pixels=np.tile(images.pixels[:1], (2, 1)), h=28, w=28)
        latents = encode(result.encoder, doubled)
        assert np.array_equal(latents.data[0], latents.data[1])

    def test_decode_range_and_shape(self, trained):
        images, result = trained
        latents = encode(result.encoder, images)
        recon = decode(result.decoder, latents)
        assert recon.pixels.shape == images.pixels.shape
        assert recon.pixels.min() >= 0.0 and recon.pixels.max() <= 1.0
        assert (recon.h, recon.w) == (28, 28)

    def test_reconstruction_of_training_image(self, trained):
        images, result = trained
        latents = encode(result.encoder, images)
        recon = decode(result.decoder, latents)
        per_image = ((recon.pixels - images.pixels) ** 2).mean(axis=1)
        assert per_image[0] <= per_image.mean() * 3

    def test_decoded_interpolation_is_valid(self, trained):
        images, result = trained
        latents = encode(result.encoder, images).data
        line = np.linspace(latents[0], latents[1], 7)
        frames = decode(result.decoder, PointSet(line))
        assert np.isfinite(frames.pixels).all()
        assert frames.pixels.min() >= 0.0 and frames.pixels.max() <= 1.0

    def test_latent_dim_mismatch(self, trained):
        _, result = trained
        with pytest.raises(SizeMismatch):
            decode(result.decoder, PointSet(np.zeros((2, 3))))

    def test_chunks_join_in_order(self, trained, monkeypatch):
        images, result = trained
        whole = encode(result.encoder, images).data
        monkeypatch.setattr(autoenc, "_ENCODE_CHUNK", 7)
        # float32 GEMMs round differently per block size, but a row out of
        # place would be off by the O(1) spread between latents.
        np.testing.assert_allclose(encode(result.encoder, images).data, whole, rtol=1e-4, atol=1e-4)

    def test_halves_reloaded_from_checkpoints_encode_and_decode_bit_for_bit(self, trained, tmp_path):
        # The hand-off between the two stages: the latent mapper's stage reloads the saved halves.
        images, result = trained
        for name, net in (("encoder", result.encoder), ("decoder", result.decoder)):
            save_checkpoint(tmp_path / f"{name}.npz", net)
        encoder, decoder = (load_checkpoint(tmp_path / f"{name}.npz") for name in ("encoder", "decoder"))
        latents, reloaded = encode(result.encoder, images), encode(encoder, images)
        assert reloaded.data.dtype == latents.data.dtype and reloaded.data.tobytes() == latents.data.tobytes()
        want, got = decode(result.decoder, latents).pixels, decode(decoder, reloaded).pixels
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
