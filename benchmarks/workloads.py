"""The three paper workflows the benchmark runs, at full and smoke sizes.

Each workload is an offline batch job in three phases:

- ``setup`` makes the datasets and the initial networks from the seed and
  an instance number, so one run can time several independent instances;
- ``train`` runs the package's training calls;
- ``evaluate`` runs inference and the held-out OT divergence.

The package receives only the generated ``PointSet`` / ``ImageBatch``
inputs.  Every package function is reached through its module attribute at
call time, so the tracer's wrappers see the calls.

Why these three (``BENCHMARK.json`` carries the same reasons):

- ``otgen-moons`` re-matches every step: many mid-size (k=256) solves plus
  the exact all-pairs diversity penalty, which dominates the step;
- ``ottrans-moons`` is one big solve: the m=1024 noise-to-moons pairing,
  then solve-free network steps;
- ``glyph-latent`` is the two-step image pipeline, bound by the dense
  784-512-256-8 autoencoder, with a small latent solve share, no diversity
  penalty, and forward-only inference (encode, generate, decode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import otmap.autoenc as autoenc
import otmap.datasets as datasets
import otmap.mappers as mappers
import otmap.nn as nn
import otmap.ot as ot

from tracing import GuardError

# Layers every workload must reach; a traced run that records zero calls
# to one of them fails instead of reporting a silent zero.
MUST_CALL = (
    "ot.solve_assignment", "ot.pairwise_cost", "ot.ot_divergence", "ot.PointSet",
    "nn.forward", "nn.backward", "nn.adam_step", "mappers.sample_prior", "mappers.generate",
)

MAPPER_WIDTH = 128
MAPPER_LR = 1e-3
GLYPH_AE = autoenc.AutoencoderSpec(input_dim=28 * 28)  # 784-512-256-8


@dataclass(frozen=True)
class Sizes:
    pool: int  # target pool the mapper trains on
    batch_k: int  # mapper batch, the per-step solve size for OTGen
    steps: int  # mapper steps
    eval_n: int  # generated and held-out points in the divergence
    ae_steps: int = 0  # autoencoder steps (glyph-latent only)


@dataclass
class Trained:
    losses: np.ndarray  # mapper loss per step
    step_s: list[float]  # mapper step durations
    recon: np.ndarray | None = None  # autoencoder loss per step
    state: dict = field(default_factory=dict)  # what evaluate needs


Clock = Callable[[], float]
Wrap = Callable[[str, Callable], Callable]


def no_wrap(name: str, fn: Callable) -> Callable:
    return fn


def _seeds(seed: int, instance: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, instance]).generate_state(n)]


def _mapper(dim: int, seed: int) -> nn.Mlp:
    dims = [dim, MAPPER_WIDTH, MAPPER_WIDTH, MAPPER_WIDTH]
    specs = [nn.LayerSpec(i, o) for i, o in zip(dims, dims[1:])]
    specs.append(nn.LayerSpec(MAPPER_WIDTH, dim, nn.Activation.IDENTITY))
    return nn.init_mlp(specs, seed=seed)


def _moons(n: int, seed: int) -> ot.PointSet:
    return datasets.make_moons(datasets.SyntheticSpec(datasets.SyntheticKind.MOONS, n, seed=seed))


def _step_durations(ticks: list[float], end: float, steps: int, source: str) -> list[float]:
    """Step i lasts from tick i to tick i+1; the last step ends at ``end``."""
    if len(ticks) != steps:
        raise GuardError(f"{source} was called {len(ticks)} times for {steps} steps")
    return list(np.diff(np.array(ticks + [end])))


def _ticking(fn: Callable, clock: Clock, ticks: list[float]) -> Callable:
    def tick(*args, **kwargs):
        ticks.append(clock())
        return fn(*args, **kwargs)

    return tick


def _train_otgen(pool: ot.PointSet, net: nn.Mlp, cfg: mappers.TrainConfig, sampler_seed: int,
                 clock: Clock, wrap: Wrap) -> tuple[mappers.TrainResult, list[float]]:
    """OTGen with a target sampler the benchmark passes in; its draws mark
    the step boundaries."""
    ticks: list[float] = []
    draw = wrap("mappers.next_batch", mappers.pool_sampler(pool, cfg.batch_k, sampler_seed))
    result = mappers.train_otgen(_ticking(draw, clock, ticks), cfg, net)
    return result, _step_durations(ticks, clock(), cfg.steps, "the target sampler")


class Workload:
    name: str
    full: Sizes
    smoke: Sizes
    must_call: tuple[str, ...]
    must_not_call: tuple[str, ...] = ("mappers.diversity_penalty",)

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes


def _moons_inputs(z: Sizes, seed: int, instance: int, lambda_div: float = 0.0) -> dict:
    s = _seeds(seed, instance, 5)
    return {
        "pool": _moons(z.pool, s[0]),
        "held_out": _moons(z.eval_n, s[1]),
        "net": _mapper(2, s[2]),
        "cfg": mappers.TrainConfig(
            prior=mappers.PriorSpec(dim=2, seed=s[3]), steps=z.steps, batch_k=z.batch_k,
            lr=MAPPER_LR, lambda_div=lambda_div, seed=s[3],
        ),
        "sampler_seed": s[4],
    }


def _moons_divergence(inp: dict, trained: Trained) -> float:
    cfg = inp["cfg"]
    rng = np.random.default_rng(cfg.seed + 1)
    generated = mappers.generate(trained.state["net"], cfg.prior, inp["held_out"].k, rng)
    return ot.ot_divergence(generated, inp["held_out"])


class OtgenMoons(Workload):
    name = "otgen-moons"
    full = Sizes(pool=8192, batch_k=256, steps=300, eval_n=2000)
    smoke = Sizes(pool=256, batch_k=32, steps=12, eval_n=64)
    must_call = MUST_CALL + (
        "mappers.train_otgen", "mappers.diversity_penalty", "mappers.next_batch", "datasets.make_moons",
    )
    must_not_call = ()

    def setup(self, seed: int, instance: int) -> dict:
        return _moons_inputs(self.sizes, seed, instance, lambda_div=0.5)

    def train(self, inp: dict, clock: Clock, wrap: Wrap = no_wrap) -> Trained:
        res, step_s = _train_otgen(inp["pool"], inp["net"], inp["cfg"], inp["sampler_seed"], clock, wrap)
        return Trained(res.losses, step_s, state={"net": res.net})

    evaluate = staticmethod(_moons_divergence)


class OttransMoons(Workload):
    name = "ottrans-moons"
    full = Sizes(pool=1024, batch_k=128, steps=500, eval_n=2000)
    smoke = Sizes(pool=128, batch_k=32, steps=12, eval_n=64)
    must_call = MUST_CALL + ("mappers.train_ottrans", "datasets.make_moons")

    def setup(self, seed: int, instance: int) -> dict:
        return _moons_inputs(self.sizes, seed, instance)

    def train(self, inp: dict, clock: Clock, wrap: Wrap = no_wrap) -> Trained:
        # train_ottrans takes no callback, so its steps are marked by the
        # minibatch forward passes, observed on the name mappers looks up.
        ticks: list[float] = []
        forward = mappers._forward_cached
        mappers._forward_cached = _ticking(forward, clock, ticks)
        try:
            res = mappers.train_ottrans(inp["pool"], inp["cfg"], inp["net"])
        finally:
            mappers._forward_cached = forward
        step_s = _step_durations(ticks, clock(), inp["cfg"].steps, "mappers._forward_cached")
        return Trained(res.losses, step_s, state={"net": res.net})

    evaluate = staticmethod(_moons_divergence)


class GlyphLatent(Workload):
    name = "glyph-latent"
    full = Sizes(pool=4000, batch_k=128, steps=300, eval_n=2000, ae_steps=300)
    smoke = Sizes(pool=256, batch_k=32, steps=12, eval_n=64, ae_steps=6)
    ae_lr = 1e-3
    must_call = MUST_CALL + (
        "autoenc.train_autoencoder", "autoenc.encode", "autoenc.decode", "mappers.train_otgen",
        "mappers.next_batch", "datasets.make_glyphs",
    )

    def setup(self, seed: int, instance: int) -> dict:
        s = _seeds(seed, instance, 6)
        z = self.sizes
        latent = GLYPH_AE.latent_dim
        return {
            "images": datasets.make_glyphs(z.pool, s[0]),
            "held_out": datasets.make_glyphs(z.eval_n, s[1]),
            "net": _mapper(latent, s[2]),
            "ae_cfg": mappers.TrainConfig(steps=z.ae_steps, batch_k=128, lr=self.ae_lr, seed=s[3]),
            "cfg": mappers.TrainConfig(
                prior=mappers.PriorSpec(dim=latent, seed=s[4]), steps=z.steps, batch_k=z.batch_k,
                lr=MAPPER_LR, seed=s[4],
            ),
            "sampler_seed": s[5],
        }

    def train(self, inp: dict, clock: Clock, wrap: Wrap = no_wrap) -> Trained:
        ae = autoenc.train_autoencoder(inp["images"], GLYPH_AE, inp["ae_cfg"])
        latents = autoenc.encode(ae.encoder, inp["images"])
        res, step_s = _train_otgen(latents, inp["net"], inp["cfg"], inp["sampler_seed"], clock, wrap)
        return Trained(res.losses, step_s, recon=ae.losses,
                       state={"net": res.net, "encoder": ae.encoder, "decoder": ae.decoder})

    def evaluate(self, inp: dict, trained: Trained) -> float:
        held_out = autoenc.encode(trained.state["encoder"], inp["held_out"])
        cfg = inp["cfg"]
        generated = mappers.generate(trained.state["net"], cfg.prior, held_out.k,
                                     np.random.default_rng(cfg.seed + 1))
        autoenc.decode(trained.state["decoder"], generated)  # images must be valid pixels
        return ot.ot_divergence(generated, held_out)


WORKLOADS = {w.name: w for w in (OtgenMoons, OttransMoons, GlyphLatent)}
