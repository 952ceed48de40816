"""The two latent-distribution mapping trainers plus their supporting pieces.

Both trainers teach a network to carry a uniform noise prior onto a target
point distribution, using exact assignments as the supervision signal:

- ``train_ottrans`` solves one large assignment between a fixed noise pool
  and the full target pool up front, then regresses the network onto those
  frozen pairs with minibatch Adam.
- ``train_otgen`` re-solves a small assignment every step, between the
  network's current batch of predictions and a fresh batch of targets, and
  regresses each prediction onto its matched target.

They differ only in where each step's pairs come from.  Both run the same
step (``_fit``): forward the batch's noise, ask the batch's pairing for the
matched targets (and any extra objective term), then squared cost, backward
and one Adam update.  The autoencoder (``autoenc.train_autoencoder``) is the
third trainer on that step: its pairing returns the input images.  The
assignment is always treated as a constant during backprop: it is piecewise
constant in the network weights, so no gradient flows through the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.spatial.distance import cdist

from .errors import SizeMismatch, SpecError, TooFewPoints, _count, _rate, _seed
from .nn import (
    Mlp,
    _Adam,
    _backward_from_cache,
    _forward_cached,
    adam_step,
    forward,
)
from .ot import (
    PointSet,
    pairwise_cost,
    solve_assignment,
)

# The diversity penalty walks the k x k pair grid this many rows at a time,
# so it holds two block x k float64 arrays (4 MiB at k = 1024) instead of
# k x k ones.
_PENALTY_BLOCK = 256


@dataclass(frozen=True)
class PriorSpec:
    """Uniform noise prior on [-1, 1)^dim.

    ``seed`` is checked as a seed and read by nothing else: every draw
    comes from the caller's ``rng``.  It stays only because
    ``benchmarks/workloads.py`` constructs ``PriorSpec(dim=..., seed=...)``.
    """

    dim: int
    seed: int = 0

    def __post_init__(self) -> None:
        _count(self.dim, "prior dim", SpecError)
        _seed(self.seed)


def sample_prior(spec: PriorSpec, k: int, rng: np.random.Generator) -> PointSet:
    """k i.i.d. draws from the prior, taken from ``rng`` so successive draws advance."""
    k = _count(k, "number of prior samples k")
    return PointSet(rng.uniform(-1.0, 1.0, size=(k, spec.dim)))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run (the cost is squared Euclidean).

    ``prior`` is required by the mapper trainers and ignored by the
    autoencoder trainer; ``lambda_div`` is read by ``train_otgen`` only.
    OTTrans's pool is the target set it is given.
    """

    prior: PriorSpec | None = None
    steps: int = 10_000
    batch_k: int = 128
    lr: float = 3e-4
    lambda_div: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _count(self.steps, "steps", SpecError)
        _count(self.batch_k, "batch_k", SpecError)
        _seed(self.seed)
        _rate(self.lr, "lr")
        _rate(self.lambda_div, "lambda_div", positive=False)


@dataclass
class TrainResult:
    """Trained network plus the per-step loss curve.

    Both mappers fill it from the same training step.  ``losses`` holds
    the training objective per step (squared cost plus any weighted
    diversity term).
    """

    net: Mlp
    losses: np.ndarray


def diversity_penalty(p: PointSet, z: PointSet) -> tuple[float, np.ndarray]:
    """|mean pairwise distance of p - mean pairwise distance of z| and d/dp.

    Pulls the generated points' average spread toward the target points'
    average spread; z is treated as a constant.  Both means use every pair
    at every k.  The pair grid is walked ``_PENALTY_BLOCK`` rows at a time,
    so memory is O(block * k), not O(k^2).

    Row i of the gradient sums (p_i - p_j) / max(||p_i - p_j||, 1e-12) over
    j, differencing each coordinate column explicitly, so a coincident pair
    adds exactly zero (a ``W.sum(1) * x - W @ x`` form would cancel
    catastrophically against the 1e12 weights the floor gives such pairs).
    """
    if p.k != z.k or p.d != z.d:
        raise SizeMismatch(f"sets must match in shape: ({p.k}, {p.d}) vs ({z.k}, {z.d})")
    if p.k < 2:
        raise TooFewPoints(f"diversity penalty needs k >= 2, got k={p.k}")
    x = p.data
    total_p = total_z = 0.0
    grad = np.empty_like(x)
    for lo in range(0, p.k, _PENALTY_BLOCK):
        rows = slice(lo, lo + _PENALTY_BLOCK)
        denom = cdist(x[rows], x)
        total_p += denom.sum()
        total_z += cdist(z.data[rows], z.data).sum()
        np.maximum(denom, 1e-12, out=denom)
        work = np.empty_like(denom)
        for c in range(p.d):
            np.subtract.outer(x[rows, c], x[:, c], out=work)
            work /= denom
            grad[rows, c] = work.sum(axis=1)
    n_ordered = p.k * (p.k - 1)
    gap = total_p / n_ordered - total_z / n_ordered
    grad *= np.sign(gap) / (n_ordered // 2)
    return abs(gap), grad


def generate(net: Mlp, prior: PriorSpec, n: int, rng: np.random.Generator) -> PointSet:
    """Push n fresh prior samples through the network."""
    return forward(net, sample_prior(prior, n, rng))


def _epoch_indices(n: int, batch_k: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    # Endless batches of batch_k indices into 0..n-1: each epoch is one
    # rng.permutation(n), cut into whole batches; a short remainder is dropped.
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_k + 1, batch_k):
            yield order[start : start + batch_k]


def _frozen_pairs(
    inputs: np.ndarray, targets: np.ndarray, batch_k: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, Callable]]:
    # _fit batches over fixed (input row, target row) pairs, drawn by _epoch_indices.
    for idx in _epoch_indices(len(inputs), batch_k, rng):
        y = targets[idx]
        yield inputs[idx], lambda out: (y, None)


def pool_sampler(
    pool: PointSet, batch_k: int, seed: int
) -> Callable[[], PointSet]:
    """Epoch-style batch source: without replacement, reshuffled when spent."""
    batch_k = _count(batch_k, "batch_k", SpecError)
    if batch_k > pool.k:
        raise SpecError(f"batch_k ({batch_k}) exceeds pool size ({pool.k})")
    batches = _epoch_indices(pool.k, batch_k, np.random.default_rng(_seed(seed)))
    return lambda: PointSet(pool.data[next(batches)])


def _squared_cost_and_grad(pred: np.ndarray, target: np.ndarray, divisor: int) -> tuple[float, np.ndarray]:
    # sum_i ||pred_i - target_i||^2 / divisor and its gradient wrt pred, both
    # built from the float64 difference pred - target.
    diff = pred.astype(np.float64) - target
    loss = float(np.einsum("ij,ij->", diff, diff) / divisor)
    return loss, (2.0 / divisor) * diff


def _fit(net: Mlp, cfg: TrainConfig, batches: Iterator[tuple[np.ndarray, Callable]], divisor: int) -> TrainResult:
    """The training step all three trainers share, run for ``cfg.steps`` batches.

    Each batch is (network input, pairing).  The pairing maps the forward
    output to its matched targets and an optional extra objective term
    (value, gradient wrt the output), already weighted; it is called once,
    before the next batch is drawn.  The squared cost is summed and divided
    by ``divisor``: the batch's row count for the mappers (mean over pairs),
    its entry count for the autoencoder (mean over pixels).  Adam's state
    starts fresh here and lives for this call.
    """
    adam = _Adam(net.params)
    # Reused every step: a fresh 4.3 MB autoencoder gradient came back from malloc as new pages.
    grads = Mlp(net.specs, np.empty_like(net.params))
    losses = np.empty(cfg.steps)
    for step, (x, pair) in zip(range(cfg.steps), batches):
        out, cache = _forward_cached(net, x)
        y, extra = pair(out)
        loss, out_grad = _squared_cost_and_grad(out, y, divisor)
        if extra is not None:
            loss += extra[0]
            out_grad = out_grad + extra[1]
        _backward_from_cache(net, cache, out_grad, grads)
        adam_step(net, grads, adam, cfg.lr)
        losses[step] = loss
    return TrainResult(net=net, losses=losses)


def _check_mapper(cfg: TrainConfig, net: Mlp) -> PriorSpec:
    if cfg.prior is None:
        raise SpecError("mapper training needs a prior spec")
    if net.in_dim != cfg.prior.dim:
        raise SpecError(f"network input dim {net.in_dim} != prior dim {cfg.prior.dim}")
    return cfg.prior


def train_ottrans(targets: PointSet, cfg: TrainConfig, net: Mlp) -> TrainResult:
    """Learn one precomputed noise-to-target bijection by minibatch regression.

    The pool is ``targets`` itself: a matching noise pool of the same size m
    is drawn once, one m x m assignment is solved, and the resulting pairs
    stay frozen while the network trains on epoch-shuffled minibatches of them.
    """
    prior = _check_mapper(cfg, net)
    m = targets.k
    if cfg.batch_k > m:
        raise SpecError(f"batch_k ({cfg.batch_k}) exceeds the target pool size ({m})")
    if net.out_dim != targets.d:
        raise SpecError(f"network output dim {net.out_dim} != target dim {targets.d}")

    prior_rng, batch_rng = _spawn_rngs(cfg.seed, 2)
    noise = sample_prior(prior, m, prior_rng)  # PoolTooLarge surfaces in pairwise_cost
    sigma = solve_assignment(pairwise_cost(noise, targets))
    matched = targets.data[sigma.perm]

    return _fit(net, cfg, _frozen_pairs(noise.data, matched, cfg.batch_k, batch_rng), cfg.batch_k)


def train_otgen(
    target_sampler: Callable[[], PointSet], cfg: TrainConfig, net: Mlp
) -> TrainResult:
    """Train by re-matching predictions to fresh target batches every step.

    Per step: draw targets Z and noise N (both of size batch_k), predict
    P = net(N), solve the k x k assignment from P to Z, then take one Adam
    step on the matched squared cost plus ``lambda_div`` times the diversity
    penalty, with the assignment held fixed.
    """
    prior = _check_mapper(cfg, net)
    prior_rng = _spawn_rngs(cfg.seed, 1)[0]

    def rematched() -> Iterator[tuple[np.ndarray, Callable]]:
        for _ in range(cfg.steps):
            z = target_sampler()
            if z.k != cfg.batch_k:
                raise SpecError(f"target sampler returned {z.k} points, expected {cfg.batch_k}")
            noise = sample_prior(prior, cfg.batch_k, prior_rng)

            def pair(out: np.ndarray) -> tuple[np.ndarray, tuple | None]:
                preds = PointSet(out)
                sigma = solve_assignment(pairwise_cost(preds, z))
                extra = None
                if cfg.lambda_div > 0:
                    dval, dgrad = diversity_penalty(preds, z)
                    extra = (cfg.lambda_div * dval, cfg.lambda_div * dgrad)
                return z.data[sigma.perm], extra

            yield noise.data, pair

    return _fit(net, cfg, rematched(), cfg.batch_k)


def _spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]
