"""Measurement loop and metrics of the otmap benchmark.

``run.py`` is the entry point; it fixes the BLAS thread count and puts
``src/`` on the path before this module (and NumPy) is imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy

from otmap.errors import OtmapError
from tracing import GuardError, Tracer
from workloads import no_wrap

# An untraced iteration repeats its set-up for at least SETUP_WINDOW_S and
# keeps the last inputs.  The moons set-up takes about 1 ms, and the host's
# speed changes within a fraction of a second, so one call per iteration
# reads whatever phase the host happens to be in.  setup_s is the median of
# every call of the run, from windows spread over its whole length.
SETUP_WINDOW_S = 0.25
# Every untraced run completes this many instances whatever --seconds says.
# final_loss (and the printed divergence) are means over them, so they
# depend on the seed alone; one trained model's loss varies by about 14%
# between seeds.
QUALITY_INSTANCES = 3

# eval_s, step_ms_p50 and divergence are printed but not bounded.  On the
# shared 2-vCPU host the baseline was taken on, their spreads between seeds
# reached 0.31 (eval_s, glyph-latent), 0.29 (step_ms_p50, glyph-latent) and
# 0.25 (divergence, ottrans-moons); a bound in BENCHMARK.json is at most 0.25
# and must hold the spread.  wall_s includes eval_s, step_ms_p95 tracks the
# step time, and the traced run reports ot.ot_divergence.value.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "wall_s": "s",
    "step_ms_p95": "ms",
    "final_loss": "1",
    "peak_rss_mb": "MB",
}

# Layers reported per traced run: calls, inclusive seconds, median call.
LAYERS = (
    "ot.pairwise_cost", "ot.solve_assignment", "ot.ot_divergence", "ot.PointSet",
    "nn.forward", "nn.backward", "nn.adam_step",
    "mappers.train_otgen", "mappers.train_ottrans", "mappers.diversity_penalty",
    "mappers.sample_prior", "mappers.generate", "mappers.next_batch",
    "autoenc.train_autoencoder", "autoenc.encode", "autoenc.decode",
    "datasets.make_moons", "datasets.make_glyphs",
)
SELF_TIMED = ("mappers.train_otgen", "mappers.train_ottrans", "autoenc.train_autoencoder")
SHARED = (
    "ot.solve_assignment", "ot.pairwise_cost", "ot.PointSet", "nn.forward", "nn.backward",
    "nn.adam_step", "mappers.diversity_penalty", "mappers.sample_prior", "mappers.next_batch",
)
NN = ("nn.forward", "nn.backward", "nn.adam_step")
K_SPLIT = (128, 256, 1024, 2000)  # the solve sizes the full workloads use


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.ms_p50": "ms"})
    for name in SELF_TIMED:
        units[f"{name}.self_s"] = "s"
    for name in ("ot.solve_assignment", "ot.pairwise_cost"):
        for k in K_SPLIT:
            units.update({f"{name}.k{k}.calls": "count", f"{name}.k{k}.ms_p50": "ms"})
    units.update({
        "ot.solve_assignment.total_cost": "1",
        "ot.solve_assignment.suboptimal": "count",
        "ot.solve_assignment.not_permutation": "count",
        "ot.pairwise_cost.bytes": "B",
        "ot.pairwise_cost.bytes_max": "B",
        "ot.ot_divergence.value": "1",
        "autoenc.recon_mse": "1",
    })
    for name in SHARED + ("nn",):
        units[f"{name}.share_of_train"] = "fraction"
    units.update({
        "trace.train_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER = per_layer_units()


@dataclass
class Iteration:
    traced: bool
    setup_calls: list[float]
    train_s: float
    eval_s: float
    step_s: list[float]
    divergence: float
    final_loss: float
    recon_mse: float
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return float(statistics.median(self.setup_calls))

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.train_s + self.eval_s

    @property
    def results(self) -> tuple[float, float, float]:
        return (self.divergence, self.final_loss, self.recon_mse)


def tail_mean(losses) -> float:
    """Mean over the last tenth of the steps."""
    return float(losses[-max(1, len(losses) // 10):].mean())


def run_iteration(wl, seed: int, instance: int, tracer) -> Iteration:
    clock = tracer.now if tracer else time.perf_counter
    if tracer:
        tracer.install()
        tracer.phase = "setup"
    # A traced iteration sets up once, so the per-layer call counts of the
    # set-up layers do not depend on the host's speed.
    window_end = time.perf_counter() + (0.0 if tracer else SETUP_WINDOW_S)
    setup_calls: list[float] = []
    try:
        while not setup_calls or time.perf_counter() < window_end:
            t0 = clock()
            inp = wl.setup(seed, instance)
            t1 = clock()
            setup_calls.append(t1 - t0)
        if tracer:
            tracer.phase = "train"
        trained = wl.train(inp, clock, tracer.wrap if tracer else no_wrap)
        t2 = clock()
        if tracer:
            tracer.phase = "eval"
        divergence = wl.evaluate(inp, trained)
        t3 = clock()
    finally:
        if tracer:
            tracer.uninstall()
    recon = trained.recon if trained.recon is not None else np.zeros(1)
    it = Iteration(
        traced=tracer is not None, setup_calls=setup_calls, train_s=t2 - t1, eval_s=t3 - t2,
        step_s=trained.step_s, divergence=float(divergence),
        final_loss=tail_mean(trained.losses), recon_mse=tail_mean(recon),
    )
    if not (np.isfinite(trained.losses).all() and np.isfinite(recon).all()):
        it.problems.append("a training loss is not finite")
    if not np.isfinite(it.divergence):
        it.problems.append("the divergence is not finite")
    return it


def measure(wl_cls, seed: int, seconds: float, trace: bool, smoke: bool):
    """Warm up, then run whole iterations for ``seconds``."""
    wl = wl_cls(wl_cls.smoke if smoke else wl_cls.full)
    run_iteration(wl_cls(wl_cls.smoke), seed, 0, None)

    tracer = Tracer() if trace else None
    iterations: list[Iteration] = []
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        # A traced run times each instance twice, untraced then traced.
        traced = trace and len(iterations) % 2 == 1
        instance = len(iterations) // 2 if trace else len(iterations)
        bad_solves = tracer.bad_solves if tracer else 0
        if not traced:
            t0 = time.perf_counter()
        try:
            it = run_iteration(wl, seed, instance, tracer if traced else None)
        except (OtmapError, FloatingPointError):
            errors.append(traceback.format_exc())
            break
        if tracer and tracer.bad_solves > bad_solves:
            it.problems.append("a solve returned a non-permutation or a suboptimal cost")
        if traced and it.results != iterations[-1].results:
            it.problems.append(f"traced results {it.results} differ from untraced {iterations[-1].results}")
        iterations.append(it)
        if trace and not traced:
            continue  # stop only after whole pairs
        last = time.perf_counter() - t0  # the next iteration, or pair, takes about as long
        if len(iterations) >= (2 if trace else QUALITY_INSTANCES) and time.perf_counter() - start + last > seconds:
            break
    return iterations, tracer, errors


def steps_ms(iterations: list[Iteration]) -> np.ndarray:
    """Every mapper step of the run, in milliseconds."""
    return np.array([s for it in iterations for s in it.step_s]) * 1e3


def end_to_end_metrics(iterations: list[Iteration]) -> dict[str, float]:
    med = lambda xs: float(statistics.median(xs))
    quality = iterations[:QUALITY_INSTANCES]
    return {
        "setup_s": med([s for it in iterations for s in it.setup_calls]),
        "train_s": med([it.train_s for it in iterations]),
        "wall_s": med([it.wall_s for it in iterations]),
        "step_ms_p95": float(np.percentile(steps_ms(iterations), 95)),
        "final_loss": statistics.fmean(it.final_loss for it in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, iterations: list[Iteration]) -> dict[str, float]:
    """Per traced iteration: call counts and seconds are means over the
    traced iterations, medians pool every call."""
    traced = [it for it in iterations if it.traced]
    untraced = [it for it in iterations if not it.traced]
    n = len(traced)
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    train_s: dict[str, float] = defaultdict(float)
    by_k: dict[tuple[str, int], list[float]] = defaultdict(list)
    for span, own in zip(tracer.spans, tracer.self_times()):
        d = span.end - span.start
        durations[span.name].append(d)
        self_s[span.name] += own
        if span.phase == "train":
            train_s[span.name] += d
        if span.k is not None:
            by_k[(span.name, span.k)].append(d)

    p50_ms = lambda xs: float(np.median(xs)) * 1e3 if xs else 0.0
    per_iter = lambda count: count // n if count % n == 0 else count / n
    m: dict[str, float] = {}
    for name in LAYERS:
        m[f"{name}.calls"] = per_iter(len(durations[name]))
        m[f"{name}.s"] = sum(durations[name]) / n
        m[f"{name}.ms_p50"] = p50_ms(durations[name])
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = self_s[name] / n
    for name in ("ot.solve_assignment", "ot.pairwise_cost"):
        for k in K_SPLIT:
            m[f"{name}.k{k}.calls"] = per_iter(len(by_k[(name, k)]))
            m[f"{name}.k{k}.ms_p50"] = p50_ms(by_k[(name, k)])
    cost_ks = [s.k for s in tracer.spans if s.name == "ot.pairwise_cost"]
    m["ot.solve_assignment.total_cost"] = tracer.total_cost / n
    m["ot.solve_assignment.suboptimal"] = tracer.suboptimal
    m["ot.solve_assignment.not_permutation"] = tracer.not_permutation
    m["ot.pairwise_cost.bytes"] = sum(8 * k * k for k in cost_ks) / n
    m["ot.pairwise_cost.bytes_max"] = max((8 * k * k for k in cost_ks), default=0)
    m["ot.ot_divergence.value"] = statistics.fmean(it.divergence for it in traced)
    m["autoenc.recon_mse"] = statistics.fmean(it.recon_mse for it in traced)
    base = sum(it.train_s for it in traced)
    for name in SHARED:
        m[f"{name}.share_of_train"] = train_s[name] / base
    m["nn.share_of_train"] = sum(train_s[name] for name in NN) / base
    m["trace.train_s"] = base / n
    m["trace.untraced_wall_s"] = statistics.median(it.wall_s for it in untraced)
    m["trace.traced_wall_s"] = statistics.median(it.wall_s for it in traced)
    # Each traced iteration repeats the untraced one before it; the median
    # of the pairs' relative differences.
    m["trace.overhead_pct"] = statistics.median(
        100.0 * (t.wall_s - u.wall_s) / u.wall_s for u, t in zip(untraced, traced)
    )
    return m


def guard_calls(wl_cls, metrics: dict[str, float]) -> None:
    zero = [name for name in wl_cls.must_call if metrics[f"{name}.calls"] == 0]
    if zero:
        raise GuardError(f"{wl_cls.name}: the trace recorded no calls to {zero}")
    extra = [name for name in wl_cls.must_not_call if metrics[f"{name}.calls"] != 0]
    if extra:
        raise GuardError(f"{wl_cls.name}: the trace recorded calls to {extra}, which this workload must not make")


def pin_cpu() -> dict:
    """Pin the process to the highest-numbered CPU it may use.

    A run then stays on one CPU, and every run on a machine uses the same
    one; CPU 0 usually takes the most device interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return {"pinned_cpu": cpu}


def machine_info(settings: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        **settings,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def report(wl_cls, seed: int, seconds: float, trace: bool, smoke: bool,
           settings: dict) -> tuple[list[str], dict]:
    """Measure one workload; return the readable lines and the result object.

    Raises :class:`GuardError` when the trace cannot be trusted or no
    iteration of the requested kind completed.
    """
    settings = {**settings, **pin_cpu()}
    iterations, tracer, errors = measure(wl_cls, seed, seconds, trace, smoke)
    lines = ["# " + line for err in errors for line in err.splitlines()]
    if not any(it.traced == trace for it in iterations):
        raise GuardError(f"no {'traced ' if trace else ''}iteration completed:\n" + "\n".join(errors))
    if trace:
        metrics = per_layer_metrics(tracer, iterations)
        guard_calls(wl_cls, metrics)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(iterations)
        units = END_TO_END
    for i, it in enumerate(iterations):
        lines += [f"# iteration {i} failed: {problem}" for problem in it.problems]
    lines.append("# machine " + json.dumps(machine_info(settings)))
    quality = iterations[:QUALITY_INSTANCES]
    lines.append(
        f"# {wl_cls.name} seed={seed} iterations={len(iterations)} "
        f"(traced {sum(it.traced for it in iterations)}) steps={sum(len(it.step_s) for it in iterations)}"
    )
    lines.append(
        f"# unbounded: eval_s={statistics.median(it.eval_s for it in iterations):.6g} s "
        f"step_ms_p50={np.percentile(steps_ms(iterations), 50):.6g} ms "
        f"divergence={statistics.fmean(it.divergence for it in quality):.6g} "
        f"recon_mse={statistics.fmean(it.recon_mse for it in quality):.6g}"
    )
    lines += [f"#   {name:<44} {metrics[name]:>14.6g} {unit}" for name, unit in units.items()]
    failed = sum(1 for it in iterations if it.problems) + len(errors)
    result = {
        "correct": failed == 0,
        "attempted": len(iterations) + len(errors),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result
