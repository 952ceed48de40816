"""Per-layer tracing from outside the package.

The layers are the modules of ``src/otmap``.  A traced iteration replaces
each name in ``WRAPPED`` with a wrapper that records a span (name, k,
phase, start, end, parent), and wraps ``PointSet.__post_init__`` (its
construction: copy plus finiteness check).  Because the package looks these
names up at call time, the private ``_forward_cached`` /
``_backward_from_cache`` and the ``solve_assignment`` that ``mappers`` and
``autoenc`` import are caught as well.  Every other otmap function stays
unwrapped, so its time counts as its caller's own time (``self_times``).

Every intercepted ``solve_assignment`` is checked off the clock: its
``perm`` must be a permutation (an O(k) bincount) and its cost must equal
the optimum that ``scipy.optimize.linear_sum_assignment`` finds on the same
matrix.  Time spent in checks is removed from the tracer's clock, so spans
and the phase timers that read ``Tracer.now`` exclude it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

import otmap.autoenc
import otmap.datasets
import otmap.mappers
import otmap.nn
import otmap.ot

SOLVE = "ot.solve_assignment"
COST = "ot.pairwise_cost"
FORWARD = "nn.forward"
BACKWARD = "nn.backward"
ADAM = "nn.adam_step"

# Module -> {attribute: span name}.  A name a module imports from another
# layer is reported under the layer that defines it, and the private nn
# helpers under the public call they implement.  A missing name fails the
# traced run, so a refactor cannot silently drop a layer from the trace.
WRAPPED = {
    otmap.ot: {"pairwise_cost": COST, "solve_assignment": SOLVE, "ot_divergence": "ot.ot_divergence"},
    otmap.nn: {
        "forward": FORWARD, "backward": BACKWARD, "adam_step": ADAM,
        "_forward_cached": FORWARD, "_backward_from_cache": BACKWARD,
    },
    otmap.mappers: {
        "train_otgen": "mappers.train_otgen", "train_ottrans": "mappers.train_ottrans",
        "diversity_penalty": "mappers.diversity_penalty", "sample_prior": "mappers.sample_prior",
        "generate": "mappers.generate", "pairwise_cost": COST, "solve_assignment": SOLVE,
        "_forward_cached": FORWARD, "_backward_from_cache": BACKWARD, "adam_step": ADAM,
    },
    otmap.autoenc: {
        "train_autoencoder": "autoenc.train_autoencoder", "encode": "autoenc.encode",
        "decode": "autoenc.decode",
        "_forward_cached": FORWARD, "_backward_from_cache": BACKWARD, "adam_step": ADAM,
    },
    otmap.datasets: {"make_moons": "datasets.make_moons", "make_glyphs": "datasets.make_glyphs"},
}
POINT_SET = "ot.PointSet"


class GuardError(RuntimeError):
    """The trace cannot be trusted: a wrapped name or an expected call is missing."""


@dataclass
class Span:
    name: str
    k: int | None
    phase: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


def _span_k(name: str, args: tuple, kwargs: dict) -> int | None:
    if name == SOLVE:
        costs = args[0] if args else kwargs["costs"]
        return int(np.shape(costs.values)[0])
    if name == COST:
        a = args[0] if args else kwargs["a"]
        return a.k
    return None


class Tracer:
    """Installs the wrappers, keeps spans in memory, and checks solves."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.suboptimal = 0
        self.not_permutation = 0
        self.total_cost = 0.0
        self._stack: list[int] = []
        self._off_clock = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def now(self) -> float:
        """Wall clock minus the time spent in off-clock checks."""
        return time.perf_counter() - self._off_clock

    # -- wrapping ---------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        """Run ``fn`` inside a span named ``name``.

        A call nested directly in a span of the same name (``nn.forward``
        calling ``nn._forward_cached``) is folded into the outer span.
        """
        if self._stack and self.spans[self._stack[-1]].name == name:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, _span_k(name, args, kwargs), self.phase, self.now(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = self.now()
            self._stack.pop()
        if name == SOLVE:
            t0 = time.perf_counter()
            self._check_solve(args[0] if args else kwargs["costs"], out)
            self._off_clock += time.perf_counter() - t0
        return out

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every name in ``WRAPPED`` and ``PointSet.__post_init__``;
        raise :class:`GuardError` if a name is gone."""
        for module, names in WRAPPED.items():
            missing = [attr for attr in names if not hasattr(module, attr)]
            if missing:
                raise GuardError(f"{module.__name__} no longer defines {missing}; the trace would miss them")
        for module, names in WRAPPED.items():
            for attr, name in names.items():
                self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        point_set = otmap.ot.PointSet
        self._patch(point_set, "__post_init__", self.wrap(POINT_SET, point_set.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- correctness ------------------------------------------------------

    def _check_solve(self, costs, sigma) -> None:
        values = np.asarray(costs.values, dtype=np.float64)
        k = values.shape[0]
        perm = np.asarray(sigma.perm)
        if (
            perm.shape != (k,)
            or perm.dtype.kind not in "iu"
            or perm.min() < 0
            or perm.max() >= k
            or not (np.bincount(perm, minlength=k) == 1).all()
        ):
            self.not_permutation += 1
            return
        rows, cols = linear_sum_assignment(values)
        optimum = float(values[rows, cols].sum())
        got = float(values[np.arange(k), perm].sum())
        tol = 1e-9 * max(1.0, abs(optimum))
        if got > optimum + tol or abs(float(sigma.total_cost) - got) > tol:
            self.suboptimal += 1
        self.total_cost += got

    @property
    def bad_solves(self) -> int:
        return self.suboptimal + self.not_permutation

    # -- reading ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]
