"""Span tracing of pairenergy's public functions, from outside the package.

`Tracer.installed()` replaces module attributes at the names their callers
look up (`optimizer.minimize_local`, `recovery.wasserstein1`, ...) with
wrappers that record one span per call: name, start, end, run id and parent.
Parents come from a per-thread stack; worker threads started by the
optimizer's thread pool inherit the span that submitted their task.  Kernel
work is counted by a subclass of the potential, returned by the wrapped
`potentials.potential_from_json`, and charged to the innermost open span of
the calling thread.  Spans stay in memory until the caller dumps them.  On
leaving the context every original attribute is restored, so untraced calls
in the same process run the unmodified code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from pairenergy import (cli, configuration, diagnostics, measures, optimizer,
                        potentials, recovery)

# (module, attribute, span name): the call sites the workloads reach, named
# after the module that defines the function.  `Tracer.installed` adds the
# wrappers that record more than a span.
_WRAPPED = (
    (cli, "minimize_multistart", "optimizer.minimize_multistart"),
    (cli, "diameter", "configuration.diameter"),
    (optimizer, "min_pair_distance", "configuration.min_pair_distance"),
    (diagnostics, "build_report", "diagnostics.build_report"),
    (diagnostics, "stationarity_check", "diagnostics.stationarity_check"),
    (diagnostics, "empirical_morrey_seminorm", "diagnostics.empirical_morrey_seminorm"),
    (diagnostics, "euler_lagrange_spread", "diagnostics.euler_lagrange_spread"),
    (diagnostics, "lower_mass_profile", "diagnostics.lower_mass_profile"),
    (diagnostics, "per_particle_potentials", "configuration.per_particle_potentials"),
    (diagnostics, "diameter", "configuration.diameter"),
    (diagnostics, "min_pair_distance", "configuration.min_pair_distance"),
    (diagnostics, "ball_mass", "configuration.ball_mass"),
    # build_report imports discrete_energy from the module at call time
    (configuration, "discrete_energy", "configuration.discrete_energy"),
    (recovery, "discrete_energy", "configuration.discrete_energy"),
    (recovery, "recovery_convergence_report", "recovery.recovery_convergence_report"),
    (recovery, "build_recovery", "recovery.build_recovery"),
    (recovery, "density_to_atoms", "measures.density_to_atoms"),
    (recovery, "continuum_energy_grid", "measures.continuum_energy_grid"),
    (measures, "continuum_energy_grid", "measures.continuum_energy_grid"),
    (measures, "regrid", "measures.regrid"),
    (potentials, "numeric_instability_scan", "potentials.numeric_instability_scan"),
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("optimizer.multistart_s", "s", "lower"),
    ("optimizer.slowest_solve_s", "s", "lower"),
    ("optimizer.local_solves", "count", "lower"),
    ("optimizer.iterations", "count", "lower"),
    ("optimizer.energy_evals", "count", "lower"),
    ("optimizer.force_evals", "count", "lower"),
    ("optimizer.accept_ratio", "1", "higher"),
    ("optimizer.evals_per_solve.p50", "count", "lower"),
    ("optimizer.evals_per_solve.max", "count", "lower"),
    ("optimizer.unconverged", "count", "lower"),
    ("optimizer.speedup_w2", "1", "higher"),
    ("potentials.kernel_calls", "count", "lower"),
    ("potentials.kernel_values", "count", "lower"),
    ("potentials.kernel_s", "s", "lower"),
    ("potentials.values_per_s", "1/s", "higher"),
    ("potentials.bytes_computed", "B", "lower"),
    ("potentials.scan_self_s", "s", "lower"),
    ("configuration.energy_s", "s", "lower"),
    ("configuration.potentials_s", "s", "lower"),
    ("configuration.geometry_s", "s", "lower"),
    ("diagnostics.report_s", "s", "lower"),
    ("diagnostics.stationarity_s", "s", "lower"),
    ("diagnostics.stationarity_values", "count", "lower"),
    ("diagnostics.morrey_s", "s", "lower"),
    ("diagnostics.el_spread_s", "s", "lower"),
    ("diagnostics.lower_mass_s", "s", "lower"),
    ("measures.w1_s", "s", "lower"),
    ("measures.w1_calls", "count", "lower"),
    ("measures.w1_pairs", "count", "lower"),
    ("measures.w1_truncated", "count", "lower"),
    ("measures.grid_energy_s", "s", "lower"),
    ("measures.grid_energy_calls", "count", "lower"),
    ("measures.grid_values", "count", "lower"),
    ("recovery.build_s", "s", "lower"),
    ("recovery.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

ROOT_SPAN = "cli.main"
_KERNELS = ("radial", "radial_derivative")


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "counts", "extra")

    def __init__(self, id_, parent, run, name, start):
        self.id, self.parent, self.run, self.name = id_, parent, run, name
        self.start, self.end = start, None
        self.counts = dict.fromkeys(("radial_calls", "radial_values",
                                     "radial_derivative_calls",
                                     "radial_derivative_values"), 0)
        self.counts["kernel_s"] = 0.0
        self.extra = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "run": self.run,
                "name": self.name, "start": self.start, "end": self.end,
                **self.counts, **self.extra}


class Tracer:
    """Collects spans of one or more traced runs, each under its own run id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._t0 = time.perf_counter()
        self._counting = {}

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.base = None
        return self._local.stack

    def _current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else self._local.base

    def _open(self, name: str) -> Span:
        parent = self._current()
        with self._lock:
            span = Span(self._next_id, parent.id if parent else None, self.run,
                        name, time.perf_counter() - self._t0)
            self._next_id += 1
        self._stack().append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter() - self._t0
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _kernel(self, kind: str, values: int, seconds: float):
        span = self._current()
        if span is None:
            return
        with self._lock:
            span.counts[kind + "_calls"] += 1
            span.counts[kind + "_values"] += values
            span.counts["kernel_s"] += seconds

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                if call is None:
                    return fn(*args, **kwargs)
                return call(span, fn, args, kwargs)
        return wrapper

    @staticmethod
    def _local_solve(span, fn, args, kwargs):
        res = fn(*args, **kwargs)
        span.extra["iterations"] = res.iterations_used
        span.extra["converged"] = bool(res.converged)
        return res

    @staticmethod
    def _transport(span, fn, args, kwargs):
        mu, nu = args
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", measures.TransportQuantisationWarning)
            res = fn(*args, **kwargs)
        span.extra["pairs"] = mu.n_atoms * nu.n_atoms
        span.extra["truncated"] = any(
            issubclass(w.category, measures.TransportQuantisationWarning) for w in caught)
        return res

    def _counting_class(self, base: type) -> type:
        if base not in self._counting:
            tracer = self

            def counted(kind):
                method = getattr(base, kind)

                def evaluate(spec, r):
                    t0 = time.perf_counter()
                    out = method(spec, r)
                    tracer._kernel(kind, int(np.size(out)), time.perf_counter() - t0)
                    return out
                return evaluate

            self._counting[base] = type("Counting" + base.__name__, (base,),
                                        {k: counted(k) for k in _KERNELS})
        return self._counting[base]

    def _potential_from_json(self, fn):
        @functools.wraps(fn)
        def wrapper(obj):
            spec = fn(obj)
            fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
            return self._counting_class(type(spec))(**fields)
        return wrapper

    def _pool_class(self) -> type:
        tracer = self

        class ContextPool(ThreadPoolExecutor):
            """Runs each task under the span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()

                def task(*a, **k):
                    tracer._stack()
                    tracer._local.base = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.base = None
                return super().submit(task, *args, **kwargs)

        return ContextPool

    @contextlib.contextmanager
    def installed(self, run: str):
        """Trace every call made inside the block under run id `run`."""
        self.run = run
        patches = [(mod, attr, self._wrap(getattr(mod, attr), name))
                   for mod, attr, name in _WRAPPED]
        patches += [
            (optimizer, "minimize_local",
             self._wrap(optimizer.minimize_local, "optimizer.minimize_local",
                        self._local_solve)),
            (recovery, "wasserstein1",
             self._wrap(recovery.wasserstein1, "measures.wasserstein1", self._transport)),
            (potentials, "potential_from_json",
             self._potential_from_json(potentials.potential_from_json)),
            (optimizer, "ThreadPoolExecutor", self._pool_class()),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in reversed(saved):
                setattr(mod, attr, old)
            self.run = None

    @contextlib.contextmanager
    def root(self, run: str):
        """Trace one `cli.main` call made inside the block as run `run`."""
        with self.installed(run), self.span(ROOT_SPAN):
            yield self

    def dump(self) -> list[dict]:
        return [s.to_json() for s in sorted(self.spans, key=lambda s: s.id)]


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([(a, b) for a, b in kids if b > a])
    return out


def layer_metrics(spans, run: str) -> dict:
    """Per-layer numbers of one traced run, keyed by PER_LAYER names.

    `optimizer.speedup_w2` and `trace.overhead_s` need a second run or an
    untraced wall time, so the caller fills them in.
    """
    spans = [s for s in spans if s.run == run]
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(own[s.id] for s in named(name))

    def values(group):
        return sum(s.counts[k + "_values"] for s in group for k in _KERNELS)

    solves = named("optimizer.minimize_local")
    evals = [s.counts["radial_calls"] for s in solves]
    energy_evals = sum(evals)
    iterations = sum(s.extra.get("iterations", 0) for s in solves)
    kernel_calls = sum(s.counts[k + "_calls"] for s in spans for k in _KERNELS)
    kernel_values = values(spans)
    kernel_s = sum(s.counts["kernel_s"] for s in spans)
    w1 = named("measures.wasserstein1")
    return {
        "optimizer.multistart_s": total("optimizer.minimize_multistart"),
        "optimizer.slowest_solve_s": max((s.duration for s in solves), default=0.0),
        "optimizer.local_solves": len(solves),
        "optimizer.iterations": iterations,
        "optimizer.energy_evals": energy_evals,
        "optimizer.force_evals": sum(s.counts["radial_derivative_calls"] for s in solves),
        "optimizer.accept_ratio": iterations / energy_evals if energy_evals else 0.0,
        "optimizer.evals_per_solve.p50": statistics.median(evals) if evals else 0,
        "optimizer.evals_per_solve.max": max(evals, default=0),
        "optimizer.unconverged": sum(not s.extra.get("converged") for s in solves),
        "potentials.kernel_calls": kernel_calls,
        "potentials.kernel_values": kernel_values,
        "potentials.kernel_s": kernel_s,
        "potentials.values_per_s": kernel_values / kernel_s if kernel_s else 0.0,
        # computed, not measured: one float64 read and one written per value
        "potentials.bytes_computed": 16 * kernel_values,
        "potentials.scan_self_s": self_total("potentials.numeric_instability_scan"),
        "configuration.energy_s": total("configuration.discrete_energy"),
        "configuration.potentials_s": total("configuration.per_particle_potentials"),
        "configuration.geometry_s": sum(total("configuration." + n) for n in
                                        ("diameter", "min_pair_distance", "ball_mass")),
        "diagnostics.report_s": total("diagnostics.build_report"),
        "diagnostics.stationarity_s": total("diagnostics.stationarity_check"),
        "diagnostics.stationarity_values": values(named("diagnostics.stationarity_check")),
        "diagnostics.morrey_s": total("diagnostics.empirical_morrey_seminorm"),
        "diagnostics.el_spread_s": total("diagnostics.euler_lagrange_spread"),
        "diagnostics.lower_mass_s": total("diagnostics.lower_mass_profile"),
        "measures.w1_s": total("measures.wasserstein1"),
        "measures.w1_calls": len(w1),
        "measures.w1_pairs": sum(s.extra.get("pairs", 0) for s in w1),
        "measures.w1_truncated": sum(s.extra.get("truncated", False) for s in w1),
        "measures.grid_energy_s": total("measures.continuum_energy_grid"),
        "measures.grid_energy_calls": len(named("measures.continuum_energy_grid")),
        "measures.grid_values": values(named("measures.continuum_energy_grid")),
        "recovery.build_s": total("recovery.build_recovery"),
        "recovery.self_s": self_total("recovery.recovery_convergence_report"),
        "cli.self_s": self_total(ROOT_SPAN),
    }
