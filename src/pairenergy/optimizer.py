"""Approximate global minimisation of the discrete interaction energy.

Local search is gradient descent with Barzilai-Borwein steps and Armijo
backtracking; global search wraps it in seeded multistart plus basin-hopping
kicks.  The stopping rule uses the per-particle force scale
F_i = (1/N) sum_j grad W(x_i - x_j) so tolerances are N-independent.

Determinism: every start and hop derives its own generator from
(seed, index), and the incumbent is reduced in index order, so results are
bitwise identical for a fixed seed at any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import pairs
from .configuration import Configuration, ConfigurationError, min_pair_distance
from .potentials import PotentialSpec, metadata

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_STEP_MIN, _STEP_MAX = 1e-12, 1e3


@dataclass(frozen=True)
class OptimOpts:
    """Solver options; None fields are derived from the potential."""

    grad_tol: float = 1e-8
    max_iters: int = 50_000
    init_radius: float | None = None   # default 2 * max(1, R_W)
    n_starts: int = 16
    hop_count: int = 8
    hop_sigma: float | None = None     # default 0.1 * init_radius
    min_pair_dist: float = 1e-9
    seed: int = 0

    def resolved(self, spec: PotentialSpec) -> "OptimOpts":
        init = self.init_radius
        if init is None:
            r_w = metadata(spec).R_W
            init = 2.0 * max(1.0, r_w if math.isfinite(r_w) else 1.0)
        sigma = self.hop_sigma if self.hop_sigma is not None else 0.1 * init
        if min(self.grad_tol, init, sigma, self.min_pair_dist) <= 0 \
                or self.max_iters < 1 or self.n_starts < 1 or self.hop_count < 0:
            raise ValueError("invalid optimizer options")
        return replace(self, init_radius=init, hop_sigma=sigma)

    def to_json(self) -> dict:
        return {"grad_tol": self.grad_tol, "max_iters": self.max_iters,
                "init_radius": self.init_radius, "n_starts": self.n_starts,
                "hop_count": self.hop_count, "hop_sigma": self.hop_sigma,
                "min_pair_dist": self.min_pair_dist, "seed": self.seed}


@dataclass(frozen=True)
class OptimResult:
    best: Configuration
    energy: float
    force_residual: float
    starts_summary: tuple          # (start_index, final_energy) pairs
    iterations_used: int
    converged: bool
    energy_trace: tuple | None = None

    def to_json(self) -> dict:
        return {"energy": self.energy, "force_residual": self.force_residual,
                "iterations_used": self.iterations_used, "converged": self.converged,
                "starts_summary": [[i, e] for i, e in self.starts_summary],
                "best": self.best.to_json()}


def minimize_local(spec: PotentialSpec, X0: Configuration,
                   opts: OptimOpts) -> OptimResult:
    """Descend E_N from X0; monotone by construction.

    Steps that would bring a pair closer than min_pair_dist are rejected and
    halved.  Non-convergence within max_iters is reported, not raised.
    """
    opts = opts.resolved(spec)
    n = X0.n
    if n < 2:
        raise ConfigurationError("minimisation needs N >= 2")
    if spec.singular_at_origin and min_pair_distance(X0) < opts.min_pair_dist:
        raise ConfigurationError("initial configuration has a near-coincident pair")

    guard = opts.min_pair_dist if spec.singular_at_origin else 0.0
    # f is N E_N; an accepted trial's block is reused for its forces
    x = np.array(X0.points)
    state = pairs.SelfBlock(x)
    f = state.energy(spec) / (2.0 * n)
    grad = state.forces(spec) / n
    residual = float(np.max(np.linalg.norm(grad, axis=1)))
    trace = [f / n]
    iters = 0
    if residual <= opts.grad_tol:
        return OptimResult(Configuration(x), f / n, residual, ((0, f / n),),
                           0, True, tuple(trace))

    step = 1.0 / max(1.0, residual)
    converged = False
    for _ in range(opts.max_iters):
        iters += 1
        gnorm2 = float(np.sum(grad * grad))
        t = step
        accepted = False
        for _ in range(80):
            x_new = x - t * grad
            trial = pairs.SelfBlock(x_new)
            f_new = trial.energy(spec) / (2.0 * n)
            if trial.rmin >= guard and f_new <= f - _ARMIJO_C * t * gnorm2:
                accepted = True
                break
            t *= _SHRINK
            if t < _STEP_MIN:
                break
        if not accepted:
            break  # stalled: cannot make progress at the smallest step

        grad_new = trial.forces(spec) / n
        s = x_new - x
        y = grad_new - grad
        sy = float(np.sum(s * y))
        yy = float(np.sum(y * y))
        ss = float(np.sum(s * s))
        if sy > 0 and yy > 0:
            # alternate the two Barzilai-Borwein step lengths
            step = ss / sy if iters % 2 else sy / yy
            step = min(max(step, _STEP_MIN), _STEP_MAX)
        else:
            step = t
        x, f, grad = x_new, f_new, grad_new
        trace.append(f / n)
        residual = float(np.max(np.linalg.norm(grad, axis=1)))
        if residual <= opts.grad_tol:
            converged = True
            break

    energy = f / n
    return OptimResult(Configuration(x), energy, residual, ((0, energy),),
                       iters, converged, tuple(trace))


def _sample_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    z = rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    u = rng.random((n, 1)) ** (1.0 / d)
    return radius * u * z / norms


def minimize_multistart(spec: PotentialSpec, N: int, opts: OptimOpts,
                        *, workers: int = 1) -> OptimResult:
    """Multistart + basin-hopping search for an approximate global minimiser.

    The result is labelled approximate: no certificate of global optimality
    is implied.
    """
    if N < 2:
        raise ConfigurationError("need N >= 2")
    opts = opts.resolved(spec)

    def one_start(k: int) -> OptimResult:
        rng = np.random.default_rng([int(opts.seed) & 0xFFFFFFFFFFFFFFFF, k])
        x0 = _sample_ball(rng, N, spec.dimension, opts.init_radius)
        return minimize_local(spec, Configuration(x0), opts)

    indices = list(range(opts.n_starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_start, indices))
    else:
        results = [one_start(k) for k in indices]

    summary = []
    best = None
    iters = 0
    for k, res in zip(indices, results):
        summary.append((k, res.energy))
        iters += res.iterations_used
        if best is None or res.energy < best.energy:
            best = res

    for h in range(opts.hop_count):
        idx = opts.n_starts + h
        rng = np.random.default_rng([int(opts.seed) & 0xFFFFFFFFFFFFFFFF, 2**32 + idx])
        kicked = best.best.points + rng.normal(0.0, opts.hop_sigma,
                                               size=best.best.points.shape)
        if spec.singular_at_origin \
                and min_pair_distance(Configuration(kicked)) < opts.min_pair_dist:
            summary.append((idx, math.inf))
            continue
        res = minimize_local(spec, Configuration(kicked), opts)
        summary.append((idx, res.energy))
        iters += res.iterations_used
        if res.energy < best.energy:
            best = res

    return OptimResult(best.best, best.energy, best.force_residual,
                       tuple(summary), iters, best.converged, best.energy_trace)
