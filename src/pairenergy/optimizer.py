"""Approximate global minimisation of the discrete interaction energy.

Local search takes L-BFGS directions (the two-loop recursion of Liu & Nocedal
1989) with monotone Armijo backtracking and a pair-collision guard; global
search wraps it in seeded multistart plus basin-hopping kicks.  The stopping
rule uses the per-particle force scale F_i = (1/N) sum_j grad W(x_i - x_j) so
tolerances are N-independent.

Determinism: every start and hop derives its own generator from
(seed, index), and the incumbent is reduced in index order, so results are
bitwise identical for a fixed seed at any worker count.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import pairs
from .configuration import Configuration, ConfigurationError, min_pair_distance
from .potentials import PotentialSpec, metadata

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_STEP_MIN = 1e-12
_MEMORY = 10            # curvature pairs kept by L-BFGS
_CURVATURE_EPS = 1e-10  # store (s, y) only if s.y > eps |s| |y|


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
    stop_reason: str               # "converged", "stalled" or "max_iters"
    energy_trace: tuple | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def to_json(self) -> dict:
        return {"energy": self.energy, "force_residual": self.force_residual,
                "iterations_used": self.iterations_used, "converged": self.converged,
                "starts_summary": [[i, e] for i, e in self.starts_summary],
                "best": self.best.to_json()}


def _lbfgs_direction(grad: np.ndarray, memory, scale: float) -> np.ndarray:
    """-H grad by the two-loop recursion over the stored (s, y, 1/s.y) pairs.

    H0 is (s.y / y.y) of the newest pair, or `scale` while memory is empty.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(np.sum(s * q))
        q -= a * y
        alphas.append(a)
    if memory:
        s, y, rho = memory[-1]
        scale = 1.0 / (rho * float(np.sum(y * y)))
    q *= scale
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * float(np.sum(y * q))) * s
    return -q


def minimize_local(spec: PotentialSpec, X0: Configuration,
                   opts: OptimOpts) -> OptimResult:
    """Descend E_N from X0; monotone by construction.

    A start with a coincident pair raises ConfigurationError, as does one
    closer than min_pair_dist under a singular kernel.  Steps that would make
    a pair coincide, or for a singular kernel bring it closer than
    min_pair_dist, are rejected and halved.  Non-convergence is reported in
    `stop_reason`, not raised: "stalled" when no step down to the smallest
    length is accepted, "max_iters" when the iteration budget runs out.
    """
    opts = opts.resolved(spec)
    n = X0.n
    if n < 2:
        raise ConfigurationError("minimisation needs N >= 2")

    guard = opts.min_pair_dist if spec.singular_at_origin else 0.0
    # f is N E_N; an accepted trial's block is reused for its forces
    x = np.array(X0.points)
    state = pairs.SelfBlock(x)
    if state.rmin == 0.0 or state.rmin < guard:
        # no force at a coincident pair, under any kernel
        raise ConfigurationError("initial configuration has a (near-)coincident pair")
    f = state.energy(spec) / (2.0 * n)
    grad = state.forces(spec) / n
    residual = float(np.max(np.linalg.norm(grad, axis=1)))
    trace = [f / n]
    iters = 0
    stop = "converged"
    memory = deque(maxlen=_MEMORY)
    while not residual <= opts.grad_tol:
        if iters == opts.max_iters:
            stop = "max_iters"
            break
        iters += 1
        d = _lbfgs_direction(grad, memory, 1.0 / max(1.0, residual))
        slope = float(np.sum(grad * d))
        if not slope < 0:
            memory.clear()
            d = -grad / max(1.0, residual)
            slope = float(np.sum(grad * d))
        t = 1.0
        accepted = False
        for _ in range(80):
            x_new = x + t * d
            trial = pairs.SelfBlock(x_new)
            f_new = trial.energy(spec) / (2.0 * n)
            if trial.rmin > 0.0 and trial.rmin >= guard \
                    and f_new <= f + _ARMIJO_C * t * slope:
                accepted = True
                break
            t *= _SHRINK
            if t < _STEP_MIN:
                break
        if not accepted:
            stop = "stalled"  # cannot make progress at the smallest step
            break

        grad_new = trial.forces(spec) / n
        s = x_new - x
        y = grad_new - grad
        sy = float(np.sum(s * y))
        if sy > _CURVATURE_EPS * float(np.linalg.norm(s) * np.linalg.norm(y)):
            memory.append((s, y, 1.0 / sy))
        x, f, grad = x_new, f_new, grad_new
        trace.append(f / n)
        residual = float(np.max(np.linalg.norm(grad, axis=1)))

    energy = f / n
    return OptimResult(Configuration(x), energy, residual, ((0, energy),),
                       iters, stop, tuple(trace))


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
                       tuple(summary), iters, best.stop_reason, best.energy_trace)
