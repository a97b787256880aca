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
from .checks import integer, real
from .configuration import (Configuration, ConfigurationError, _blocks,
                            min_pair_distance)
from .potentials import PotentialSpec

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_STEP_MIN = 1e-12
_MEMORY = 10            # curvature pairs kept by L-BFGS
_CURVATURE_EPS = 1e-10  # store (s, y) only if s.y > eps |s| |y|


@dataclass(frozen=True)
class OptimOpts:
    """Solver options; None fields are derived from the potential.

    Construction checks every field but `seed` and raises ConfigurationError:
    the counts are integers (not bools) at or above their minima, and the
    lengths and tolerances positive finite numbers, where only `init_radius`
    and `hop_sigma` may be None.
    """

    grad_tol: float = 1e-8
    max_iters: int = 50_000
    init_radius: float | None = None   # default 2 * max(1, R_W)
    n_starts: int = 16
    hop_count: int = 8
    hop_sigma: float | None = None     # default 0.1 * init_radius
    min_pair_dist: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("max_iters", 1), ("n_starts", 1), ("hop_count", 0)):
            integer(getattr(self, name), name, ConfigurationError, minimum)
        for name in ("grad_tol", "init_radius", "hop_sigma", "min_pair_dist"):
            v = getattr(self, name)
            if v is not None or name in ("grad_tol", "min_pair_dist"):
                real(v, name, ConfigurationError, above=0.0)

    def resolved(self, spec: PotentialSpec) -> "OptimOpts":
        """These options with `init_radius` and `hop_sigma` filled in."""
        init = self.init_radius
        if init is None:
            r_w = spec.R_W
            init = 2.0 * max(1.0, r_w if math.isfinite(r_w) else 1.0)
        sigma = self.hop_sigma if self.hop_sigma is not None else 0.1 * init
        return replace(self, init_radius=init, hop_sigma=sigma)


@dataclass(frozen=True)
class OptimResult:
    """The outcome of a local solve or a multistart search.  energy_trace, the
    energy at the start and after each step of a local solve, is left out of
    to_json; it stays because the tests that check the descent is monotone
    read it."""

    best: Configuration
    energy: float
    force_residual: float
    iterations_used: int
    stop_reason: str               # "converged", "stalled" or "max_iters"
    energy_trace: tuple | None = None
    # (index, final energy) of each start and hop of a multistart search,
    # inf for a skipped hop; empty for a single local solve
    starts_summary: tuple = ()

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def to_json(self) -> dict:
        return {"energy": self.energy, "force_residual": self.force_residual,
                "iterations_used": self.iterations_used, "converged": self.converged,
                "starts_summary": [[i, e] for i, e in self.starts_summary],
                "best": self.best.to_json()}


def _lbfgs_direction(grad: np.ndarray, memory, scale: float) -> np.ndarray:
    """-H grad by the two-loop recursion over the stored flat (s, y, 1/s.y).

    H0 is (s.y / y.y) of the newest pair, or `scale` while memory is empty.
    """
    q = grad.ravel().copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if memory:
        s, y, rho = memory[-1]
        scale = 1.0 / (rho * (y @ y))
    q *= scale
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return -q.reshape(grad.shape)


def minimize_local(spec: PotentialSpec, X0: Configuration,
                   opts: OptimOpts) -> OptimResult:
    """Descend E_N from X0; monotone by construction.

    A potential of another dimension raises PotentialError.  A start with a
    coincident pair raises ConfigurationError, as does one closer than
    min_pair_dist under a singular kernel.  Steps that would make a pair
    coincide, or for a singular kernel bring it closer than min_pair_dist,
    are rejected and halved.  Non-convergence is reported in
    `stop_reason`, not raised: "stalled" when no step down to the smallest
    length is accepted, "max_iters" when the iteration budget runs out.
    """
    opts = opts.resolved(spec)
    _blocks(spec, X0, "minimisation")  # only for its checks of N and d
    n = X0.n

    guard = opts.min_pair_dist if spec.singular_at_origin else 0.0
    radial, derivative = spec.radial, spec.radial_derivative
    # f is N E_N; an accepted trial's block is reused for its forces
    x = np.array(X0.points)
    state = pairs.SelfBlock(x)
    if state.rmin == 0.0 or state.rmin < guard:
        # no force at a coincident pair, under any kernel
        raise ConfigurationError("initial configuration has a (near-)coincident pair")
    f = state.energy(radial) / (2.0 * n)
    grad = state.forces(derivative) / n
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
        slope = float(grad.ravel() @ d.ravel())
        if not slope < 0:
            memory.clear()
            d = -grad / max(1.0, residual)
            slope = float(grad.ravel() @ d.ravel())
        t = 1.0
        while t >= _STEP_MIN:
            x_new = x + t * d
            trial = pairs.SelfBlock(x_new)
            f_new = trial.energy(radial) / (2.0 * n)
            if trial.rmin > 0.0 and trial.rmin >= guard \
                    and f_new <= f + _ARMIJO_C * t * slope:
                break
            t *= _SHRINK
        else:
            stop = "stalled"  # cannot make progress at the smallest step
            break

        grad_new = trial.forces(derivative) / n
        s = (x_new - x).ravel()
        y = (grad_new - grad).ravel()
        sy = float(s @ y)
        if sy > _CURVATURE_EPS * math.sqrt((s @ s) * (y @ y)):
            memory.append((s, y, 1.0 / sy))
        x, f, grad = x_new, f_new, grad_new
        trace.append(f / n)
        residual = float(np.max(np.linalg.norm(grad, axis=1)))

    return OptimResult(Configuration(x), f / n, residual, iters, stop, tuple(trace))


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
    is implied.  An N that is not an integer >= 2, or a `workers` count that
    is not an integer >= 1, raises ConfigurationError.
    """
    N = integer(N, "N", ConfigurationError, minimum=2)
    workers = integer(workers, "workers", ConfigurationError)
    opts = opts.resolved(spec)
    seed = int(opts.seed) & 0xFFFFFFFFFFFFFFFF

    def one_start(k: int) -> OptimResult:
        rng = np.random.default_rng([seed, k])
        x0 = _sample_ball(rng, N, spec.dimension, opts.init_radius)
        return minimize_local(spec, Configuration(x0), opts)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solves = list(pool.map(one_start, range(opts.n_starts)))
    else:
        solves = [one_start(k) for k in range(opts.n_starts)]
    # one pass in index order: each hop kicks the incumbent of the solves
    # before it, and a hop that kicks a pair too close is skipped as None
    best = solves[0]
    for idx in range(opts.n_starts + opts.hop_count):
        if idx == len(solves):
            rng = np.random.default_rng([seed, 2**32 + idx])
            kicked = Configuration(best.best.points + rng.normal(
                0.0, opts.hop_sigma, size=best.best.points.shape))
            skip = spec.singular_at_origin \
                and min_pair_distance(kicked) < opts.min_pair_dist
            solves.append(None if skip else minimize_local(spec, kicked, opts))
        res = solves[idx]
        if res is not None and res.energy < best.energy:
            best = res

    return replace(best,
                   starts_summary=tuple((k, math.inf if res is None else res.energy)
                                        for k, res in enumerate(solves)),
                   iterations_used=sum(res.iterations_used for res in solves
                                       if res is not None))
