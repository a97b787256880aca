"""Approximate global minimisation of the discrete interaction energy.

Local search takes L-BFGS directions (the two-loop recursion of Liu & Nocedal
1989) with monotone Armijo backtracking and a pair-collision guard.  Once the
force residual is at most 1e-4, and N d <= 2000 (the dense Hessian within
checks.MAX_CELLS), it takes Newton steps from the exact Hessian, shifted
along the rigid motions and, where that is not positive definite (as near a
saddle), by a multiple of the identity (Nocedal & Wright 2006, Algorithm
3.3); a Hessian that is not finite leaves the step L-BFGS.  Global search
wraps local search in seeded multistart plus basin-hopping kicks.  The stopping
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
from .checks import MAX_CELLS, integer, real
from .configuration import (Configuration, ConfigurationError, check_pair_sum,
                            min_pair_distance)
from .potentials import PotentialSpec

_ARMIJO_C = 1e-4
# Newton steps below this force residual.  Iterates there can still have
# negative curvature, which the shift of _newton_direction absorbs; at 1e-5 one
# start of the N = 100 Morse sweep reached another minimum than L-BFGS did,
# at 1e-4 none did
_NEWTON_RESIDUAL = 1e-4
_SOLVE_ROWS = 64        # rows per diagonal block of _triangular_solve
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


def _triangular_solve(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """t^-1 b for a triangular t, lower or upper, by blocks of _SOLVE_ROWS rows:
    np.linalg.solve takes each diagonal block, and one matvec moves its part of
    the solution out of the rows still to solve."""
    m = len(b)
    z = np.array(b, dtype=float)
    starts = range(0, m, _SOLVE_ROWS)
    for i0 in starts if lower else reversed(starts):
        rows = slice(i0, min(i0 + _SOLVE_ROWS, m))
        z[rows] = np.linalg.solve(t[rows, rows], z[rows])
        rest = slice(rows.stop, m) if lower else slice(0, i0)
        z[rest] -= t[rest, rows] @ z[rows]
    return z


def _newton_direction(block: pairs.SelfBlock, x: np.ndarray, grad: np.ndarray,
                      spec: PotentialSpec, tau: float) -> tuple[np.ndarray | None, float]:
    """(-(A + tau I)^-1 grad, tau), where A is the Hessian H of N E_N at x,
    whose pair block is `block`, with max(diag H) added along each rigid
    motion; (None, tau) when H is not finite or has no positive diagonal entry.

    tau is the shift of Nocedal & Wright's Algorithm 3.3, with beta = 1e-3
    max(diag H): it starts at max(tau0, tau_prev / 2), where tau0 is 0 when
    min diag H > 0 and beta - min diag H otherwise, and tau_prev, the `tau`
    passed in, is the shift the solve's previous Newton step needed; while the
    Cholesky factorisation of A + tau I fails, tau becomes max(2 tau, beta).
    As A - H is positive semidefinite, the loop ends at the latest once tau
    exceeds H's Gershgorin bound.  The step is two triangular solves with the
    Cholesky factor.

    The rigid motions, orthonormal, are the translations e_k / sqrt(N) and the
    rotations about the centroid in each coordinate plane, Gram-Schmidt'd.
    """
    n, d = x.shape
    h = block.hessian(spec.radial_derivative, spec.radial_second)
    h /= n
    shift, low = float(h.diagonal().max()), float(h.diagonal().min())
    # np.linalg.cholesky returns NaNs for a non-finite H instead of raising;
    # without a positive diagonal entry (as for a far pair in d = 1) neither
    # the rigid motions nor beta have a positive scale
    if not (shift > 0.0 and np.isfinite(h).all()):
        return None, tau
    for k in range(d):
        h[k::d, k::d] += shift / n
    centred = x - x.mean(axis=0)
    rotations = []
    for k in range(d):
        for m in range(k + 1, d):
            q = np.zeros((n, d))
            q[:, k], q[:, m] = -centred[:, m], centred[:, k]
            q = q.ravel()
            size = np.linalg.norm(q)
            for p in rotations:
                q -= (p @ q) * p
            # a rotation that moves (next to) nothing, as about the line of
            # collinear points in d = 3, has no null direction to shift
            norm = np.linalg.norm(q)
            if norm > 1e-8 * size:
                rotations.append(q / norm)
    for q in rotations:
        h += np.outer(shift * q, q)
    beta = 1e-3 * shift
    tau = max(0.0 if low > 0.0 else beta - low, tau / 2)
    diagonal = h.reshape(-1)[::n * d + 1]   # a view: tau is added in place
    added = 0.0
    while True:
        diagonal += tau - added
        added = tau
        try:
            factor = np.linalg.cholesky(h)
            break
        except np.linalg.LinAlgError:
            tau = max(2.0 * tau, beta)
    z = _triangular_solve(factor, grad.ravel(), lower=True)
    return -_triangular_solve(factor.T, z, lower=False).reshape(n, d), tau


def minimize_local(spec: PotentialSpec, X0: Configuration,
                   opts: OptimOpts) -> OptimResult:
    """Descend E_N from X0; monotone by construction.

    A potential of another dimension raises PotentialError.  A start with a
    coincident pair raises ConfigurationError, as does one closer than
    min_pair_dist under a singular kernel.  Steps that would make a pair
    coincide, or for a singular kernel bring it closer than min_pair_dist,
    are rejected and halved.  Non-convergence is reported in
    `stop_reason`, not raised: "stalled" when no step down to the smallest
    length is accepted, "max_iters" when the iteration budget runs out.  An
    N > 2000 (pairs.check_square, the N x N block) raises ConfigurationError.

    Each iteration takes the L-BFGS direction, except that once the force
    residual is at most 1e-4 and N d <= 2000 it takes the Newton direction of
    _newton_direction: the Hessian, shifted along the rigid motions and by
    tau I until its Cholesky factorisation succeeds, where tau starts from
    half the previous Newton step's shift of this solve.  A Hessian with a
    NaN or an infinity leaves the iteration the L-BFGS direction.  Either
    step is backtracked by the same Armijo and collision rules, counts as one
    iteration, and feeds the L-BFGS memory.
    """
    opts = opts.resolved(spec)
    check_pair_sum(spec, X0, "minimisation")
    n = X0.n
    pairs.check_square(n, ConfigurationError)

    guard = opts.min_pair_dist if spec.singular_at_origin else 0.0
    radial, derivative = spec.radial, spec.radial_derivative
    newton = (n * X0.dim) ** 2 <= MAX_CELLS
    # f is N E_N; an accepted trial's block is reused for its forces and Hessian
    x = np.array(X0.points)
    block = pairs.SelfBlock(x)
    if block.rmin == 0.0 or block.rmin < guard:
        # no force at a coincident pair, under any kernel
        raise ConfigurationError("initial configuration has a (near-)coincident pair")
    f = block.energy(radial) / (2.0 * n)
    grad = block.forces(derivative) / n
    residual = float(np.max(np.linalg.norm(grad, axis=1)))
    trace = [f / n]
    iters = 0
    stop = "converged"
    memory = deque(maxlen=_MEMORY)
    tau = 0.0   # the last Newton step's shift: a local, so alike on any thread
    while not residual <= opts.grad_tol:
        if iters == opts.max_iters:
            stop = "max_iters"
            break
        iters += 1
        d = None
        if newton and residual <= _NEWTON_RESIDUAL:
            d, tau = _newton_direction(block, x, grad, spec, tau)
        if d is None:
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
        x, f, grad, block = x_new, f_new, grad_new, trial
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
