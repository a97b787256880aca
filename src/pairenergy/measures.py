"""Probability measures and continuum-energy machinery.

Two carriers: AtomicMeasure (weighted Dirac atoms) and GridDensity (a
piecewise-constant density on a half-open box).  The continuum energy
E(rho) = (1/2) iint W(x-y) drho drho of a grid density is a midpoint rule
summed once per cell offset against the FFT mass autocorrelation; offsets
near the diagonal are refined by recursive subdivision, which handles the
integrable |x|^b singularities of the supported potentials.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np

from . import pairs
from .configuration import Configuration, discrete_energy
from .potentials import PotentialError, PotentialSpec

_MASS_TOL = 1e-12
# Cap on the cells of a built grid and on the difference vectors of one
# refinement level of continuum_energy_grid, checked before allocating.  With
# the default 3 levels the deepest level needs 2,996,433 vectors in d = 4,
# while d = 5 needs 16 to 19 million at the second level already.
_MAX_GRID_VECTORS = 4_000_000
# Relative slack of the near-offset test of continuum_energy_grid.  A tie
# (sum v_i^2 = d t^2 on cubic cells) must count as near whatever the last bits
# of the cell widths are, and a translated grid can differ in those bits from
# axis to axis.  1e-12 is far above that rounding and far below the smallest
# relative gap of a non-tie on cubic cells, 1 / (d t^2) (about 2e-4 in d = 5
# at 3 levels), so on cubic cells it decides exactly as integers would.
_NEAR_SLACK = 1e-12
# Atoms a measure keeps before the transport LP of wasserstein1.
_MAX_ATOMS = 512


class MeasureError(ValueError):
    """Invalid measure data or arguments."""


class TransportQuantisationWarning(UserWarning):
    """A transport input was truncated to the atom cap before the exact solve."""


# --------------------------------------------------------------------------
# Carriers
# --------------------------------------------------------------------------

class AtomicMeasure:
    """Finite list of (point, weight) atoms; weights nonnegative, sum 1."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        w = np.array(weights, dtype=float)
        if pts.ndim != 2 or w.shape != (pts.shape[0],):
            raise MeasureError("points must be (m, d) and weights (m,)")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise MeasureError("atoms must be finite")
        if np.any(w < 0):
            raise MeasureError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _MASS_TOL:
            raise MeasureError(f"weights must sum to 1 (got {float(w.sum())!r})")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, *_):
        raise AttributeError("AtomicMeasure is immutable")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empirical(cls, X: Configuration) -> "AtomicMeasure":
        """The empirical measure of a configuration: weight 1/N per point."""
        return cls(X.points, np.full(X.n, 1.0 / X.n))


class GridDensity:
    """Piecewise-constant probability density on an axis-aligned box [lo, hi)^d.

    `resolution` cells per side; `masses` holds the per-cell masses flattened
    in C order (axis 0 slowest), summing to 1.
    """

    __slots__ = ("lo", "hi", "resolution", "masses")

    def __init__(self, lo, hi, resolution, masses):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise MeasureError("lo and hi must be vectors of equal length")
        if not np.all(hi > lo):
            raise MeasureError("box must be nondegenerate (hi > lo)")
        g = int(resolution)
        if g < 1:
            raise MeasureError("resolution must be >= 1")
        m = np.array(masses, dtype=float).reshape(-1)
        if m.shape != (g ** len(lo),):
            raise MeasureError(f"expected {g ** len(lo)} cell masses, got {m.shape}")
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise MeasureError("cell masses must be finite and nonnegative")
        if abs(m.sum() - 1.0) > _MASS_TOL:
            raise MeasureError(f"cell masses must sum to 1 (got {float(m.sum())!r})")
        for arr in (lo, hi, m):
            arr.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "resolution", g)
        object.__setattr__(self, "masses", m)

    def __setattr__(self, *_):
        raise AttributeError("GridDensity is immutable")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def cell_width(self) -> np.ndarray:
        return (self.hi - self.lo) / self.resolution

    def cell_centres(self) -> np.ndarray:
        g, d = self.resolution, self.dim
        axes = [self.lo[k] + (np.arange(g) + 0.5) * self.cell_width[k] for k in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def save(self, path):
        """JSON header plus a sidecar CSV mass array, named relative to the header."""
        path = str(path)
        mass_path = path + ".masses.csv"
        with open(mass_path, "w") as fh:
            for v in self.masses:
                fh.write(f"{v:.17g}\n")
        with open(path, "w") as fh:
            json.dump({"d": self.dim, "lo": self.lo.tolist(), "hi": self.hi.tolist(),
                       "resolution": self.resolution,
                       "mass_csv": os.path.basename(mass_path)}, fh, indent=2)

    @classmethod
    def load(cls, path) -> "GridDensity":
        """Read what `save` wrote; malformed content raises MeasureError."""
        try:
            with open(path) as fh:
                head = json.load(fh)
            mass_path = os.path.join(os.path.dirname(str(path)), head["mass_csv"])
            masses = np.loadtxt(mass_path, dtype=float).reshape(-1)
            return cls(head["lo"], head["hi"], head["resolution"], masses)
        except MeasureError:
            raise   # the constructor's own message needs no wrapping
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
            raise MeasureError(f"malformed grid density {path}: {exc!r}") from exc


# --------------------------------------------------------------------------
# Builders and conversions
# --------------------------------------------------------------------------

def uniform_box(d: int, L: float, resolution: int) -> GridDensity:
    """Uniform probability on [-L, L)^d."""
    g = int(resolution)
    if g ** d > _MAX_GRID_VECTORS:
        raise MeasureError(f"a grid of {g}^{d} cells is above the cap of "
                           f"{_MAX_GRID_VECTORS} cells")
    m = np.full(g ** d, 1.0 / g ** d)
    return GridDensity([-L] * d, [L] * d, g, m)


def uniform_ball(d: int, radius: float, resolution: int) -> GridDensity:
    """Uniform probability on the ball of radius t, carried on a grid over
    its bounding box (cells selected by centre-in-ball)."""
    g = int(resolution)
    rho = uniform_box(d, radius, g)
    c = rho.cell_centres()
    inside = np.einsum("ij,ij->i", c, c) <= radius * radius
    if not np.any(inside):
        raise MeasureError("resolution too coarse: no cell centre inside the ball")
    m = np.where(inside, 1.0, 0.0)
    return GridDensity(rho.lo, rho.hi, g, m / m.sum())


def density_to_atoms(rho: GridDensity) -> AtomicMeasure:
    """One atom per nonempty cell, at the cell centre, with the cell mass."""
    c = rho.cell_centres()
    keep = rho.masses > 0
    return AtomicMeasure(c[keep], rho.masses[keep])


def regrid(rho: GridDensity, multiple_of: int) -> GridDensity:
    """Re-express rho at the smallest per-side resolution that is a multiple
    of `multiple_of`, by conservative exact-interval-overlap reassignment."""
    mult = int(multiple_of)
    if mult < 1:
        raise MeasureError("multiple_of must be >= 1")
    g = rho.resolution
    g2 = ((g + mult - 1) // mult) * mult
    if g2 == g:
        return rho
    d = rho.dim
    # per-axis overlap fractions: frac[K, k] = |old cell k ∩ new cell K| / |old cell k|
    edges_old = np.arange(g + 1) / g
    edges_new = np.arange(g2 + 1) / g2
    frac = np.zeros((g2, g))
    for K in range(g2):
        a, b = edges_new[K], edges_new[K + 1]
        left = np.maximum(edges_old[:-1], a)
        right = np.minimum(edges_old[1:], b)
        frac[K] = np.maximum(right - left, 0.0) * g
    m = rho.masses.reshape((g,) * d)
    for axis in range(d):
        m = np.tensordot(frac, m, axes=([1], [axis]))
        m = np.moveaxis(m, 0, axis)
    m = m.reshape(-1)
    total = m.sum()
    if abs(total - 1.0) > 1e-9:
        raise MeasureError("regrid lost mass; box/overlap mismatch")
    return GridDensity(rho.lo, rho.hi, g2, m / total)


# --------------------------------------------------------------------------
# Continuum energy
# --------------------------------------------------------------------------

def continuum_energy_atoms(spec: PotentialSpec, mu: AtomicMeasure) -> float:
    """E(mu) = (1/2) sum_ij w_i w_j W(x_i - x_j), self-pairs included.

    +inf whenever W is singular at the origin (atoms carry self-energy).
    """
    if spec.dimension != mu.dim:
        raise PotentialError("dimension mismatch between potential and measure")
    if spec.singular_at_origin:
        return math.inf
    w0 = float(spec.radial(0.0))
    w = mu.weights
    n = mu.n_atoms
    if n > 1 and np.all(w == w[0]) and w[0] == 1.0 / n:
        # equal-weight case: exactly the discrete energy plus the self term
        return discrete_energy(spec, Configuration(mu.points)) + w0 / (2.0 * n)
    total = 0.0
    for i0, r in pairs.blocks(mu.points):
        total += float(w[i0:i0 + len(r)] @ spec.radial(r) @ w)
    return 0.5 * total


def continuum_energy_grid(spec: PotentialSpec, rho: GridDensity,
                          refine_levels: int = 3) -> float:
    """Midpoint-rule double integral of W, with one value per cell offset.

    On the grid, W between cells i and j depends only on the offset k = i - j,
    so E = (1/2) sum_k A(k) K(k), where A(k) = sum_i m_i m_{i+k} is the mass
    autocorrelation (by FFT).  K(k) = W(|k w|) for offsets farther than 2 cell
    diagonals.  Offsets within 2 diagonals are refined by recursive 2^d
    subdivision down to `refine_levels`, with the same rule on the subcells;
    at the deepest level exactly-coincident sub-pairs contribute W(0) when
    finite and vanish for integrable singular kernels.  Only offsets and cell
    widths enter, so the result is translation invariant.

    Nearness is one comparison on every grid.  Offsets are integer vectors v
    in units of u, the deepest half-subcell, and (t, ..., t) in those units
    spans 2 diagonals of the current (sub)cell; v is near when
    sum_i v_i^2 u_i^2 <= t^2 sum_i u_i^2 (1 + _NEAR_SLACK), so ties count as
    near on every grid, whatever the last bits of the cell widths.
    """
    if spec.dimension != rho.dim:
        raise PotentialError("dimension mismatch between potential and density")
    if rho.resolution < 4:
        raise MeasureError("grid too coarse for near-diagonal refinement (need g >= 4)")
    if refine_levels < 1:
        raise MeasureError("refine_levels must be >= 1")

    d, g, levels = rho.dim, rho.resolution, refine_levels
    shape, axes = (2 * g - 1,) * d, tuple(range(d))
    f = np.fft.rfftn(rho.masses.reshape((g,) * d), s=shape, axes=axes)
    acorr = np.fft.fftshift(np.fft.irfftn(f * f.conj(), s=shape, axes=axes), axes=axes)
    weight = acorr.reshape(-1)
    # offsets in units of w / 2^(levels+1), in which every difference of
    # subcell centres is an integer vector
    u2 = (rho.cell_width / 2 ** (levels + 1)) ** 2
    diff = (np.indices(shape, dtype=float).reshape(d, -1).T - (g - 1)) * 2 ** (levels + 1)
    # the (2^d)^2 subpairs of a pair differ by steps in {-1, 0, 1}^d, with
    # multiplicity prod(2 - |step_i|)
    steps = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"),
                     axis=-1).reshape(-1, d)
    share = np.prod(2 - np.abs(steps), axis=1) / 4 ** d

    total = 0.0
    for level in range(levels):
        r2 = np.square(diff) @ u2
        t = 2 ** (levels + 2 - level)   # 2 (sub)cell diagonals
        near = r2 <= t * t * u2.sum() * (1.0 + _NEAR_SLACK)
        total += float(weight[~near] @ spec.radial(np.sqrt(r2[~near])))
        count = int(near.sum()) * len(steps)
        if count > _MAX_GRID_VECTORS:
            raise MeasureError(
                f"refinement level {level + 1} needs {count} difference vectors, "
                f"above the cap of {_MAX_GRID_VECTORS}")
        diff = (diff[near, None, :] + steps * 2 ** (levels - level)).reshape(-1, d)
        weight = (weight[near, None] * share).reshape(-1)
    # exactly coincident sub-pairs at the deepest level: W(0), or 0 for an
    # integrable singular core
    r = np.sqrt(np.square(diff) @ u2)
    zero = r == 0.0
    core = 0.0 if spec.singular_at_origin else float(spec.radial(0.0))
    total += float(weight @ np.where(zero, core, spec.radial(np.where(zero, 1.0, r))))
    return 0.5 * total


# --------------------------------------------------------------------------
# Wasserstein-1
# --------------------------------------------------------------------------

def _w1_1d(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    ts = np.unique(np.concatenate([mu.points[:, 0], nu.points[:, 0]]))
    if len(ts) == 1:
        return 0.0

    def cdf(meas):
        order = np.argsort(meas.points[:, 0], kind="stable")
        xs = meas.points[order, 0]
        cw = np.cumsum(meas.weights[order])
        idx = np.searchsorted(xs, ts, side="right")
        return np.where(idx > 0, cw[np.maximum(idx - 1, 0)], 0.0)

    fmu, fnu = cdf(mu), cdf(nu)
    return float(np.sum(np.abs(fmu[:-1] - fnu[:-1]) * np.diff(ts)))


def _w1_assignment(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    from scipy.optimize import linear_sum_assignment   # here, so the package loads no scipy

    cost = pairs.distances(mu.points, nu.points)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / mu.n_atoms


def _quantise(mu: AtomicMeasure) -> AtomicMeasure:
    if mu.n_atoms <= _MAX_ATOMS:
        return mu
    warnings.warn(f"measure truncated from {mu.n_atoms} to {_MAX_ATOMS} atoms "
                  "before the exact transport solve", TransportQuantisationWarning,
                  stacklevel=3)
    keep = np.argsort(-mu.weights, kind="stable")[:_MAX_ATOMS]
    keep = np.sort(keep)
    w = mu.weights[keep]
    return AtomicMeasure(mu.points[keep], w / w.sum())


def _w1_lp(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    from scipy.optimize import linprog   # here, so the package loads no scipy
    from scipy.sparse import coo_matrix

    n, m = mu.n_atoms, nu.n_atoms
    cost = pairs.distances(mu.points, nu.points).reshape(-1)
    # variable i*m + j carries plan entry (i, j): it sits in source row i and
    # in target row n + j, except for j = m - 1, whose constraint is redundant
    var = np.arange(n * m)
    target = var[var % m < m - 1]
    rows = np.concatenate([var // m, n + target % m])
    cols = np.concatenate([var, target])
    a_eq = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + m - 1, n * m))
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm")
    if not res.success:
        raise MeasureError(f"transport LP failed: {res.message}")
    return float(res.fun)


def wasserstein1(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Wasserstein-1 distance between atomic measures, exact in d = 1, between
    equal-weight measures of equal size, and up to `_MAX_ATOMS` atoms each.

    d = 1 uses the quantile (CDF) coupling; equal-weight equal-count inputs
    use an exact optimal assignment; anything else is solved as a transport
    LP by the HiGHS interior-point method, after a measure above `_MAX_ATOMS`
    atoms is truncated to its `_MAX_ATOMS` heaviest atoms (renormalised, with
    a TransportQuantisationWarning), so the result is then not exact.
    """
    if mu.dim != nu.dim:
        raise MeasureError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    # canonical operand order makes the computation exactly symmetric
    key_mu = (mu.n_atoms, mu.points.tobytes(), mu.weights.tobytes())
    key_nu = (nu.n_atoms, nu.points.tobytes(), nu.weights.tobytes())
    if key_nu < key_mu:
        mu, nu = nu, mu
    if mu.dim == 1:
        return _w1_1d(mu, nu)
    if mu.n_atoms == nu.n_atoms \
            and np.all(mu.weights == mu.weights[0]) \
            and np.all(nu.weights == nu.weights[0]):
        return _w1_assignment(mu, nu)
    mu = _quantise(mu)
    nu = _quantise(nu)
    return _w1_lp(mu, nu)
