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

import numpy as np

from . import pairs
from .checks import cells, integer, json_file, json_object, real, reals
from .configuration import Configuration, discrete_energy
from .potentials import PotentialError, PotentialSpec

_MASS_TOL = 1e-12
# Relative slack of the near-offset test of continuum_energy_grid.  A tie
# (sum v_i^2 = d t^2 on cubic cells) must count as near whatever the last bits
# of the cell widths are, and a translated grid can differ in those bits from
# axis to axis.  1e-12 is far above that rounding and far below the smallest
# relative gap of a non-tie on cubic cells, 1 / (d t^2) (about 2e-4 in d = 5
# at 3 levels), so on cubic cells it decides exactly as integers would.
_NEAR_SLACK = 1e-12
# Rows of the cost matrix that the transport simplex prices at once.
_PRICING_ROWS = 4
# The transport simplex gives up after this many pivots per node.
_PIVOTS_PER_NODE = 100


class MeasureError(ValueError):
    """Invalid measure data or arguments."""


class TransportQuantisationWarning(UserWarning):
    """Never raised: wasserstein1 is exact.  The benchmark's tracer still
    looks the name up."""


# --------------------------------------------------------------------------
# Carriers
# --------------------------------------------------------------------------

class AtomicMeasure:
    """Finite list of (point, weight) atoms; weights nonnegative, sum 1.
    A copy or an unpickled value is rebuilt by the constructor."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        pts = reals(points, "points", MeasureError)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        w = reals(weights, "weights", MeasureError)
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

    def __reduce__(self):
        return AtomicMeasure, (self.points, self.weights)

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

    `lo` and `hi` are copied, each a vector of d >= 1 finite numbers;
    `resolution` cells per side, an integer >= 1; `masses` holds the per-cell
    masses flattened in C order (axis 0 slowest), summing to 1.  Invalid
    arguments raise MeasureError.  A copy or an unpickled value is rebuilt by
    the constructor, so it is checked and its arrays stay read-only.
    """

    __slots__ = ("lo", "hi", "resolution", "masses")

    def __init__(self, lo, hi, resolution, masses):
        lo, hi = (np.array([real(v, f"{name}[{k}]", MeasureError) for k, v in
                            enumerate(np.atleast_1d(np.asarray(box, dtype=object)))])
                  for name, box in (("lo", lo), ("hi", hi)))
        if lo.shape != hi.shape or lo.size == 0:
            raise MeasureError("lo and hi must be nonempty vectors of equal length")
        if not np.all(hi > lo):
            raise MeasureError("box must be nondegenerate (hi > lo)")
        g = integer(resolution, "resolution", MeasureError)
        m = reals(masses, "masses", MeasureError).reshape(-1)
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

    def __reduce__(self):
        return GridDensity, (self.lo, self.hi, self.resolution, self.masses)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def cell_width(self) -> np.ndarray:
        return (self.hi - self.lo) / self.resolution

    def cell_centres(self) -> np.ndarray:
        return cell_centres(self.lo, self.cell_width, self.resolution)

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
        """Read what `save` wrote; malformed content raises MeasureError with
        a message that names the file and the key."""
        head = json_object(json_file(path, "grid density", MeasureError),
                           f"grid density {path}", MeasureError,
                           required=("d", "lo", "hi", "resolution", "mass_csv"))
        if not isinstance(head["mass_csv"], str):
            raise MeasureError(f"grid density {path}: mass_csv must be a file name string")
        mass_path = os.path.join(os.path.dirname(str(path)), head["mass_csv"])
        try:
            masses = np.loadtxt(mass_path, dtype=float).reshape(-1)
        except ValueError as exc:
            raise MeasureError(f"grid density {path}: {head['mass_csv']} must hold one "
                               f"number per line: {exc}") from None
        try:
            rho = cls(head["lo"], head["hi"], head["resolution"], masses)
            if integer(head["d"], "d", MeasureError) != rho.dim:
                raise MeasureError(f"d must be the length of lo and hi, {rho.dim}")
        except MeasureError as exc:
            raise MeasureError(f"grid density {path}: {exc}") from None
        return rho


# --------------------------------------------------------------------------
# Builders and conversions
# --------------------------------------------------------------------------

def cell_centres(lo, width, g: int) -> np.ndarray:
    """The centres, in C order (axis 0 slowest), of the g^d cells with the
    given width per axis that tile the box from corner lo."""
    axes = [x + (np.arange(g) + 0.5) * w for x, w in zip(lo, width)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def uniform_box(d: int, L: float, resolution: int) -> GridDensity:
    """Uniform probability on [-L, L)^d; d and resolution must be integers >= 1,
    L positive finite and the grid at most checks.MAX_CELLS cells, else
    MeasureError."""
    d = integer(d, "d", MeasureError)
    L = real(L, "L", MeasureError, above=0.0)
    g = integer(resolution, "resolution", MeasureError)
    cells(g ** d, f"a grid of {g}^{d} cells", MeasureError)
    m = np.full(g ** d, 1.0 / g ** d)
    return GridDensity([-L] * d, [L] * d, g, m)


def uniform_ball(d: int, radius: float, resolution: int) -> GridDensity:
    """Uniform probability on the ball of radius t, carried on a grid over
    its bounding box (cells selected by centre-in-ball).  Arguments are
    checked as in uniform_box."""
    rho = uniform_box(d, radius, resolution)
    c = rho.cell_centres()
    inside = np.einsum("ij,ij->i", c, c) <= radius * radius
    if not np.any(inside):
        raise MeasureError("resolution too coarse: no cell centre inside the ball")
    m = np.where(inside, 1.0, 0.0)
    return GridDensity(rho.lo, rho.hi, rho.resolution, m / m.sum())


def density_to_atoms(rho: GridDensity) -> AtomicMeasure:
    """One atom per nonempty cell, at the cell centre, with the cell mass."""
    c = rho.cell_centres()
    keep = rho.masses > 0
    return AtomicMeasure(c[keep], rho.masses[keep])


def _cell_masses(rho: GridDensity, g2: int) -> np.ndarray:
    """The masses, in C order, that rho gives the g2^d equal cells of its box,
    for any integer g2 >= 1, by exact interval overlaps axis by axis."""
    g, d = rho.resolution, rho.dim
    # per-axis overlap fractions: frac[K, k] = |old cell k ∩ new cell K| / |old cell k|
    edges_old = np.arange(g + 1) / g
    edges_new = np.arange(g2 + 1) / g2
    frac = np.maximum(np.minimum(edges_old[1:], edges_new[1:, None])
                      - np.maximum(edges_old[:-1], edges_new[:-1, None]), 0.0) * g
    m = rho.masses.reshape((g,) * d)
    for axis in range(d):
        m = np.tensordot(frac, m, axes=([1], [axis]))
        m = np.moveaxis(m, 0, axis)
    return m.reshape(-1)


def regrid(rho: GridDensity, multiple_of: int) -> GridDensity:
    """Re-express rho at the smallest per-side resolution that is a multiple
    of `multiple_of`, an integer >= 1 (else MeasureError), by conservative
    exact-interval-overlap reassignment.  A new grid above checks.MAX_CELLS
    cells raises MeasureError, as in uniform_box."""
    mult = integer(multiple_of, "multiple_of", MeasureError)
    g = rho.resolution
    g2 = ((g + mult - 1) // mult) * mult
    if g2 == g:
        return rho
    cells(g2 ** rho.dim, f"a grid of {g2}^{rho.dim} cells", MeasureError)
    m = _cell_masses(rho, g2)
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
    Unequal weights on more than 7812 atoms (pairs.check_rows) raise
    MeasureError before any work.
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
    for i0, r in pairs.blocks(mu.points, MeasureError):
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
    near on every grid, whatever the last bits of the cell widths.  Any g >= 1
    works.  A refine_levels not an integer in [1, 30], or a (2g - 1)^d offset
    table or a level of vectors above checks.MAX_CELLS, raises MeasureError.
    """
    if spec.dimension != rho.dim:
        raise PotentialError("dimension mismatch between potential and density")
    levels = integer(refine_levels, "refine_levels", MeasureError)
    if levels > 30:     # under the cell cap, g 2^(levels+1) < 2^53 stays exact
        raise MeasureError("refine_levels must be an integer in [1, 30]")

    d, g = rho.dim, rho.resolution
    shape, axes = (2 * g - 1,) * d, tuple(range(d))
    cells((2 * g - 1) ** d, f"an offset table of {2 * g - 1}^{d} cells", MeasureError)
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
        cells(count, f"refinement level {level + 1} of {count} vectors", MeasureError)
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


class _Basis:
    """A spanning-tree basis of the transport problem from a to b.

    Nodes 0..n-1 are the rows (the atoms of a) and n..n+m-1 the columns; a
    basis is a tree of n + m - 1 cells rooted at the first column.  Each node
    keeps its parent, the flow of its cell to the parent and its children,
    and `pot` holds the potentials u_i, v_j with u_i + v_j = c_ij on every
    tree cell.  `mark` holds the stamp of the last walk that reached each
    node; `pivot` finds the apex of its cycle with two such walks.

    The start is the north-west-corner rule, each new cell hanging a new row
    or column from the current one.  A row is left on a tie, so a zero-flow
    cell only ever hangs a row from a column; the weights are positive and
    the last row and column take the remainders, so no flow is negative.
    Such a tree is strongly feasible (Cunningham 1976), and `pivot` keeps it
    so, which rules out cycling.
    """

    def __init__(self, cost: np.ndarray, a: np.ndarray, b: np.ndarray):
        n, m = cost.shape
        self.cost, self.n = cost, n
        self.parent, self.flow = [-1] * (n + m), [0.0] * (n + m)
        self.children = [[] for _ in self.parent]
        self.mark, self.stamp = [0] * (n + m), 0
        self.parent[0], self.children[n] = n, [0]
        i = j = node = 0    # node: the row or column that cell (i, j) hangs
        s, t = a[0], b[0]
        while True:
            x = max(t, 0.0) if i == n - 1 else s if j == m - 1 else min(s, t)
            self.flow[node] = x
            if i == n - 1 and j == m - 1:
                break
            s, t = s - x, t - x
            if j == m - 1 or (i < n - 1 and s <= t):
                i += 1
                node, up, s = i, n + j, a[i]
            else:
                j += 1
                node, up, t = n + j, i, b[j]
            self.parent[node] = up
            self.children[up].append(node)
        self.side = np.concatenate([np.ones(n), -np.ones(m)])   # u and v shift apart
        self.pot = self.potentials()

    def cell(self, x: int) -> tuple[int, int]:
        """(row, column) of the cell from node x to its parent."""
        p = self.parent[x]
        return (x, p - self.n) if x < self.n else (p, x - self.n)

    def potentials(self) -> np.ndarray:
        """The potentials recomputed from the tree, 0 at the root."""
        pot = np.zeros(len(self.parent))
        order = [self.n]
        for x in order:     # parents first, as the list grows
            order.extend(self.children[x])
        for x in order[1:]:
            pot[x] = self.cost[self.cell(x)] - pot[self.parent[x]]
        return pot

    def pivot(self, i: int, j: int, rc: float):
        """Bring cell (i, j), whose reduced cost rc is negative, into the basis;
        j is a column node."""
        n, parent, flow, children, mark = self.n, self.parent, self.flow, \
            self.children, self.mark
        # the cycle: cell (i, j) and the tree paths from i and j to their
        # apex.  Two walks go up from i and j in turn, each stamping the
        # nodes it reaches; the first node one walk finds stamped by the
        # other is the apex, and the other walk's path is cut there.
        si = self.stamp = self.stamp + 2
        sj = si + 1
        mark[i], mark[j] = si, sj
        p, q, up_i, up_j = i, j, [i], [j]
        while True:
            if p != n:      # the root has no parent
                p = parent[p]
                if mark[p] == sj:
                    del up_j[up_j.index(p):]
                    break
                mark[p] = si
                up_i.append(p)
            if q != n:
                q = parent[q]
                if mark[q] == si:
                    del up_i[up_i.index(q):]
                    break
                mark[q] = sj
                up_j.append(q)
        # flow goes apex -> i -> j -> apex: a cell loses it where its child is
        # a row on the side of i or a column on the side of j.  Cunningham's
        # rule: the last blocking cell met from the apex leaves.
        lose_i = [x for x in up_i if x < n]
        lose_j = [x for x in up_j if x >= n]
        delta = min(flow[x] for x in lose_i + lose_j)
        blocking = [x for x in lose_j if flow[x] == delta]
        if blocking:
            out, path, enter, other = blocking[-1], up_j, j, i
        else:
            out = next(x for x in lose_i if flow[x] == delta)
            path, enter, other = up_i, i, j
        for x in up_i:
            flow[x] += -delta if x < n else delta
        for x in up_j:
            flow[x] += delta if x < n else -delta
        # cut the leaving cell, reverse the path enter..out, hang it from other
        children[parent[out]].remove(out)
        seg = path[:path.index(out) + 1]
        for y, x in zip(seg[-2::-1], seg[:0:-1]):
            children[x].remove(y)
            children[y].append(x)
            parent[x], flow[x] = y, flow[y]
        parent[enter], flow[enter] = other, delta
        children[other].append(enter)
        # the potentials of the cut-off subtree shift so that u_i + v_j = c_ij
        # on the entering cell, through one index array of its nodes
        sub = [enter]
        for x in sub:       # the list grows as it is read
            sub.extend(children[x])
        sub = np.fromiter(sub, np.intp, len(sub))
        self.pot[sub] += (rc if enter < n else -rc) * self.side[sub]


def _w1_simplex(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Exact W1 by the primal transportation simplex on spanning-tree bases.

    Both measures are sorted by their projection on (1, ..., 1), so the
    north-west-corner start is the monotone coupling of those projections.
    Pricing takes the most negative reduced cost c_ij - u_i - v_j of the
    first block of _PRICING_ROWS rows that has one below -1e-11 of the
    largest cost, going on from the block after the last pivot's.  When no
    block has one, the potentials are recomputed from the tree and every
    cell is priced again.  The primal cost is certified by the dual
    sum_i a_i u_i + sum_j b_j v_j agreeing with it to 1e-12 of the largest
    cost.  Atoms of zero weight are dropped first.
    """
    sorted_atoms = []
    for meas in (mu, nu):
        keep = np.flatnonzero(meas.weights > 0)
        keep = keep[np.argsort(meas.points[keep].sum(axis=1), kind="stable")]
        w = meas.weights[keep]
        sorted_atoms.append((meas.points[keep], w / w.sum()))
    (xa, a), (xb, b) = sorted_atoms
    cost = pairs.distances(xa, xb)
    n, m = cost.shape
    scale = float(cost.max())
    tol = 1e-11 * scale
    basis = _Basis(cost, a, b)
    u, v = basis.pot[:n], basis.pot[n:]
    starts = range(0, n, _PRICING_ROWS)
    block, idle, pivots, cap = 0, 0, 0, _PIVOTS_PER_NODE * (n + m)
    while True:
        while idle < len(starts):
            r0 = starts[block]
            block = (block + 1) % len(starts)
            reduced = cost[r0:r0 + _PRICING_ROWS] - u[r0:r0 + _PRICING_ROWS, None] - v
            k = int(reduced.argmin())
            rc = float(reduced.flat[k])
            if rc >= -tol:
                idle += 1
                continue
            idle, pivots = 0, pivots + 1
            if pivots > cap:
                raise MeasureError(f"transport simplex did not finish in {cap} pivots")
            basis.pivot(r0 + k // m, n + k % m, rc)
        basis.pot[:] = basis.potentials()
        if float((cost - u[:, None] - v).min()) >= -tol:
            break
        idle = 0
    primal = math.fsum(basis.flow[x] * cost[basis.cell(x)] for x in range(n + m) if x != n)
    dual = float(a @ u + b @ v)
    if abs(primal - dual) > 1e-12 * scale:
        raise MeasureError(f"transport simplex primal {primal!r} and dual {dual!r} differ")
    return primal


def check_transport_size(n: int, m: int):
    """Refuse with MeasureError an n x m W1 cost matrix above checks.MAX_CELLS."""
    cells(n * m, f"a transport cost matrix of {min(n, m)} x {max(n, m)} cells", MeasureError)


def wasserstein1(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Exact Wasserstein-1 distance between atomic measures.

    d = 1 uses the quantile (CDF) coupling; d >= 2 solves the transport
    problem with the transportation simplex of _w1_simplex, in the memory of
    its n x m cost matrix.  check_transport_size refuses that matrix above
    checks.MAX_CELLS cells before it is allocated.
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
    check_transport_size(mu.n_atoms, nu.n_atoms)
    return _w1_simplex(mu, nu)
