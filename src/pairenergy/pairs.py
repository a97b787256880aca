"""Pairwise distances and the kernel sums built on them.

Every particle distance of the package is measured here, by one r^2 rule:
the squares of one (rows, N) difference array per coordinate, summed axis by
axis (in d <= 2 bitwise the sum over the last axis of the (rows, N, d)
differences, in d >= 3 not always).  The sums take the kernel itself, such as
a potential's `radial` (W(0) included) or `radial_derivative`.  Self pairs are
walked in three fixed shapes, one job each, that never depend on worker counts
or the environment, so results are bitwise reproducible for a given input:

- `self_sums`: 512 x 512 tiles I <= J, one kernel value per unordered pair,
  for the energy, the per-particle potentials and the stationarity sums.  At
  N <= 512 (one tile) each sum is bitwise the row sum of the full kernel
  matrix with its diagonal zeroed; above, a sum of tile sums.
- `blocks`: 512 rows against all points (capped by `check_rows`), for per-row
  order statistics: Morrey, diameter, minimum distance, atomic energy.
- `SelfBlock`: one N x N block (capped by `check_square`), for the solver's
  trial energies, the forces and the solver's dense Hessian.
"""

from __future__ import annotations

import numpy as np

from .checks import cells

_ROWS = 512


def _differences(x: np.ndarray, y: np.ndarray):
    """([x[:, k] - y[:, k] for each k], r), all (len(x), len(y)) arrays."""
    diff = [x[:, k, None] - y[None, :, k] for k in range(x.shape[1])]
    r = diff[0] * diff[0]
    for dk in diff[1:]:
        r += dk * dk
    return diff, np.sqrt(r, out=r)


def distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """r with r[i, j] = |x_i - y_j|."""
    return _differences(x, y)[1]


def check_rows(n: int, error: type[Exception]):
    """Refuse with `error` n points whose row block is above checks.MAX_CELLS."""
    cells(min(n, _ROWS) * n, f"a pair block of {min(n, _ROWS)} x {n} cells", error)


def check_square(n: int, error: type[Exception]):
    """Refuse with `error` n points whose SelfBlock is above checks.MAX_CELLS."""
    cells(n * n, f"a trial pair block of {n} x {n} cells", error)


def blocks(x: np.ndarray):
    """Yield (i0, distances(x[i0:i0 + _ROWS], x)) over the row blocks of x."""
    for i0 in range(0, len(x), _ROWS):
        yield i0, distances(x[i0:i0 + _ROWS], x)


class SelfBlock:
    """A point set x against itself, in one N x N block.

    `diff[k]` holds x_ik - x_jk and `rmin` is the smallest distance between
    distinct points.  Self-distances are stored as 1.0 so kernels never see
    them; the sums below leave the self-pairs out.
    """

    __slots__ = ("diff", "r", "rmin")

    def __init__(self, x: np.ndarray):
        self.diff, self.r = _differences(x, x)
        np.fill_diagonal(self.r, np.inf)
        self.rmin = float(self.r.min())
        np.fill_diagonal(self.r, 1.0)

    def _values(self, kernel) -> np.ndarray:
        vals = np.asarray(kernel(self.r), dtype=float)
        np.fill_diagonal(vals, 0.0)
        return vals

    def energy(self, kernel) -> float:
        """sum over i and all j != i of kernel(|x_i - x_j|)."""
        return float(self._values(kernel).sum())

    def forces(self, derivative) -> np.ndarray:
        """sum_{j != i} derivative(r_ij) (x_i - x_j) / r_ij for each i, the
        force sum when `derivative` is W'; needs rmin > 0."""
        slope = self._values(lambda r: derivative(r) / r)
        return np.stack([np.add.reduce(slope * dk, axis=1) for dk in self.diff], axis=1)

    def hessian(self, derivative, second) -> np.ndarray:
        """The Jacobian of forces(derivative) when `second` is the derivative
        of `derivative` (W' and W''), an (N d, N d) array indexed like the
        flattened (N, d) points; needs rmin > 0.

        A pair i != j has the block -(W'/r I + (W'' - W'/r)/r^2 z z^T) at
        z = x_i - x_j, and the diagonal block of i is minus the sum of its row.
        """
        n, d = len(self.r), len(self.diff)
        slope = self._values(lambda r: derivative(r) / r)
        bend = self._values(second)
        bend -= slope
        bend /= self.r * self.r
        h = np.empty((n, d, n, d))
        own = np.arange(n)
        for k in range(d):
            for m in range(k, d):
                pair = bend * self.diff[k] * self.diff[m]
                if k == m:
                    pair += slope
                h[:, k, :, m] = -pair
                h[own, k, own, m] = pair.sum(axis=1)
                if k != m:   # each pair block is symmetric in i and j
                    h[:, m, :, k] = h[:, k, :, m]
        return h.reshape(n * d, n * d)


def self_sums(x: np.ndarray, kernel) -> np.ndarray:
    """sum_{j != i} kernel(|x_i - x_j|) for each i: a diagonal tile mirrors its
    strict upper triangle, an off-diagonal tile adds its rows to block I and
    its columns to block J."""
    out = np.zeros(len(x))
    for i0 in range(0, len(x), _ROWS):
        xi = x[i0:i0 + _ROWS]
        r = distances(xi, xi)
        upper = np.triu_indices(len(r), 1)
        vals = np.zeros_like(r)
        vals[upper] = kernel(r[upper])
        vals += vals.T
        out[i0:i0 + _ROWS] += vals.sum(axis=1)
        for j0 in range(i0 + _ROWS, len(x), _ROWS):
            vals = np.asarray(kernel(distances(xi, x[j0:j0 + _ROWS])), dtype=float)
            out[i0:i0 + _ROWS] += vals.sum(axis=1)
            out[j0:j0 + _ROWS] += vals.sum(axis=0)
    return out
