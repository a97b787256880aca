"""Pairwise distances and the kernel sums built on them.

Every particle distance of the package is measured here: the discrete
energy, the per-particle potentials and forces (also inside the optimizer),
the stationarity sums, the empirical Morrey seminorm, the ball masses, the
atomic continuum energy and the transport cost matrices.  W at a distance,
W(0) included, is the potential's `radial`.  Rows are processed in fixed
blocks, so results are bitwise reproducible for a given input: the blocking
never depends on worker counts or the environment.
"""

from __future__ import annotations

import numpy as np

_ROWS = 512


def differences(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diff, r) with diff[i, j] = x_i - y_j and r[i, j] = |x_i - y_j|."""
    diff = x[:, None, :] - y[None, :, :]
    return diff, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def blocks(x: np.ndarray):
    """Yield (i0, *differences(x[i0:i0 + _ROWS], x)) over the row blocks of x."""
    for i0 in range(0, len(x), _ROWS):
        yield (i0, *differences(x[i0:i0 + _ROWS], x))


class SelfBlock:
    """Rows i0:stop of a point set x against all of x.

    `rmin` is the smallest distance between distinct points in the block.
    Self-distances are stored as 1.0 so kernels never see them; the sums
    below leave the self-pairs out.
    """

    __slots__ = ("diff", "r", "rmin", "_self")

    def __init__(self, x: np.ndarray, i0: int = 0, stop: int | None = None):
        self.diff, self.r = differences(x[i0:stop], x)
        rows = np.arange(len(self.r))
        self._self = (rows, i0 + rows)
        self.r[self._self] = np.inf
        self.rmin = float(self.r.min())
        self.r[self._self] = 1.0

    def _values(self, spec) -> np.ndarray:
        vals = np.asarray(spec.radial(self.r), dtype=float)
        vals[self._self] = 0.0
        return vals

    def energy(self, spec) -> float:
        """sum over the block's rows i and all j != i of W(x_i - x_j)."""
        return float(self._values(spec).sum())

    def potentials(self, spec) -> np.ndarray:
        """sum_{j != i} W(x_i - x_j) for each row i of the block."""
        return self._values(spec).sum(axis=1)

    def forces(self, spec) -> np.ndarray:
        """sum_{j != i} grad W(x_i - x_j) for each row i; needs rmin > 0."""
        slope = np.asarray(spec.radial_derivative(self.r), dtype=float) / self.r
        slope[self._self] = 0.0
        return np.einsum("ij,ijk->ik", slope, self.diff)


def self_blocks(x: np.ndarray):
    """SelfBlocks over the row blocks of x."""
    for i0 in range(0, len(x), _ROWS):
        yield SelfBlock(x, i0, i0 + _ROWS)
