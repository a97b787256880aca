"""Recovery-sequence construction: empirical approximations of a compactly
supported probability measure whose discrete energies converge to the
continuum energy.

Given rho on [-L, L)^d with L >= 1 and a particle count N, the support box
is split into n^d equal cubes with n = floor(N^(1/(4d))).  Each cube gets
floor(n^(4d) * rho(cube)) "main" particles on an interior sub-grid; the
remaining "auxiliary" particles are parked on a uniform grid inside the
far-away unit-scale cube [3L, 3L + 1/sqrt(d))^d, so they are further than 2L
from every main particle and within distance 1 of each other.  All particles
carry mass 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .checks import integer
from .configuration import Configuration, discrete_energy
from .measures import AtomicMeasure, GridDensity, cell_centres, density_to_atoms, \
    continuum_energy_grid, wasserstein1
from .potentials import PotentialSpec


class RecoveryError(ValueError):
    """Invalid input to the recovery construction."""


def _integer_root(m: int, d: int) -> int:
    """Largest t >= 0 with t^d <= m (exact integer search)."""
    if m < 0:
        raise RecoveryError("m must be nonnegative")
    t = int(round(m ** (1.0 / d)))
    while t ** d > m:
        t -= 1
    while (t + 1) ** d <= m:
        t += 1
    return t


def _cube_count(N: int, d: int) -> int:
    """n = floor(N^(1/(4d))), exact."""
    return _integer_root(N, 4 * d)


@dataclass(frozen=True)
class RecoveryResult:
    config: Configuration
    n: int
    counts: tuple            # N_i per cube, lexicographic cube order
    N_p: int
    N_e: int
    theta: float
    aux_range: tuple         # index span [start, stop) of auxiliary particles
    L: float


def _box_halfwidth(rho: GridDensity) -> float:
    lo, hi = rho.lo, rho.hi
    if not (np.all(hi == hi[0]) and np.all(lo == -hi[0])):
        raise RecoveryError("support box must be [-L, L)^d")
    return float(hi[0])


def build_recovery(rho: GridDensity, N: int) -> RecoveryResult:
    """Construct the N-particle recovery configuration for rho.

    rho's per-side resolution must be an integer multiple of
    n = floor(N^(1/(4d))) so cube masses are exact sums of grid cells;
    recovery_convergence_report regrids rho to such a resolution itself.
    An N that is not an integer >= 2 raises RecoveryError.
    """
    N = integer(N, "N", RecoveryError, minimum=2)
    d = rho.dim
    L = _box_halfwidth(rho)
    if L < 1.0:
        raise RecoveryError("L must be >= 1")
    n = _cube_count(N, d)
    g = rho.resolution
    if g % n != 0:
        raise RecoveryError(
            f"grid resolution {g} is not a multiple of n = {n}; regrid first")

    # exact cube masses: sum aligned blocks of grid cells
    block = g // n
    m = rho.masses.reshape((g,) * d)
    for axis in range(d):
        shape = list(m.shape)
        shape[axis:axis + 1] = [n, block]
        m = m.reshape(shape).sum(axis=axis + 1)
    cube_mass = m.reshape(-1)  # lexicographic cube order

    t = float(n ** (4 * d)) * cube_mass
    counts = np.floor(t + 1e-12 * np.maximum(1.0, t)).astype(int).tolist()
    N_p = sum(counts)
    if N_p > N:
        raise AssertionError("main-particle count exceeded N; construction bug")
    N_e = N - N_p

    # each cube's main particles are the first N_i centres of its sub-grid of
    # segments^d cells
    side = 2.0 * L / n
    corners = -L + side * np.indices((n,) * d, dtype=float).reshape(d, -1).T
    pts = []
    for lo, N_i in zip(corners, counts):
        if N_i > 0:
            segments = _integer_root(N_i, d) + 1
            pts.append(cell_centres(lo, [side / segments] * d, segments)[:N_i])

    if N_e > 0:
        s_e = _integer_root(N_e, d) + 1
        if s_e ** d < N_e:
            raise AssertionError("auxiliary grid capacity below N_e; construction bug")
        spacing = 1.0 / (math.sqrt(d) * s_e)
        aux_side = s_e * spacing
        pts.append(cell_centres([3.0 * L] * d, [aux_side / s_e] * d, s_e)[:N_e])

    config = Configuration(np.concatenate(pts, axis=0))
    if config.n != N:
        raise AssertionError("particle bookkeeping mismatch")
    return RecoveryResult(config=config, n=n, counts=tuple(counts), N_p=N_p,
                          N_e=N_e, theta=N_p / N, aux_range=(N_p, N), L=L)


def auxiliary_count_bound(N: int, d: int) -> float:
    """The construction's guarantee: N_e <= 4 d N^(1-1/(4d)) + N^(1/4), for
    integers N >= 2 and d >= 1 (else RecoveryError)."""
    N, d = integer(N, "N", RecoveryError, minimum=2), integer(d, "d", RecoveryError)
    return 4.0 * d * N ** (1.0 - 1.0 / (4.0 * d)) + N ** 0.25


@dataclass(frozen=True)
class RecoveryRow:
    N: int
    discrete_energy: float
    continuum_energy: float
    energy_gap: float
    w1: float
    theta: float


def recovery_convergence_report(spec: PotentialSpec, rho: GridDensity,
                                N_list, *, refine_levels: int = 3) -> list[RecoveryRow]:
    """Build the recovery configuration for each N and compare energies and
    the transport distance to rho; rows ordered by N.

    For each N, rho is first regridded (measures.regrid) to the smallest
    resolution that is a multiple of n = floor(N^(1/(4d))), which is its own
    when that already is one; E(rho) and the atoms of rho are taken on that
    grid.  An N_list that is not a nonempty list or tuple of distinct
    integers >= 2 raises RecoveryError, and in d >= 2 an N whose W1 against
    the nonempty cells of its grid is above the cost-matrix cap
    (measures.check_transport_size) raises MeasureError, before any N is
    built.
    """
    if not isinstance(N_list, (list, tuple)) or not N_list:
        raise RecoveryError("N_list must be a nonempty list")
    ns = [integer(N, "N_list entry", RecoveryError, minimum=2) for N in N_list]
    if len(set(ns)) != len(ns):
        raise RecoveryError("N_list entries must be distinct")
    grids = {N: measures.regrid(rho, _cube_count(N, rho.dim)) for N in sorted(ns)}
    if rho.dim >= 2:
        for N, grid in grids.items():
            measures.check_transport_size(N, int(np.count_nonzero(grid.masses > 0)))
    rows = []
    for N, grid in grids.items():
        e_rho = continuum_energy_grid(spec, grid, refine_levels=refine_levels)
        rec = build_recovery(grid, N)
        e_n = discrete_energy(spec, rec.config)
        w1 = wasserstein1(AtomicMeasure.empirical(rec.config), density_to_atoms(grid))
        rows.append(RecoveryRow(N=N, discrete_energy=e_n, continuum_energy=e_rho,
                                energy_gap=abs(e_n - e_rho), w1=w1, theta=rec.theta))
    return rows
