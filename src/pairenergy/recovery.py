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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .configuration import Configuration, discrete_energy
from .measures import AtomicMeasure, GridDensity, density_to_atoms, \
    continuum_energy_grid, wasserstein1
from .potentials import PotentialSpec


class RecoveryError(ValueError):
    """Invalid input to the recovery construction."""


def _integer_root(m: int, d: int) -> int:
    """Largest t >= 0 with t^d <= m (exact integer search)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
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
    main_range: tuple        # index span [start, stop) of main particles
    aux_range: tuple
    L: float

    def to_json(self) -> dict:
        return {"n": self.n, "counts": list(self.counts), "N_p": self.N_p,
                "N_e": self.N_e, "theta": self.theta,
                "main_range": list(self.main_range), "aux_range": list(self.aux_range),
                "L": self.L, "config": self.config.to_json()}


def _box_halfwidth(rho: GridDensity) -> float:
    lo, hi = rho.lo, rho.hi
    if not (np.all(hi == hi[0]) and np.all(lo == -hi[0])):
        raise RecoveryError("support box must be [-L, L)^d")
    return float(hi[0])


def _subgrid_nodes(lo: np.ndarray, side: float, segments: int, count: int,
                   d: int) -> np.ndarray:
    """First `count` interval-centre nodes, lexicographic, of the grid that
    splits [lo, lo+side)^d into segments^d equal cells."""
    h = side / segments
    out = np.empty((count, d))
    for row, idx in enumerate(itertools.product(range(segments), repeat=d)):
        if row == count:
            break
        out[row] = lo + (np.array(idx, dtype=float) + 0.5) * h
    return out


def build_recovery(rho: GridDensity, N: int) -> RecoveryResult:
    """Construct the N-particle recovery configuration for rho.

    rho's per-side resolution must be an integer multiple of
    n = floor(N^(1/(4d))) so cube masses are exact sums of grid cells; use
    measures.regrid(rho, multiple_of=n) first otherwise.
    """
    if N < 2:
        raise RecoveryError("need N >= 2")
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

    scale = n ** (4 * d)
    counts = []
    for rho_i in cube_mass:
        t = scale * float(rho_i)
        counts.append(int(math.floor(t + 1e-12 * max(1.0, t))))
    N_p = sum(counts)
    if N_p > N:
        raise AssertionError("main-particle count exceeded N; construction bug")
    N_e = N - N_p

    side = 2.0 * L / n
    pts = []
    for cube_idx, N_i in zip(itertools.product(range(n), repeat=d), counts):
        if N_i == 0:
            continue
        lo = -L + side * np.array(cube_idx, dtype=float)
        segments = _integer_root(N_i, d) + 1
        pts.append(_subgrid_nodes(lo, side, segments, N_i, d))

    if N_e > 0:
        s_e = _integer_root(N_e, d) + 1
        if s_e ** d < N_e:
            raise AssertionError("auxiliary grid capacity below N_e; construction bug")
        spacing = 1.0 / (math.sqrt(d) * s_e)
        aux_lo = np.full(d, 3.0 * L)
        pts.append(_subgrid_nodes(aux_lo, s_e * spacing, s_e, N_e, d))

    config = Configuration(np.concatenate(pts, axis=0))
    if config.n != N:
        raise AssertionError("particle bookkeeping mismatch")
    return RecoveryResult(config=config, n=n, counts=tuple(counts), N_p=N_p,
                          N_e=N_e, theta=N_p / N, main_range=(0, N_p),
                          aux_range=(N_p, N), L=L)


def auxiliary_count_bound(N: int, d: int) -> float:
    """The construction's guarantee: N_e <= 4 d N^(1-1/(4d)) + N^(1/4)."""
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
    the transport distance to rho; rows ordered by N."""
    e_rho = continuum_energy_grid(spec, rho, refine_levels=refine_levels)
    atoms = density_to_atoms(rho)
    rows = []
    for N in sorted(int(v) for v in N_list):
        rec = build_recovery(rho, N)
        e_n = discrete_energy(spec, rec.config)
        w1 = wasserstein1(AtomicMeasure.empirical(rec.config), atoms)
        rows.append(RecoveryRow(N=N, discrete_energy=e_n, continuum_energy=e_rho,
                                energy_gap=abs(e_n - e_rho), w1=w1, theta=rec.theta))
    return rows
