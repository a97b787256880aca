"""Structural diagnostics for particle configurations.

These verify, on any given configuration, the quantitative structures known
to hold for discrete energy minimisers: the per-N diameter bound, empirical
Morrey regularity, the approximate Euler-Lagrange property (spread of the
per-particle potentials), the stationarity inequality at finite epsilon, and
local ball-mass lower bounds.  On non-minimisers the numbers are still well
defined; they just need not satisfy the minimiser inequalities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .checks import real
from .configuration import (Configuration, ConfigurationError, ball_mass, check_pair_sum,
                            diameter, min_pair_distance, per_particle_potentials)
from .pairs import blocks, self_sums
from .potentials import PotentialSpec, _ball_deviation


@dataclass(frozen=True)
class MorreySeminorm:
    value: float
    argmax_index: int
    argmax_radius: float
    single_point: bool = False


def empirical_morrey_seminorm(X: Configuration, exponent: float) -> MorreySeminorm:
    """Exact sup over r > 0 and particles i of r^{-exponent} m_{i,r}(X).

    m_{i,r} is the open-ball mass around x_i without the centre particle, a
    right-continuous step function of r, so the supremum is attained in the
    limit r decreasing to one of the interparticle distances D: it equals the
    max over i and D of D^{-exponent} (1/N) #{j != i : |x_j-x_i| <= D}.  Rows
    come from the row blocks of `pairs`, sorted: the k-th smallest distance
    of row i (from k = 0) gets the count k + 1, which is exact at the last of
    tied distances and smaller before it, so the row maximum is the exact
    one.  Coincident points make the supremum infinite.  An exponent that is
    not a positive finite number, or N > 7812 (pairs.check_rows), raises
    ConfigurationError before any work.
    """
    exponent = real(exponent, "exponent", ConfigurationError, above=0.0)
    n = X.n
    if n < 2:
        return MorreySeminorm(0.0, 0, math.nan, single_point=True)
    counts = np.arange(1, n + 1) / n
    best, bi, br = -math.inf, 0, math.nan
    for i0, r in blocks(X.points, ConfigurationError):
        # the self pair sorts last, where inf^{-exponent} = 0 never wins
        np.fill_diagonal(r[:, i0:], np.inf)
        r.sort(axis=1)
        coincident = r[:, 0] == 0.0
        if coincident.any():
            return MorreySeminorm(math.inf, i0 + int(np.argmax(coincident)), 0.0)
        vals = r ** (-exponent) * counts
        k = vals.argmax(axis=1)
        row_best = vals.max(axis=1)
        i = int(np.argmax(row_best))
        if row_best[i] > best:
            best, bi, br = float(row_best[i]), i0 + i, float(r[i, k[i]])
    return MorreySeminorm(best, bi, br)


def euler_lagrange_spread(spec: PotentialSpec, X: Configuration) -> tuple[float, float]:
    """(max_{i,j} |P_i - P_j|, max_i |P_i - 2 E_N|).

    mean_i P_i = 2 E_N, so the second number is at most the first.
    """
    p = per_particle_potentials(spec, X)
    if not np.all(np.isfinite(p)):
        return math.inf, math.inf
    pair = float(p.max() - p.min())
    energy = float(np.max(np.abs(p - p.mean())))
    return pair, energy


@dataclass(frozen=True)
class PowerFit:
    exponent: float       # k in value ~ prefactor * N^{-k}
    prefactor: float
    r_squared: float
    dropped_zeros: int = 0


def fit_power_decay(samples) -> PowerFit:
    """Least-squares fit of log(value) = log(A) - k log(N).

    Zero values are dropped (with a count flag); negative values, or fewer
    than 2 positive samples at distinct N, raise ConfigurationError.
    """
    samples = [(float(n), float(v)) for n, v in samples]
    if any(v < 0 for _, v in samples):
        raise ConfigurationError("power-decay fit needs nonnegative values")
    dropped = sum(1 for _, v in samples if v == 0.0)
    kept = [(n, v) for n, v in samples if v > 0.0]
    if len(kept) < 2 or len({n for n, _ in kept}) < 2:
        raise ConfigurationError("need at least 2 positive samples at distinct N")
    ln = np.log([n for n, _ in kept])
    lv = np.log([v for _, v in kept])
    slope, intercept = np.polyfit(ln, lv, 1)
    pred = slope * ln + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerFit(exponent=float(-slope), prefactor=float(np.exp(intercept)),
                    r_squared=r2, dropped_zeros=dropped)


@dataclass(frozen=True)
class StationarityResult:
    values: tuple          # v_j = sum_{i != j} lap^eps W(x_i - x_j)
    min_value: float
    eps: float


def stationarity_check(spec: PotentialSpec, X: Configuration,
                       eps: float) -> StationarityResult:
    """Evaluate the minimiser stationarity sums at finite epsilon.

    lap^eps W(z) depends on |z| only, so v_j is the row sum over particle j
    of the radial kernel f_eps(r) of potentials._ball_deviation on the pair
    distances.  Requires N >= 2 (else ConfigurationError), X to have the
    potential's dimension (else PotentialError), as every pair sum of
    `configuration` does, and eps, a positive finite number, below half the
    minimum interparticle distance so no kernel singularity enters any
    averaging ball (else ConfigurationError).
    """
    check_pair_sum(spec, X, "a stationarity check")
    min_dist = min_pair_distance(X)
    eps = real(eps, "eps", ConfigurationError, above=0.0)
    if not eps < 0.5 * min_dist:
        raise ConfigurationError(
            f"eps must be below half the minimum pair distance ({0.5 * min_dist:g})")
    vals = self_sums(X.points, lambda r: _ball_deviation(spec.radial, r, eps, X.dim))
    return StationarityResult(tuple(vals.tolist()), float(vals.min()), eps)


def lower_mass_profile(X: Configuration, r: float) -> float:
    """min_i m_{i,r}(X): the worst local mass count at radius r."""
    return min(ball_mass(X, i, r) for i in range(X.n))


@dataclass(frozen=True)
class DiameterCheck:
    diam: float
    K_N: float
    holds: bool


def diameter_bound_check(spec: PotentialSpec, X: Configuration) -> DiameterCheck:
    """Compare diam(X) against the minimiser bound K_N = 2 sqrt(d) (N-1) R_W."""
    k_n = 2.0 * math.sqrt(X.dim) * (X.n - 1) * spec.R_W
    diam = diameter(X)
    return DiameterCheck(diam=diam, K_N=k_n, holds=bool(diam <= k_n + 1e-9))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Full verification record of one configuration; the field names are
    the keys of its JSON form."""

    N: int
    d: int
    energy: float
    diameter: float
    K_N_bound: float
    diameter_bound_holds: bool
    morrey_exponent: float
    morrey_seminorm: float
    morrey_argmax_index: int
    morrey_argmax_radius: float
    el_spread_pairs: float
    el_spread_energy: float
    stationarity: tuple            # (eps, min_j v_j) pairs, decreasing eps
    lower_mass_radius: float
    lower_mass: float
    notes: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        return asdict(self)


def default_morrey_exponent(spec: PotentialSpec) -> float:
    """beta for beta-repulsive potentials (the ball-mass growth exponent
    their minimisers obey), else the ambient dimension."""
    return spec.beta if spec.beta is not None else float(spec.dimension)


def build_report(spec: PotentialSpec, X: Configuration, *,
                 morrey_exponent: float | None = None,
                 eps_factors=(1e-2, 1e-3, 1e-4),
                 lower_mass_radius: float | None = None) -> DiagnosticsReport:
    """Full verification record for one configuration.

    Stationarity is evaluated at eps = factor * (min pair distance) for each
    factor; coincident points skip it with a note.  The smallest admissible
    radius scale is used for the ball-mass floor unless one is configured.
    A factor that is not a positive number below 0.5, and a morrey_exponent
    or lower_mass_radius that is not a positive finite number, raise
    ConfigurationError.
    """
    from .configuration import discrete_energy

    s = morrey_exponent if morrey_exponent is not None else default_morrey_exponent(spec)
    energy = discrete_energy(spec, X)
    mor = empirical_morrey_seminorm(X, s)
    dchk = diameter_bound_check(spec, X)
    pair, en = euler_lagrange_spread(spec, X)

    notes = []
    stat = []
    min_dist = min_pair_distance(X)
    if min_dist > 0:
        for fac in eps_factors:
            res = stationarity_check(spec, X, fac * min_dist)
            stat.append((res.eps, res.min_value))
        if stat and min(v for _, v in stat) < 0:
            notes.append("negative stationarity value: X need not be a minimiser")
    else:
        notes.append("coincident points: stationarity skipped")

    r_w = spec.R_W
    r_mass = lower_mass_radius if lower_mass_radius is not None \
        else (r_w if math.isfinite(r_w) and r_w > 0 else 1.0)
    return DiagnosticsReport(
        N=X.n, d=X.dim, energy=energy, diameter=dchk.diam,
        K_N_bound=dchk.K_N, diameter_bound_holds=dchk.holds,
        morrey_exponent=s, morrey_seminorm=mor.value,
        morrey_argmax_index=mor.argmax_index, morrey_argmax_radius=mor.argmax_radius,
        el_spread_pairs=pair, el_spread_energy=en,
        stationarity=tuple(stat), lower_mass_radius=r_mass,
        lower_mass=lower_mass_profile(X, r_mass), notes=tuple(notes))
