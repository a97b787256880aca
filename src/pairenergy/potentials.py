"""Pair potentials: power-law and Morse families, approximate Laplacians
(ball averages by a Gauss rule in the radius and the axial cosine) and
numeric instability certificates.

A potential is a radially symmetric function W on R^d, attractive at long
range and repulsive at short range.  Everything downstream (energies,
diagnostics, recovery constructions) only needs the radial profile, its
derivative, and what each family carries: W_min (the minimum of W, or its
infimum where none is attained), W_inf (its limit at infinity), R_W (a radius
beyond which W is radially strictly increasing, +inf when there is none; it
sets the minimiser diameter bound K_N = 2 sqrt(d) (N-1) R_W), beta (the
Morrey exponent of a beta-repulsive potential, else None) and `stability()`,
the closed-form stability class, whose threshold is W_inf/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .checks import integer, json_object, real


class PotentialError(ValueError):
    """Invalid potential parameters or arguments."""


# --------------------------------------------------------------------------
# Potential families and their stability classes
# --------------------------------------------------------------------------

UNSTABLE = "unstable"
STRICTLY_STABLE = "strictly_stable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class StabilityReport:
    classification: str
    margin: float | None
    note: str

    def to_json(self) -> dict:
        return {"class": self.classification, "margin": self.margin, "note": self.note}


@dataclass(frozen=True)
class PowerLaw:
    """W(x) = |x|^a / a - |x|^b / b.

    Requires an integer dimension d >= 1 and finite a > b, with b > 0 in d = 1, 2
    and 2-d < b < a, b != 0, in d >= 3, else PotentialError; a and b are
    stored as floats.  Singular at the origin iff b < 0, and then beta = 2 - b.
    W_min = 1/a - 1/b at R_W = 1 is positive when b < 0 (2.5 for a = 2,
    b = -0.5) and negative otherwise; W_inf = +inf.
    """

    dimension: int
    a: float
    b: float

    W_inf = math.inf
    R_W = 1.0

    def __post_init__(self):
        d = integer(self.dimension, "dimension", PotentialError)
        a, b = real(self.a, "a", PotentialError), real(self.b, "b", PotentialError)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not a > b:
            raise PotentialError(f"need a > b, got a={a}, b={b}")
        if d in (1, 2):
            if not b > 0:
                raise PotentialError(f"need b > 0 in dimension {d}, got b={b}")
        else:
            if not b > 2 - d:
                raise PotentialError(f"need b > 2-d = {2-d} in dimension {d}, got b={b}")
            if b == 0:
                raise PotentialError("b = 0 (logarithmic) is not supported")
        if not a > 0:
            # growth at infinity (W_inf = +inf) underpins the derived constants
            raise PotentialError(f"need a > 0, got a={a}")

    @property
    def singular_at_origin(self) -> bool:
        return self.b < 0

    @property
    def W_min(self) -> float:
        return 1.0 / self.a - 1.0 / self.b

    @property
    def beta(self) -> float | None:
        return 2.0 - self.b if self.b < 0 else None

    def stability(self) -> StabilityReport:
        """Always unstable: any finite energy lies below W_inf/2 = +inf."""
        return StabilityReport(UNSTABLE, None, "power-law potentials are unstable")

    def radial(self, r):
        """W as a function of radius; r may be a scalar or array, r >= 0."""
        r = np.asarray(r, dtype=float)
        a, b = self.a, self.b
        if self.b > 0:
            return r**a / a - r**b / b
        safe = np.where(r == 0.0, 1.0, r)
        return np.where(r == 0.0, np.inf, safe**a / a - safe**b / b)

    def radial_derivative(self, r):
        """W'(r) = r^(a-1) - r^(b-1); r must be > 0."""
        r = np.asarray(r, dtype=float)
        return r ** (self.a - 1.0) - r ** (self.b - 1.0)


@dataclass(frozen=True)
class Morse:
    """W(x) = C_r exp(-|x|/l_r) - C_a exp(-|x|/l_a) in an integer dimension
    >= 1, with positive finite constants (else PotentialError) stored as floats.
    W_inf = 0, so W_min is never above 0; R_W and W_min come in closed form
    from the single sign change of W'."""

    dimension: int
    C_r: float
    l_r: float
    C_a: float
    l_a: float

    W_inf = 0.0
    beta = None
    singular_at_origin = False

    def __post_init__(self):
        integer(self.dimension, "dimension", PotentialError)
        for name in ("C_r", "l_r", "C_a", "l_a"):
            v = real(getattr(self, name), name, PotentialError, above=0.0)
            object.__setattr__(self, name, v)

    @property
    def R_W(self) -> float:
        # e^{r/l_a} W'(r) = C_a/l_a - (C_r/l_r) e^{-r (1/l_r - 1/l_a)} is monotone
        # in r, so W' changes sign at most once, at
        # r* = ln(C_r l_a / (C_a l_r)) / (1/l_r - 1/l_a) when l_r < l_a.
        c_r, l_r, c_a, l_a = self.C_r, self.l_r, self.C_a, self.l_a
        if l_r < l_a:
            # W' < 0 below r* and > 0 above it: the minimum is at R_W.  The log
            # and the rate 1/l_r - 1/l_a are formed from the differences
            # C_r - C_a and l_a - l_r, which keeps R_W accurate when l_a is
            # within a few ulps of l_r.
            log_ratio = math.log1p((c_r - c_a) / c_a) + math.log1p((l_a - l_r) / l_r)
            return max(0.0, log_ratio / ((l_a - l_r) / (l_r * l_a)))
        # l_r > l_a: W' is eventually negative.  l_r = l_a: W = (C_r - C_a) e^{-r/l}
        # decreases when C_r > C_a, else increases (or is 0) from r = 0 on.
        return math.inf if l_r > l_a or c_r > c_a else 0.0

    @property
    def W_min(self) -> float:
        # W(R_W) when l_r < l_a, else W(0) or the limit 0 at infinity
        w_min = float(self.radial(self.R_W)) if self.l_r < self.l_a else self.C_r - self.C_a
        return min(w_min, 0.0)

    def stability(self) -> StabilityReport:
        """Unstable iff C_r/C_a < (l_a/l_r)^d when l_r < l_a, strictly stable
        in the complementary open regime; equality and l_r >= l_a are
        unknown."""
        ratio = self.C_r / self.C_a
        threshold = (self.l_a / self.l_r) ** self.dimension
        if self.l_r >= self.l_a:
            return StabilityReport(UNKNOWN, None, "l_r >= l_a regime is not classified")
        if ratio < threshold:
            return StabilityReport(UNSTABLE, threshold - ratio,
                                   f"C_r/C_a = {ratio:g} < (l_a/l_r)^d = {threshold:g}")
        if ratio > threshold:
            return StabilityReport(STRICTLY_STABLE, ratio - threshold,
                                   f"C_r/C_a = {ratio:g} > (l_a/l_r)^d = {threshold:g}")
        return StabilityReport(UNKNOWN, 0.0, "boundary case C_r/C_a = (l_a/l_r)^d")

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        return self.C_r * np.exp(-r / self.l_r) - self.C_a * np.exp(-r / self.l_a)

    def radial_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return (-self.C_r / self.l_r) * np.exp(-r / self.l_r) \
            + (self.C_a / self.l_a) * np.exp(-r / self.l_a)


PotentialSpec = Union[PowerLaw, Morse]


# JSON kind -> (spec class, JSON names of its parameters after the dimension)
_JSON_KINDS = {"power_law": (PowerLaw, ("a", "b")),
               "morse": (Morse, ("Cr", "lr", "Ca", "la"))}


def potential_from_json(obj: dict) -> PotentialSpec:
    """Build a potential from its JSON object form; the spec checks `d` and
    the parameters."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _JSON_KINDS:
        raise PotentialError("potential JSON must be an object whose kind is "
                             f"one of {sorted(_JSON_KINDS)}, got {kind!r}")
    cls, names = _JSON_KINDS[kind]
    json_object(obj, f"{kind} potential", PotentialError, required=("kind", "d", *names))
    return cls(obj["d"], *(obj[name] for name in names))


# --------------------------------------------------------------------------
# Ball averages and the approximate Laplacian
# --------------------------------------------------------------------------

# Node counts (radius, axial cosine) of the ball-average rule.
_RULE = (8, 16)

# Kernel values per chunk of _ball_deviation.  Chunks this small keep their
# temporaries in cache and in memory the allocator reuses: `analyze` on an
# N = 200 patch (three eps) peaks at 83 MiB and takes 0.30 s with chunks of
# 2^14 values, 84 MiB and 0.39 s with 2^16, and 238 MiB and 0.63 s unchunked.
_BALL_VALUES = 1 << 14


def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight
    (1 - x)^alpha (1 + x)^beta on [-1, 1], alpha, beta > -1.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    of the monic three-term recurrence, and the weights are mu0 times the
    squared first components of its eigenvectors (Golub & Welsch 1969).  For
    alpha = beta the rule is mirrored to be exactly symmetric, and for
    alpha = beta = -1/2 it is the closed-form Chebyshev rule, weights pi/n.
    """
    if alpha == beta == -0.5:
        x = np.sin(np.pi * np.arange(1 - n, n, 2) / (2 * n))
        return (x - x[::-1]) / 2, np.full(n, np.pi / n)
    ab = alpha + beta   # one rounding, so ab + 2 is exact near ab = -2
    k = np.arange(1.0, n)
    s = 2 * k + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2)
    diag[1:] = (beta - alpha) * ab / (s * (s + 2))
    off2 = 4 * k * (k + alpha) * (k + beta) / (s * s * (s + 1))
    # times (k + ab) / (s - 1), which is 1 at k = 1, its limit at ab = -1
    off2[1:] *= (k[1:] + ab) / (s[1:] - 1)
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(off2), -1))
    w = v[0] ** 2
    if alpha == beta:
        x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    mu0 = 2.0 ** (ab + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(ab + 2)
    return x, mu0 * w


@lru_cache(maxsize=32)
def _ball_rule(d: int, n_radial: int, n_axial: int) -> tuple[np.ndarray, ...]:
    """Gauss product rule for the average over p uniform in the unit ball of
    a function of |z + eps p|, for any z.

    With R = |p| and T the cosine between p and z,
    |z + eps p|^2 = (|z| + eps R T)^2 + eps^2 R^2 (1 - T^2), so the average is
    a 2-D integral.  R has density d r^(d-1) on [0, 1] (Gauss-Jacobi nodes).
    T has density proportional to (1 - t^2)^((d-3)/2) on [-1, 1]
    (Gauss-Gegenbauer nodes; the Chebyshev rule in d = 2) for d >= 2 and is
    +-1 with weight 1/2 for d = 1.  Both rules come from _gauss_jacobi.
    Returns the axial parts R T, the transverse parts R sqrt(1 - T^2) and the
    weights, whose floating-point sum is exactly 1 (the rounding left over is
    folded into the largest weight).
    """
    x, w_radius = _gauss_jacobi(n_radial, 0.0, d - 1.0)
    radius = (1.0 + x) / 2.0
    if d == 1:
        cosine, w_cosine = np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    else:
        cosine, w_cosine = _gauss_jacobi(n_axial, (d - 3.0) / 2.0, (d - 3.0) / 2.0)
    axial = np.outer(radius, cosine).ravel()
    transverse = np.outer(radius, np.sqrt(1.0 - cosine**2)).ravel()
    w = np.outer(w_radius / w_radius.sum(), w_cosine / w_cosine.sum()).ravel()
    w[np.argmax(w)] += 1.0 - w.sum()
    return axial, transverse, w


def _ball_deviation(fn, r, eps: float, d: int) -> np.ndarray:
    """f_eps(r) = (2(d+2)/eps^2)(avg_{B_eps(z)} k - k(z)) at |z| = r, with
    k = fn(|.|), for an array of radii r (any shape).

    The ball average is the Gauss rule of _ball_rule, evaluated in chunks of
    at most _BALL_VALUES kernel values.  Each radius is reduced on its own
    row, so its value does not depend on where the chunks fall.  The rule
    averages k - k(z), not k, so a constant kernel gives exactly 0.
    """
    axial, transverse, w = _ball_rule(d, *_RULE)
    axial = eps * axial
    transverse = (eps * transverse) ** 2
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    centre = np.asarray(fn(flat), dtype=float)
    dev = np.empty(len(flat))
    step = max(1, _BALL_VALUES // len(w))
    vals = np.empty((min(step, len(flat)), len(w)))
    for i0 in range(0, len(flat), step):
        radii = flat[i0:i0 + step, None] + axial
        radii *= radii
        radii += transverse
        np.sqrt(radii, out=radii)
        rows = vals[:len(radii)]
        np.subtract(fn(radii), centre[i0:i0 + step, None], out=rows)
        dev[i0:i0 + step] = np.einsum("ij,j->i", rows, w)
    return (2.0 * (d + 2.0) / eps**2 * dev).reshape(r.shape)


def approximate_laplacian(spec: PotentialSpec, x, eps: float) -> float:
    """Scaled ball-average deviation (2(d+2)/eps^2)(avg_{B_eps(x)} W - W(x)).

    `x` must have shape (d,), d the potential's dimension.  The ball average
    is a Gauss rule in the radius and the axial cosine, exact for
    W(r) = r^(2m) with m <= 7 (see _ball_deviation, which takes any radial
    function).  Returns +inf when a singular origin lies inside the averaging
    ball but not at x, and -inf when W(x) itself is +inf.  An eps that is not
    a positive finite number raises PotentialError.
    """
    eps = real(eps, "eps", PotentialError, above=0.0)
    x = np.asarray(x, dtype=float)
    d = spec.dimension
    if x.shape != (d,):
        raise PotentialError(f"x must have shape ({d},), got {x.shape}")
    rx = np.array([np.linalg.norm(x)])
    if math.isinf(spec.radial(rx)[0]):
        return -math.inf
    if spec.singular_at_origin and rx[0] <= eps:
        return math.inf
    return float(_ball_deviation(spec.radial, rx, eps, d)[0])


# --------------------------------------------------------------------------
# Numeric instability certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InstabilityCertificate:
    found: bool
    best_scale: float
    best_energy: float
    threshold: float
    margin: float
    energies: tuple


def numeric_instability_scan(spec: PotentialSpec, scales,
                             *, resolution: int | None = None,
                             tolerance: float = 1e-6) -> InstabilityCertificate:
    """Search for a measure certifying instability: E(rho_t) < W_inf/2 - margin.

    The candidates are the uniform probabilities on the balls of radius t for
    t in `scales`, carried on a grid of `resolution` cells per side (default
    by dimension) and integrated by continuum_energy_grid with its default
    refinement.  The margin is `tolerance` plus the change in energy at the
    best scale when the grid is halved.  A False result is a non-certificate,
    not a stability proof.  `scales` must be a nonempty list or array of
    positive finite numbers, `resolution` None or an integer >= 4 (the grid
    energy's smallest grid) and `tolerance` positive finite, else PotentialError.
    """
    from . import measures

    scales = scales.tolist() if isinstance(scales, np.ndarray) else scales
    if not isinstance(scales, (list, tuple)) or not scales:
        raise PotentialError("scales must be a nonempty list of positive numbers")
    scales = [real(t, "scales entry", PotentialError, above=0.0) for t in scales]
    tolerance = real(tolerance, "tolerance", PotentialError, above=0.0)
    d = spec.dimension
    if resolution is None:
        resolution = {1: 256, 2: 40, 3: 16}.get(d, 8)
    resolution = integer(resolution, "resolution", PotentialError, minimum=4)

    energies = []
    for t in scales:
        rho = measures.uniform_ball(d, t, resolution)
        energies.append(measures.continuum_energy_grid(spec, rho))
    best_idx = int(np.argmin(energies))
    best_scale, best_energy = scales[best_idx], energies[best_idx]

    if math.isinf(spec.W_inf):
        # any finite energy beats +inf/2
        found = math.isfinite(best_energy)
        return InstabilityCertificate(found, best_scale, best_energy,
                                      math.inf, tolerance, tuple(energies))

    rho = measures.uniform_ball(d, best_scale, max(4, resolution // 2))
    coarse = measures.continuum_energy_grid(spec, rho)
    margin = tolerance + abs(best_energy - coarse)
    threshold = 0.5 * spec.W_inf - margin
    return InstabilityCertificate(best_energy < threshold, best_scale, best_energy,
                                  threshold, margin, tuple(energies))
