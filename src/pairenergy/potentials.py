"""Pair potentials: power-law and Morse families, derived constants,
approximate Laplacians (ball averages by a Gauss rule in the radius and the
axial cosine) and stability classification.

A potential is a radially symmetric function W on R^d, attractive at long
range and repulsive at short range.  Everything downstream (energies,
diagnostics, recovery constructions) only needs the radial profile, its
derivative, and a handful of derived constants (W_min, W_inf, R_W, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy.special import roots_jacobi


class PotentialError(ValueError):
    """Invalid potential parameters or arguments."""


# --------------------------------------------------------------------------
# Potential families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLaw:
    """W(x) = |x|^a / a - |x|^b / b.

    Requires a > b, with b > 0 in dimensions 1 and 2 and 2-d < b < a,
    b != 0, in dimension >= 3.  Singular at the origin iff b < 0.
    """

    dimension: int
    a: float
    b: float

    kind = "power_law"

    def __post_init__(self):
        d, a, b = self.dimension, self.a, self.b
        if not (isinstance(d, int) and d >= 1):
            raise PotentialError(f"dimension must be an integer >= 1, got {d!r}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise PotentialError("exponents must be finite")
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

    def to_json(self) -> dict:
        return {"kind": "power_law", "d": self.dimension, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Morse:
    """W(x) = C_r exp(-|x|/l_r) - C_a exp(-|x|/l_a), all constants positive."""

    dimension: int
    C_r: float
    l_r: float
    C_a: float
    l_a: float

    kind = "morse"

    def __post_init__(self):
        d = self.dimension
        if not (isinstance(d, int) and d >= 1):
            raise PotentialError(f"dimension must be an integer >= 1, got {d!r}")
        for name in ("C_r", "l_r", "C_a", "l_a"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise PotentialError(f"{name} must be a positive real, got {v!r}")

    singular_at_origin = False

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        return self.C_r * np.exp(-r / self.l_r) - self.C_a * np.exp(-r / self.l_a)

    def radial_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return (-self.C_r / self.l_r) * np.exp(-r / self.l_r) \
            + (self.C_a / self.l_a) * np.exp(-r / self.l_a)

    def to_json(self) -> dict:
        return {"kind": "morse", "d": self.dimension,
                "Cr": self.C_r, "lr": self.l_r, "Ca": self.C_a, "la": self.l_a}


PotentialSpec = Union[PowerLaw, Morse]


# JSON kind -> (spec class, JSON names of its parameters after the dimension)
_JSON_KINDS = {"power_law": (PowerLaw, ("a", "b")),
               "morse": (Morse, ("Cr", "lr", "Ca", "la"))}


def potential_from_json(obj: dict) -> PotentialSpec:
    """Build a potential from its JSON object form.

    `d` must be an integer >= 1 and every parameter a number; a bool is
    neither.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise PotentialError("potential JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _JSON_KINDS:
        raise PotentialError(f"unknown potential kind {kind!r}")
    cls, names = _JSON_KINDS[kind]
    keys = {"kind", "d", *names}
    if set(obj) != keys:
        raise PotentialError(f"{kind} potential expects keys {sorted(keys)}")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise PotentialError(f"d must be an integer >= 1, got {d!r}")
    params = []
    for name in names:
        v = obj[name]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise PotentialError(f"{name} must be a number, got {v!r}")
        try:
            params.append(float(v))
        except OverflowError:
            raise PotentialError(f"{name} is out of the float range") from None
    return cls(d, *params)


# --------------------------------------------------------------------------
# Point evaluation
# --------------------------------------------------------------------------

def evaluate(spec: PotentialSpec, x) -> float:
    """W(x) for a single point x in R^d; +inf at the origin when singular."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dimension,):
        raise PotentialError(f"point must have shape ({spec.dimension},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise PotentialError("point must be finite")
    return float(spec.radial(float(np.linalg.norm(x))))


def gradient(spec: PotentialSpec, x) -> np.ndarray:
    """grad W(x) = W'(|x|) x / |x|; errors at x = 0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dimension,):
        raise PotentialError(f"point must have shape ({spec.dimension},), got {x.shape}")
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise PotentialError("gradient undefined at the origin")
    return float(spec.radial_derivative(r)) * x / r


# --------------------------------------------------------------------------
# Derived metadata
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialMetadata:
    """Derived constants of a potential.

    W_min        global lower bound: the minimum of W where it is attained,
                 else its infimum, never above 0
    W_inf        limit at infinity (may be +inf)
    R_W          radius beyond which W is radially strictly increasing
                 (+inf when no such radius exists)
    beta         repulsivity exponent (power-law with b < 0 only), else None

    Whether W is singular at the origin is the spec's `singular_at_origin`.
    """

    W_min: float
    W_inf: float
    R_W: float
    beta: float | None


def _morse_metadata(spec: Morse) -> PotentialMetadata:
    # e^{r/l_a} W'(r) = C_a/l_a - (C_r/l_r) e^{-r (1/l_r - 1/l_a)} is monotone
    # in r, so W' changes sign at most once, at
    # r* = ln(C_r l_a / (C_a l_r)) / (1/l_r - 1/l_a) when l_r < l_a.
    c_r, l_r = float(spec.C_r), float(spec.l_r)
    c_a, l_a = float(spec.C_a), float(spec.l_a)
    if l_r < l_a:
        # W' < 0 below r* and > 0 above it: the minimum is at R_W.  The log
        # and the rate 1/l_r - 1/l_a are formed from the differences
        # C_r - C_a and l_a - l_r, which keeps R_W accurate when l_a is
        # within a few ulps of l_r.
        log_ratio = math.log1p((c_r - c_a) / c_a) + math.log1p((l_a - l_r) / l_r)
        r_w = max(0.0, log_ratio / ((l_a - l_r) / (l_r * l_a)))
        w_min = float(spec.radial(r_w))
    else:
        # W' is eventually negative (l_r > l_a), or W = (C_r - C_a) e^{-r/l};
        # either way the infimum is W(0) or the limit 0 at infinity
        r_w = math.inf if l_r > l_a or c_r > c_a else 0.0
        w_min = c_r - c_a
    w_min = min(w_min, 0.0)  # W -> 0 at infinity; the infimum is never above it
    return PotentialMetadata(W_min=w_min, W_inf=0.0, R_W=r_w, beta=None)


def _power_law_metadata(spec: PowerLaw) -> PotentialMetadata:
    w_min = 1.0 / spec.a - 1.0 / spec.b  # attained at |x| = 1
    beta = 2.0 - spec.b if spec.b < 0 else None
    return PotentialMetadata(W_min=w_min, W_inf=math.inf, R_W=1.0, beta=beta)


@lru_cache(maxsize=256)
def metadata(spec: PotentialSpec) -> PotentialMetadata:
    """Derived constants (cached; potentials are frozen values)."""
    if isinstance(spec, PowerLaw):
        return _power_law_metadata(spec)
    if isinstance(spec, Morse):
        return _morse_metadata(spec)
    raise PotentialError(f"unknown potential type {type(spec)!r}")


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


@lru_cache(maxsize=32)
def _ball_rule(d: int, n_radial: int, n_axial: int) -> tuple[np.ndarray, ...]:
    """Gauss product rule for the average over p uniform in the unit ball of
    a function of |z + eps p|, for any z.

    With R = |p| and T the cosine between p and z,
    |z + eps p|^2 = (|z| + eps R T)^2 + eps^2 R^2 (1 - T^2), so the average is
    a 2-D integral.  R has density d r^(d-1) on [0, 1] (Gauss-Jacobi nodes).
    T has density proportional to (1 - t^2)^((d-3)/2) on [-1, 1]
    (Gauss-Gegenbauer nodes) for d >= 2 and is +-1 with weight 1/2 for d = 1.
    Returns the axial parts R T, the transverse parts R sqrt(1 - T^2) and the
    weights, which sum to 1.
    """
    x, w_radius = roots_jacobi(n_radial, 0.0, d - 1.0)
    radius = (1.0 + x) / 2.0
    if d == 1:
        cosine, w_cosine = np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    else:
        cosine, w_cosine = roots_jacobi(n_axial, (d - 3.0) / 2.0, (d - 3.0) / 2.0)
    axial = np.outer(radius, cosine).ravel()
    transverse = np.outer(radius, np.sqrt(1.0 - cosine**2)).ravel()
    w = np.outer(w_radius / w_radius.sum(), w_cosine / w_cosine.sum()).ravel()
    return axial, transverse, w


def _ball_deviation(fn, r, eps: float, d: int) -> np.ndarray:
    """f_eps(r) = (2(d+2)/eps^2)(avg_{B_eps(z)} k - k(z)) at |z| = r, with
    k = fn(|.|), for an array of radii r (any shape).

    The ball average is the Gauss rule of _ball_rule, evaluated in chunks of
    at most _BALL_VALUES kernel values.  Each radius is reduced on its own
    row, so its value does not depend on where the chunks fall.
    """
    axial, transverse, w = _ball_rule(d, *_RULE)
    axial = eps * axial
    transverse = (eps * transverse) ** 2
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    avg = np.empty(len(flat))
    step = max(1, _BALL_VALUES // len(w))
    for i0 in range(0, len(flat), step):
        radii = flat[i0:i0 + step, None] + axial
        radii *= radii
        radii += transverse
        np.sqrt(radii, out=radii)
        avg[i0:i0 + step] = (np.asarray(fn(radii), dtype=float) * w).sum(axis=1)
    centre = np.asarray(fn(flat), dtype=float)
    return (2.0 * (d + 2.0) / eps**2 * (avg - centre)).reshape(r.shape)


def _as_radial_kernel(kernel) -> Callable[[np.ndarray], np.ndarray]:
    if hasattr(kernel, "radial"):
        return kernel.radial
    if callable(kernel):
        return kernel
    raise PotentialError("kernel must be a potential or a callable of the radius")


def approximate_laplacian(kernel, x, eps: float, *, d: int | None = None) -> float:
    """Scaled ball-average deviation (2(d+2)/eps^2)(avg_{B_eps(x)} k - k(x)).

    `kernel` is a radial evaluable: a potential spec or a callable mapping an
    array of radii to values.  `x` must have shape (d,); d defaults to the
    kernel's dimension, else to the length of x.  The ball average is a Gauss
    rule in the radius and the axial cosine, exact for k(r) = r^(2m) with
    m <= 7.  Returns +inf when a singular kernel origin lies inside the
    averaging ball but not at x, and -inf when k(x) itself is +inf.
    """
    if eps <= 0:
        raise PotentialError("eps must be positive")
    x = np.asarray(x, dtype=float)
    if d is None:
        d = getattr(kernel, "dimension", x.size)
    if x.shape != (d,):
        raise PotentialError(f"x must have shape ({d},), got {x.shape}")
    fn = _as_radial_kernel(kernel)
    rx = np.array([np.linalg.norm(x)])

    center_val = float(np.asarray(fn(rx)).reshape(()))
    if math.isinf(center_val):
        return -math.inf
    if getattr(kernel, "singular_at_origin", False) and rx[0] <= eps:
        return math.inf
    return float(_ball_deviation(fn, rx, eps, d)[0])


# --------------------------------------------------------------------------
# Stability classification
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


def classify_stability(spec: PotentialSpec) -> StabilityReport:
    """Closed-form stability classification.

    Power-law potentials are always unstable.  Morse potentials with
    l_r < l_a are unstable iff C_r/C_a < (l_a/l_r)^d and strictly stable in
    the complementary open regime; equality and l_r >= l_a are Unknown.
    """
    if isinstance(spec, PowerLaw):
        return StabilityReport(UNSTABLE, None, "power-law potentials are unstable")
    ratio = spec.C_r / spec.C_a
    threshold = (spec.l_a / spec.l_r) ** spec.dimension
    if spec.l_r >= spec.l_a:
        return StabilityReport(UNKNOWN, None, "l_r >= l_a regime is not classified")
    if ratio < threshold:
        return StabilityReport(UNSTABLE, threshold - ratio,
                               f"C_r/C_a = {ratio:g} < (l_a/l_r)^d = {threshold:g}")
    if ratio > threshold:
        return StabilityReport(STRICTLY_STABLE, ratio - threshold,
                               f"C_r/C_a = {ratio:g} > (l_a/l_r)^d = {threshold:g}")
    return StabilityReport(UNKNOWN, 0.0, "boundary case C_r/C_a = (l_a/l_r)^d")


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
    not a stability proof.
    """
    from . import measures

    scales = [float(t) for t in scales]
    md = metadata(spec)
    if math.isinf(md.W_inf) and not scales:
        raise PotentialError("W_inf = +inf with an empty scale list: nothing to evaluate")
    if any(t <= 0 for t in scales):
        raise PotentialError("scales must be positive")

    d = spec.dimension
    if resolution is None:
        resolution = {1: 256, 2: 40, 3: 16}.get(d, 8)

    energies = []
    for t in scales:
        rho = measures.uniform_ball(d, t, resolution)
        energies.append(measures.continuum_energy_grid(spec, rho))
    best_idx = int(np.argmin(energies))
    best_scale, best_energy = scales[best_idx], energies[best_idx]

    if math.isinf(md.W_inf):
        # any finite energy beats +inf/2
        found = math.isfinite(best_energy)
        return InstabilityCertificate(found, best_scale, best_energy,
                                      math.inf, tolerance, tuple(energies))

    rho = measures.uniform_ball(d, best_scale, max(4, resolution // 2))
    coarse = measures.continuum_energy_grid(spec, rho)
    margin = tolerance + abs(best_energy - coarse)
    threshold = 0.5 * md.W_inf - margin
    return InstabilityCertificate(best_energy < threshold, best_scale, best_energy,
                                  threshold, margin, tuple(energies))
