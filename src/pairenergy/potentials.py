"""Pair potentials: power-law and Morse families, derived constants,
approximate Laplacians and stability classification.

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


def potential_from_json(obj: dict) -> PotentialSpec:
    """Build a potential from its JSON object form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise PotentialError("potential JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "power_law":
        keys = {"kind", "d", "a", "b"}
        if set(obj) != keys:
            raise PotentialError(f"power_law potential expects keys {sorted(keys)}")
        return PowerLaw(dimension=int(obj["d"]), a=float(obj["a"]), b=float(obj["b"]))
    if kind == "morse":
        keys = {"kind", "d", "Cr", "lr", "Ca", "la"}
        if set(obj) != keys:
            raise PotentialError(f"morse potential expects keys {sorted(keys)}")
        return Morse(dimension=int(obj["d"]), C_r=float(obj["Cr"]), l_r=float(obj["lr"]),
                     C_a=float(obj["Ca"]), l_a=float(obj["la"]))
    raise PotentialError(f"unknown potential kind {kind!r}")


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

    W_min        global lower bound (attained value)
    W_inf        limit at infinity (may be +inf)
    R_W          radius beyond which W is radially strictly increasing
    beta         repulsivity exponent (power-law with b < 0 only), else None
    C_W          working upper-bound constant for the singular hypotheses, else None
    delta_rep    repulsivity radius convention (singular case only), else None
    singular_at_origin
    """

    W_min: float
    W_inf: float
    R_W: float
    beta: float | None
    C_W: float | None
    delta_rep: float | None
    singular_at_origin: bool


_MORSE_SCAN_SAMPLES = 4096
_MORSE_SCAN_SPAN = 50.0
_MORSE_REFINE_TOL = 1e-10


def _bisect_root(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _morse_metadata(spec: Morse) -> PotentialMetadata:
    # Dense radial scan + bisection refinement; the radial problem is cheap.
    span = _MORSE_SCAN_SPAN * max(spec.l_r, spec.l_a)
    rs = np.linspace(0.0, span, _MORSE_SCAN_SAMPLES)
    dW = spec.radial_derivative(rs)
    n = len(rs)

    neg = np.nonzero(dW < 0)[0]
    if len(neg) == 0:
        r_w = 0.0
    elif neg[-1] == n - 1:
        # still decreasing at the far end of the scan (l_r > l_a regime):
        # no radius of eventual strict increase exists
        r_w = math.inf
    else:
        k = int(neg[-1])
        r_w = _bisect_root(lambda r: float(spec.radial_derivative(r)),
                           float(rs[k]), float(rs[k + 1]), _MORSE_REFINE_TOL)

    vals = spec.radial(rs)
    i0 = int(np.argmin(vals))
    w_min = float(vals[i0])
    if 0 < i0 < n - 1 and dW[i0 - 1] < 0 <= dW[i0 + 1]:
        r_min = _bisect_root(lambda r: float(spec.radial_derivative(r)),
                             float(rs[i0 - 1]), float(rs[i0 + 1]), _MORSE_REFINE_TOL)
        w_min = min(w_min, float(spec.radial(r_min)))
    w_min = min(w_min, 0.0)  # W -> 0 at infinity; the infimum is never above it
    return PotentialMetadata(W_min=w_min, W_inf=0.0, R_W=r_w, beta=None,
                             C_W=None, delta_rep=None, singular_at_origin=False)


def _power_law_metadata(spec: PowerLaw) -> PotentialMetadata:
    w_min = 1.0 / spec.a - 1.0 / spec.b  # attained at |x| = 1
    if spec.b < 0:
        beta = 2.0 - spec.b
        c_w = max(spec.dimension - 2.0 + beta, 1.0 / abs(spec.b), 1.0)
        delta = 1.0
    else:
        beta = c_w = delta = None
    return PotentialMetadata(W_min=w_min, W_inf=math.inf, R_W=1.0, beta=beta,
                             C_W=c_w, delta_rep=delta,
                             singular_at_origin=spec.singular_at_origin)


@lru_cache(maxsize=256)
def metadata(spec: PotentialSpec) -> PotentialMetadata:
    """Derived constants (cached; potentials are frozen values)."""
    if isinstance(spec, PowerLaw):
        return _power_law_metadata(spec)
    if isinstance(spec, Morse):
        return _morse_metadata(spec)
    raise PotentialError(f"unknown potential type {type(spec)!r}")


# --------------------------------------------------------------------------
# Ball-average quadrature and the approximate Laplacian
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureOpts:
    """Deterministic ball-average rule: product rule (radii x directions)
    for d <= 3, fixed quasi-random points for d >= 4."""

    radial_points: int = 32
    sphere_points: int = 64
    qmc_points: int = 2 ** 14


def _sphere_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights: zero mean and exact second moments."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if d == 2:
        th = 2.0 * np.pi * np.arange(n) / n
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        return dirs, np.full(n, 1.0 / n)
    if d == 3:
        # Gauss-Legendre bands in z (exact polar moments) x equal angles
        # (exact azimuthal moments), band offsets decorrelated
        nz = max(2, int(round(math.sqrt(n))))
        nphi = max(3, n // nz)
        z, wz = np.polynomial.legendre.leggauss(nz)
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        dirs, w = [], []
        for j in range(nz):
            phi = 2.0 * np.pi * (np.arange(nphi) + (golden * j) % 1.0) / nphi
            s = math.sqrt(max(0.0, 1.0 - z[j] * z[j]))
            dirs.append(np.column_stack([s * np.cos(phi), s * np.sin(phi),
                                         np.full(nphi, z[j])]))
            w.append(np.full(nphi, wz[j] / (2.0 * nphi)))
        return np.concatenate(dirs), np.concatenate(w)
    raise PotentialError("product rule only for d <= 3")


@lru_cache(maxsize=64)
def _ball_rule(d: int, opts: QuadratureOpts) -> tuple[np.ndarray, np.ndarray]:
    """Unit-ball quadrature nodes and weights (weights sum to 1)."""
    if d <= 3:
        # midpoints of equal-volume radial shells: the r^{d-1} measure is
        # handled by the volume substitution, not by weighting
        m = opts.radial_points
        radii = ((np.arange(m) + 0.5) / m) ** (1.0 / d)
        wr = np.full(m, 1.0 / m)
        dirs, wd = _sphere_rule(d, opts.sphere_points)
        pts = radii[:, None, None] * dirs[None, :, :]
        w = (wr[:, None] * wd[None, :]).reshape(-1)
        return pts.reshape(-1, d), w
    # d >= 4: Sobol points in the cube, rejected to the ball, mirrored.
    from scipy.stats import qmc

    sob = qmc.Sobol(d=d, scramble=False)
    want = opts.qmc_points // 2
    kept = []
    total = 0
    while total < want:
        block = sob.random(4 * want) * 2.0 - 1.0
        inside = block[np.einsum("ij,ij->i", block, block) <= 1.0]
        kept.append(inside)
        total += len(inside)
    pts = np.concatenate(kept, axis=0)[:want]
    pts = np.concatenate([pts, -pts], axis=0)
    w = np.full(len(pts), 1.0 / len(pts))
    return pts, w


_BALL_VALUES = 1 << 14


def _ball_deviation_sums(fn, offset_sets, eps: float, d: int,
                         quad: QuadratureOpts) -> list[float]:
    """For each (M, d) array of offsets z, the sum over its rows of the scaled
    ball-average deviation (2(d+2)/eps^2)(avg_{B_eps(z)} k - k(z)), k = fn(|.|).

    Offsets are taken in row blocks of at most _BALL_VALUES radii (8 rows of
    the 2048-point rule in d = 2, 128 KiB).  Blocks this small keep the radii
    and the kernel's temporaries in cache and in memory the allocator reuses
    from block to block; larger ones are handed back to the system and
    page-faulted in again on every block (one stationarity_check at N = 200:
    1.4 s and 280 minor faults at 2^14 values, 2.8 s and 473,853 at 2^16).
    The radii are summed one coordinate at a time in the order of
    np.linalg.norm, so they are bitwise the norms of z + eps * p.
    """
    pts, w = _ball_rule(d, quad)
    step = eps * pts
    rows = max(1, _BALL_VALUES // len(pts))
    sums = []
    for offsets in offset_sets:
        avg = np.empty(len(offsets))
        for i0 in range(0, len(offsets), rows):
            z = offsets[i0:i0 + rows]
            radii = z[:, 0, None] + step[:, 0]
            radii *= radii
            for k in range(1, d):
                s = z[:, k, None] + step[:, k]
                s *= s
                radii += s
            np.sqrt(radii, out=radii)
            avg[i0:i0 + rows] = np.asarray(fn(radii), dtype=float) @ w
        centre = np.asarray(fn(np.linalg.norm(offsets, axis=1)), dtype=float)
        sums.append(float(np.sum(2.0 * (d + 2.0) / eps**2 * (avg - centre))))
    return sums


def _as_radial_kernel(kernel) -> Callable[[np.ndarray], np.ndarray]:
    if hasattr(kernel, "radial"):
        return kernel.radial
    if callable(kernel):
        return kernel
    raise PotentialError("kernel must be a potential or a callable of the radius")


def approximate_laplacian(kernel, x, eps: float,
                          quad: QuadratureOpts = QuadratureOpts(),
                          *, d: int | None = None,
                          return_error: bool = False):
    """Scaled ball-average deviation (2(d+2)/eps^2)(avg_{B_eps(x)} k - k(x)).

    `kernel` is a radial evaluable: a potential spec or a callable mapping an
    array of radii to values.  Returns +inf when a singular kernel origin lies
    inside the averaging ball but not at x, and -inf when k(x) itself is +inf.
    With return_error=True also returns a radial-refinement error estimate.
    """
    if eps <= 0:
        raise PotentialError("eps must be positive")
    x = np.asarray(x, dtype=float)
    if d is None:
        d = getattr(kernel, "dimension", None)
        if d is None:
            d = x.shape[-1] if x.ndim else 1
    x = x.reshape(d)
    fn = _as_radial_kernel(kernel)
    rx = float(np.linalg.norm(x))

    center_val = float(np.asarray(fn(np.array([rx]))).reshape(()))
    if math.isinf(center_val):
        return (-math.inf, 0.0) if return_error else -math.inf
    if getattr(kernel, "singular_at_origin", False) and rx <= eps:
        return (math.inf, 0.0) if return_error else math.inf

    value = _ball_deviation_sums(fn, [x[None, :]], eps, d, quad)[0]
    if not return_error:
        return value
    coarse = QuadratureOpts(radial_points=max(4, quad.radial_points // 2),
                            sphere_points=quad.sphere_points,
                            qmc_points=max(2 ** 10, quad.qmc_points // 2))
    err = abs(value - _ball_deviation_sums(fn, [x[None, :]], eps, d, coarse)[0])
    return value, err


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
                             *, family: str = "uniform_ball",
                             resolution: int | None = None,
                             tolerance: float = 1e-6,
                             refine_levels: int = 3) -> InstabilityCertificate:
    """Search for a measure certifying instability: E(rho_t) < W_inf/2 - margin.

    The family is the uniform probability on the ball of radius t for t in
    `scales`, carried on a grid and integrated by the deterministic grid
    quadrature.  The margin is `tolerance` plus a grid-refinement error
    estimate at the best scale.  A False result is a non-certificate, not a
    stability proof.
    """
    from . import measures

    if family != "uniform_ball":
        raise PotentialError(f"unknown scale family {family!r}")
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
        energies.append(measures.continuum_energy_grid(spec, rho,
                                                       refine_levels=refine_levels))
    best_idx = int(np.argmin(energies))
    best_scale, best_energy = scales[best_idx], energies[best_idx]

    if math.isinf(md.W_inf):
        # any finite energy beats +inf/2
        found = math.isfinite(best_energy)
        return InstabilityCertificate(found, best_scale, best_energy,
                                      math.inf, tolerance, tuple(energies))

    rho = measures.uniform_ball(d, best_scale, max(4, resolution // 2))
    coarse = measures.continuum_energy_grid(spec, rho, refine_levels=refine_levels)
    margin = tolerance + abs(best_energy - coarse)
    threshold = 0.5 * md.W_inf - margin
    return InstabilityCertificate(best_energy < threshold, best_scale, best_energy,
                                  threshold, margin, tuple(energies))
