"""Particle configurations: N points in R^d with implicit equal masses 1/N.

Energies, per-particle potentials and forces are O(N^2) pair sums over the
fixed tiles and blocks of the `pairs` module, so results are bitwise
reproducible for a given N.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import pairs
from .checks import integer, json_file, json_object, real, reals
from .potentials import PotentialError, PotentialSpec


class ConfigurationError(ValueError):
    """Invalid configuration data."""


class Configuration:
    """Immutable ordered list of N points in R^d (N >= 1).  A copy or an
    unpickled value is rebuilt by the constructor, so it is checked and its
    array stays read-only."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = reals(points, "points", ConfigurationError)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ConfigurationError(f"points must be an (N, d) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("all coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __setattr__(self, *_):
        raise AttributeError("Configuration is immutable")

    def __reduce__(self):
        return Configuration, (self.points,)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self):
        return f"Configuration(N={self.n}, d={self.dim})"

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> dict:
        return {"d": self.dim, "points": self.points.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Configuration":
        """The configuration of a `to_json` object; `d` must be an integer >= 1
        and `points` rows of d numbers, none a bool or a string, else
        ConfigurationError."""
        json_object(obj, "configuration", ConfigurationError, required=("d", "points"))
        d = integer(obj["d"], "d", ConfigurationError)
        pts = reals(obj["points"], "points", ConfigurationError)
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ConfigurationError("points do not match the declared dimension")
        return cls(pts)

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load_json(cls, path) -> "Configuration":
        """The configuration of the JSON file at `path`; a file that
        from_json refuses raises ConfigurationError naming the file."""
        obj = json_file(path, "configuration", ConfigurationError)
        try:
            return cls.from_json(obj)
        except ConfigurationError as exc:
            raise ConfigurationError(f"configuration {path}: {exc}") from None

    def save_csv(self, path):
        """One row of d numbers per point: the only writer of the CSV input
        that `analyze` reads through load_csv."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in self.points:
                w.writerow([f"{v:.17g}" for v in row])

    @classmethod
    def load_csv(cls, path) -> "Configuration":
        """The configuration of the CSV file at `path`, one point per row; a
        malformed file raises ConfigurationError naming the file."""
        with open(path, newline="") as fh:
            try:   # ConfigurationError is a ValueError
                return cls([[float(v) for v in row] for row in csv.reader(fh) if row])
            except (ValueError, csv.Error) as exc:
                raise ConfigurationError(f"configuration {path}: {exc}") from None


# --------------------------------------------------------------------------
# Pairwise kernels
# --------------------------------------------------------------------------

def per_particle_potentials(spec: PotentialSpec, X: Configuration) -> np.ndarray:
    """P_i = (1/N) sum_{j != i} W(x_i - x_j)."""
    check_pair_sum(spec, X, "a per-particle potential")
    return pairs.self_sums(X.points, spec.radial) / X.n


def discrete_energy(spec: PotentialSpec, X: Configuration) -> float:
    """E_N = (1/(2 N^2)) sum_i sum_{j != i} W(x_i - x_j).

    +inf if a pair coincides and W is singular at the origin.
    """
    check_pair_sum(spec, X, "the discrete energy")
    return float(pairs.self_sums(X.points, spec.radial).sum()) / (2.0 * X.n * X.n)


def per_particle_forces(spec: PotentialSpec, X: Configuration) -> np.ndarray:
    """F_i = (1/N) sum_{j != i} grad W(x_i - x_j), the N-independent force scale;
    errors above N = 2000 (pairs.check_square) before any work, and on coincident pairs."""
    check_pair_sum(spec, X, "a force")
    pairs.check_square(X.n, ConfigurationError)
    blk = pairs.SelfBlock(X.points)
    if blk.rmin == 0.0:
        raise ConfigurationError("coincident pair: gradient undefined")
    return blk.forces(spec.radial_derivative) / X.n


def diameter(X: Configuration) -> float:
    """Maximum pairwise Euclidean distance (0 for a single point)."""
    return max(float(r.max()) for _, r in pairs.blocks(X.points))


def min_pair_distance(X: Configuration) -> float:
    """Smallest distance between two distinct particles (inf for N = 1)."""
    rmin = np.inf
    for i0, r in pairs.blocks(X.points):
        np.fill_diagonal(r[:, i0:], np.inf)   # the self pairs
        rmin = min(rmin, float(r.min()))
    return rmin


def ball_mass(X: Configuration, i: int, r: float) -> float:
    """m_{i,r} = (1/N) #{j != i : |x_j - x_i| < r} (open ball).

    Raises ConfigurationError unless i is an integer index of X and r a
    positive finite number.
    """
    i = integer(i, "index", ConfigurationError, minimum=0)
    if i >= X.n:
        raise ConfigurationError(f"index {i} out of range for N = {X.n}")
    r = real(r, "radius", ConfigurationError, above=0.0)
    d = pairs.distances(X.points[i:i + 1], X.points)
    count = int(np.count_nonzero(d < r)) - 1  # centre particle excluded
    return count / X.n


def check_pair_sum(spec: PotentialSpec, X: Configuration, what: str):
    """Refuse a pair sum `what` of X under spec: N < 2 (ConfigurationError) or
    another dimension than the potential's (PotentialError)."""
    if X.n < 2:
        raise ConfigurationError(f"{what} needs N >= 2")
    if spec.dimension != X.dim:
        raise PotentialError(
            f"potential dimension {spec.dimension} != configuration dimension {X.dim}")
