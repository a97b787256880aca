"""The benchmark's workloads: CLI inputs made from a seed, and checks of the
CLI outputs.

Each workload function writes its config (and any generated input file) into
a work directory and returns a `Job`.  `Job.check` reads one call's output
directory and returns one `Check` per condition; a row (one N of a sweep or
recovery table, one report, one certificate) fails when any of its
conditions fails.  The checks recompute what they can with plain numpy
instead of calling the code being measured.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# W(r) = exp(-2r) - exp(-r): unstable, with its pair minimum at r = ln 2
MORSE = {"kind": "morse", "d": 2, "Cr": 1.0, "lr": 0.5, "Ca": 1.0, "la": 1.0}
# W(r) = r^2/2 - r
POWER_LAW = {"kind": "power_law", "d": 2, "a": 2.0, "b": 1.0}

# The sweep's cost varies about fourfold with the optimizer seed (the length
# of the slowest start's tail), so the sweep keeps one pinned instance.
SWEEP_OPTIMIZER_SEED = 0
# Best energies the sweep finds at this optimizer seed with 4 starts and 2 hops.
SWEEP_REFERENCE = {50: -0.11018741761974711, 100: -0.11046483800205492}
SWEEP_ENERGY_RTOL = 1e-5

# Conditions known to fail: wasserstein1 keeps only the 512 heaviest atoms of
# each measure before its exact LP, so at N = 1296 it reports 2.2505, below
# the certified lower bound 3.7798 (the exact LP gives 3.7925).  The row
# still counts as failed; it only does not make the run incorrect.
KNOWN_DEFECTS = {("recover", "N=1296", "w1 >= projection lower bound")}


class Check(NamedTuple):
    row: str
    condition: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Job:
    command: str
    config: Path
    workers: int
    check: Callable[[Path, int], list]   # (output dir, exit code) -> checks

    def argv(self, out_dir: Path, workers: int | None = None) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out_dir),
                "--workers", str(workers or self.workers)]


def _write_config(workdir: Path, name: str, cfg: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _exit_checks(rows, rc: int) -> list[Check] | None:
    if rc == 0:
        return None
    return [Check(row, "exit code 0", False, f"exit code {rc}") for row in rows]


# --------------------------------------------------------------------------
# Plain-numpy references
# --------------------------------------------------------------------------

def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))


def _morse(r):
    return np.exp(-2.0 * r) - np.exp(-r)


def _morse_laplacian_2d(r):
    # W'' + W'/r for the radial profile in d = 2
    return 4.0 * np.exp(-2.0 * r) - np.exp(-r) + (np.exp(-r) - 2.0 * np.exp(-2.0 * r)) / r


def _power_law(r):
    return 0.5 * r * r - r


def _w1_1d(x: np.ndarray, a: np.ndarray, y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact W1 between sum a_i delta_{x_i} and sum b_j delta_{y_j} on the
    line, for every row of x (k, n) and y (k, m): the integral of |F - G|."""
    pos = np.concatenate([x, y], axis=1)
    mass = np.concatenate([np.broadcast_to(a, x.shape), -np.broadcast_to(b, y.shape)],
                          axis=1)
    order = np.argsort(pos, axis=1, kind="stable")
    pos = np.take_along_axis(pos, order, axis=1)
    cdf_gap = np.cumsum(np.take_along_axis(mass, order, axis=1), axis=1)
    return np.sum(np.abs(cdf_gap[:, :-1]) * np.diff(pos, axis=1), axis=1)


def w1_bounds(x, a, y, b, n_angles: int = 361) -> tuple[float, float]:
    """(lower, upper) bounds on W1 in the plane.  Projections are
    1-Lipschitz, so every projected W1 is a lower bound; the independent
    coupling a_i b_j is feasible, so its cost is an upper bound."""
    theta = np.linspace(0.0, np.pi, n_angles)
    dirs = np.stack([np.cos(theta), np.sin(theta)])
    lower = float(_w1_1d((x @ dirs).T, a, (y @ dirs).T, b).max())
    upper = float(a @ _distances(x, y) @ b)
    return lower, upper


def square_energy_power_law(L: float) -> float:
    """E(rho) for W = r^2/2 - r and rho uniform on [-L, L)^2, in closed form:
    E|X-Y|^2 = 4 L^2 / 3 and E|X-Y| = 2 L (2 + sqrt 2 + 5 asinh 1) / 15."""
    mean_sq = 4.0 * L * L / 3.0
    mean = 2.0 * L * (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0
    return 0.5 * (0.5 * mean_sq - mean)


def disk_energy_morse(t: float, samples: int = 200_000) -> float:
    """E(rho) = (1/2) E W(|X-Y|) for rho uniform on the disk of radius t,
    integrated against the exact density of the distance of two uniform
    points in a disk (midpoint rule in s)."""
    s = (np.arange(samples) + 0.5) * (2.0 * t / samples)
    u = s / (2.0 * t)
    pdf = 4.0 * s / (math.pi * t * t) * (np.arccos(u) - u * np.sqrt(1.0 - u * u))
    return 0.5 * float(np.sum(_morse(s) * pdf) * (2.0 * t / samples))


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def sweep(seed: int, workdir: Path, *, n_list=(50, 100), n_starts=4, hop_count=2,
          workers=2, reference=SWEEP_REFERENCE) -> Job:
    """Minimiser sweep over an N ladder; `seed` does not enter (see
    SWEEP_OPTIMIZER_SEED)."""
    cfg = {"potential": MORSE, "N_list": list(n_list), "seed": SWEEP_OPTIMIZER_SEED,
           "optim": {"n_starts": n_starts, "hop_count": hop_count, "grad_tol": 1e-8}}
    rows = [f"N={n}" for n in n_list]

    def check(out: Path, rc: int) -> list[Check]:
        # the CLI exits 3 when a row's best minimiser did not converge
        failed = _exit_checks(rows, rc)
        if failed:
            return failed
        table = {int(r["N"]): r for r in _read_csv(out / "sweep.csv")}
        checks = []
        for n, row in zip(n_list, rows):
            r = table.get(n)
            if r is None:
                checks.append(Check(row, "row present", False, "missing"))
                continue
            ref = reference[n]
            k_n = 2.0 * math.sqrt(2.0) * (n - 1) * math.log(2.0)
            checks += [
                Check(row, "energy matches reference",
                      _close(r["energy"], ref, SWEEP_ENERGY_RTOL),
                      f"{r['energy']!r} vs {ref!r}"),
                Check(row, "diameter within K_N", 0 < r["diameter"] <= k_n,
                      f"{r['diameter']!r} <= {k_n!r}"),
                Check(row, "finite diagnostics",
                      math.isfinite(r["morrey_seminorm"]) and r["morrey_seminorm"] > 0
                      and 0 <= r["el_energy_spread"] <= r["el_pair_spread"] < math.inf,
                      f"morrey {r['morrey_seminorm']!r}"),
            ]
        return checks

    return Job("sweep", _write_config(workdir, "sweep", cfg), workers, check)


def triangular_patch(n: int, spacing: float, rng: np.random.Generator) -> np.ndarray:
    """The n lattice points nearest the origin of a triangular lattice,
    jittered by a normal of 5% of the spacing."""
    k = int(math.ceil(math.sqrt(n))) + 2
    i, j = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1), indexing="ij")
    i, j = i.ravel(), j.ravel()
    pts = spacing * np.stack([i + 0.5 * j, (math.sqrt(3.0) / 2.0) * j], axis=1)
    order = np.lexsort((j, i, np.round(np.hypot(*pts.T) / spacing, 9)))
    pts = pts[order[:n]]
    return pts + rng.normal(0.0, 0.05 * spacing, size=pts.shape)


def analyze(seed: int, workdir: Path, *, n=200, spacing=0.092) -> Job:
    """Diagnostics of an N-point configuration made from `seed`.  The default
    spacing is the nearest-neighbour distance of N = 200 Morse minimisers."""
    points = triangular_patch(n, spacing, np.random.default_rng(seed))
    config_file = workdir / "analyze_points.json"
    config_file.write_text(json.dumps({"d": 2, "points": points.tolist()}))
    cfg = {"potential": MORSE, "configuration_file": str(config_file), "seed": seed}

    def check(out: Path, rc: int) -> list[Check]:
        failed = _exit_checks(["report"], rc)
        if failed:
            return failed
        rep = json.loads((out / "analysis.json").read_text())
        r = _distances(points, points)
        diam = float(r.max())
        off = ~np.eye(n, dtype=bool)
        w = np.where(off, _morse(np.where(off, r, 1.0)), 0.0)
        energy = float(w.sum()) / (2.0 * n * n)
        p = w.sum(axis=1) / n
        pair_spread = float(p.max() - p.min())
        energy_spread = float(np.abs(p - p.mean()).max())
        # exact Morrey seminorm: sup over i and distances D of
        # D^-s #{j != i : |x_j - x_i| <= D} / N, with s = d for Morse
        dist = np.sort(r[off].reshape(n, n - 1), axis=1)
        counts = np.stack([np.searchsorted(row, row, side="right") for row in dist])
        morrey = float((dist ** -2.0 * counts / n).max())
        lap = np.where(off, _morse_laplacian_2d(np.where(off, r, 1.0)), 0.0)
        lap_min = float(lap.sum(axis=0).min())
        lap_scale = float(np.abs(lap).sum(axis=0).max())
        checks = [
            Check("report", "energy", _close(rep["energy"], energy, 1e-10),
                  f"{rep['energy']!r} vs {energy!r}"),
            Check("report", "diameter", _close(rep["diameter"], diam, 1e-12),
                  f"{rep['diameter']!r} vs {diam!r}"),
            Check("report", "EL pair spread",
                  _close(rep["el_spread_pairs"], pair_spread, 1e-8, 1e-15),
                  f"{rep['el_spread_pairs']!r} vs {pair_spread!r}"),
            Check("report", "EL energy spread",
                  _close(rep["el_spread_energy"], energy_spread, 1e-8, 1e-15),
                  f"{rep['el_spread_energy']!r} vs {energy_spread!r}"),
            Check("report", "Morrey seminorm",
                  _close(rep["morrey_seminorm"], morrey, 1e-12),
                  f"{rep['morrey_seminorm']!r} vs {morrey!r}"),
            Check("report", "three stationarity radii", len(rep["stationarity"]) == 3,
                  f"{len(rep['stationarity'])}"),
        ]
        # the finite-eps sums tend to sum_i Laplacian W(x_i - x_j) as eps -> 0
        for eps, value in rep["stationarity"]:
            checks.append(Check("report", f"stationarity at eps={eps:.3g}",
                                abs(value - lap_min) <= 1e-3 * lap_scale,
                                f"{value!r} vs {lap_min!r}"))
        return checks

    return Job("analyze", _write_config(workdir, "analyze", cfg), 1, check)


def recover(seed: int, workdir: Path, *, n_list=(300, 1296), resolution=16,
            L=1.0) -> Job:
    """Recovery table for the uniform box; `seed` does not enter."""
    cfg = {"potential": POWER_LAW, "N_list": list(n_list), "seed": seed,
           "measure": {"builtin": "uniform_box", "L": L, "d": 2, "resolution": resolution}}
    rows = [f"N={n}" for n in n_list]

    def check(out: Path, rc: int) -> list[Check]:
        from pairenergy.measures import density_to_atoms, uniform_box
        from pairenergy.recovery import build_recovery

        failed = _exit_checks(rows, rc)
        if failed:
            return failed
        table = {int(r["N"]): r for r in _read_csv(out / "recover.csv")}
        rho = uniform_box(2, L, resolution)
        nu = density_to_atoms(rho)
        e_rho = square_energy_power_law(L)
        # midpoint-rule error scale of the grid quadrature
        e_tol = 0.1 * (2.0 * L / resolution) ** 2
        checks = []
        for n, row in zip(n_list, rows):
            r = table.get(n)
            if r is None:
                checks.append(Check(row, "row present", False, "missing"))
                continue
            rec = build_recovery(rho, n)
            x = rec.config.points
            w = np.where(np.eye(n, dtype=bool), 0.0, _power_law(_distances(x, x)))
            e_n = float(w.sum()) / (2 * n * n)
            lower, upper = w1_bounds(x, np.full(n, 1.0 / n), nu.points, nu.weights)
            checks += [
                Check(row, "E_N by brute force", _close(r["E_N"], e_n, 1e-10),
                      f"{r['E_N']!r} vs {e_n!r}"),
                Check(row, "E_rho near closed form", abs(r["E_rho"] - e_rho) <= e_tol,
                      f"{r['E_rho']!r} vs {e_rho!r}"),
                Check(row, "theta", r["theta"] == rec.N_p / n, f"{r['theta']!r}"),
                Check(row, "w1 >= projection lower bound", r["w1"] >= lower - 1e-9,
                      f"{r['w1']!r} vs {lower!r}"),
                Check(row, "w1 <= independent coupling", r["w1"] <= upper + 1e-9,
                      f"{r['w1']!r} vs {upper!r}"),
            ]
        return checks

    return Job("recover", _write_config(workdir, "recover", cfg), 1, check)


def classify(seed: int, workdir: Path, *, resolution=None) -> Job:
    """Stability class and the default 16-radius certificate scan; `seed`
    does not enter."""
    cfg = {"potential": MORSE, "seed": seed}
    if resolution is not None:
        cfg["scan"] = {"resolution": resolution}

    def check(out: Path, rc: int) -> list[Check]:
        failed = _exit_checks(["certificate"], rc)
        if failed:
            return failed
        rep = json.loads((out / "classify.json").read_text())
        cert = rep.get("certificate", {})
        # C_r / C_a = 1 < (l_a / l_r)^d = 4
        checks = [Check("certificate", "class unstable", rep["class"] == "unstable",
                        rep["class"]),
                  Check("certificate", "certificate found", cert.get("found") is True,
                        json.dumps(cert))]
        if cert:
            exact = disk_energy_morse(cert["best_scale"])
            checks += [
                Check("certificate", "energy below threshold",
                      cert["best_energy"] < cert["threshold"],
                      f"{cert['best_energy']!r} < {cert['threshold']!r}"),
                Check("certificate", "disk energy near exact",
                      _close(cert["best_energy"], exact, 0.05),
                      f"{cert['best_energy']!r} vs {exact!r}"),
                Check("certificate", "exact disk energy below threshold",
                      exact < cert["threshold"], f"{exact!r}"),
            ]
        return checks

    return Job("classify", _write_config(workdir, "classify", cfg), 1, check)


WORKLOADS = {"sweep": sweep, "analyze": analyze, "recover": recover, "classify": classify}


def tally(workload: str, checks) -> tuple[int, int, bool]:
    """(rows attempted, rows failed, correct).  A row counts once however
    many of its conditions fail; only KNOWN_DEFECTS may fail in a correct run."""
    rows, bad = {}, set()
    for c in checks:
        rows.setdefault(c.row, True)
        if not c.ok:
            bad.add(c.row)
    correct = all(c.ok or (workload, c.row, c.condition) in KNOWN_DEFECTS for c in checks)
    return len(rows), len(bad), correct
