"""Batch experiment driver.

Subcommands: classify | minimize | sweep | recover | analyze.
Config files in (JSON, schema-validated, unknown keys rejected), reproducible
artifacts out (JSON results, CSV tables with 17-significant-digit numeric
fields, self-contained SVG figures, and a RunRecord with the config hash).

Exit codes: 0 success, 2 config/schema error, 3 numeric failure
(non-convergence where convergence is required), 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import measures
from . import potentials as pot
from . import recovery
from .configuration import Configuration, ConfigurationError, diameter
from .optimizer import OptimOpts, minimize_multistart
from .svgplot import line_plot

WORKERS_ENV = "PAIRENERGY_WORKERS"

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4


class ConfigError(ValueError):
    """Config file violates the schema."""


class NumericFailure(RuntimeError):
    """A required numeric goal (convergence) was not met."""


# --------------------------------------------------------------------------
# Config schema helpers
# --------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _integer(v, where: str, minimum: int = 1) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}")
    return v


def _positive_number(v, where: str, below: float = math.inf) -> float:
    if not (isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < below):
        raise ConfigError(f"{where} must be a number in (0, {below:g})")
    return float(v)


def _n_list(v) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError("N_list must be a nonempty list")
    return [_integer(n, "N_list entry") for n in v]


def _parse_potential(obj) -> pot.PotentialSpec:
    try:
        return pot.potential_from_json(obj)
    except pot.PotentialError as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc


def _parse_optim(obj, seed: int) -> OptimOpts:
    if obj is None:
        return OptimOpts(seed=seed)
    ints = {"max_iters": 1, "n_starts": 1, "hop_count": 0}   # key -> minimum
    floats = {"grad_tol", "init_radius", "hop_sigma", "min_pair_dist"}
    _require_keys(obj, set(ints) | floats, set(), "optim")
    opts = {}
    for k, v in obj.items():
        if k in ints:
            opts[k] = _integer(v, f"optim.{k}", ints[k])
        elif v is not None or k not in ("init_radius", "hop_sigma"):  # None: derived
            opts[k] = _positive_number(v, f"optim.{k}")
    return OptimOpts(seed=seed, **opts)


def _parse_diag(obj) -> dict:
    if obj is None:
        return {}
    numbers = ("morrey_exponent", "lower_mass_radius")
    _require_keys(obj, {*numbers, "eps_factors"}, set(), "diagnostics")
    out = {k: _positive_number(obj[k], f"diagnostics.{k}") for k in numbers if k in obj}
    if "eps_factors" in obj:
        if not isinstance(obj["eps_factors"], list):
            raise ConfigError("diagnostics.eps_factors must be a list")
        out["eps_factors"] = tuple(_positive_number(v, "diagnostics.eps_factors entry",
                                                    0.5) for v in obj["eps_factors"])
    return out


def _parse_measure(obj) -> measures.GridDensity:
    _require_keys(obj, {"builtin", "L", "resolution", "d", "grid_file"}, set(),
                  "measure")
    if "grid_file" in obj:
        if len(obj) != 1:
            raise ConfigError("measure: grid_file excludes other keys")
        return measures.GridDensity.load(obj["grid_file"])
    if obj.get("builtin") != "uniform_box":
        raise ConfigError('measure: expected {"builtin": "uniform_box", ...} '
                          'or {"grid_file": ...}')
    for key in ("L", "resolution", "d"):
        if key not in obj:
            raise ConfigError(f"measure: missing {key}")
    return measures.uniform_box(_integer(obj["d"], "measure.d"),
                                _positive_number(obj["L"], "measure.L"),
                                _integer(obj["resolution"], "measure.resolution"))


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------

def _fmt_num(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_num(v) for v in row) + "\n")


class _Record:
    """Collects phase wall times and writes the run record."""

    def __init__(self, cfg: dict, seed: int, workers: int, workers_from_env: bool):
        self.cfg = cfg
        self.seed = seed
        self.workers = workers
        self.workers_from_env = workers_from_env
        self.phases = {}
        self._t0 = None
        self._name = None

    def start(self, name: str):
        self._name, self._t0 = name, time.perf_counter()

    def stop(self):
        self.phases[self._name] = time.perf_counter() - self._t0

    def write(self, out_dir: Path, results: dict):
        with open(out_dir / "config.json", "w") as fh:
            json.dump(self.cfg, fh, indent=2, sort_keys=True)
        record = {
            "tool_version": __version__,
            "config_hash": _config_hash(self.cfg),
            "seed": self.seed,
            "workers": self.workers,
            "workers_from_env": self.workers_from_env,
            "phase_wall_times": self.phases,
            "results": results,
        }
        with open(out_dir / "run_record.json", "w") as fh:
            json.dump(record, fh, indent=2)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _parse_scan(obj) -> dict:
    """Keyword arguments of numeric_instability_scan from a `scan` object."""
    _require_keys(obj, {"scales", "resolution", "margin"}, set(), "scan")
    scales = obj.get("scales")
    if scales is None:
        scales = np.geomspace(0.1, 20.0, 16).tolist()
    elif not isinstance(scales, list) or not scales:
        raise ConfigError("scan.scales must be a nonempty list")
    out = {"scales": [_positive_number(t, "scan.scales entry") for t in scales],
           "tolerance": _positive_number(obj.get("margin", 1e-6), "scan.margin")}
    if obj.get("resolution") is not None:
        out["resolution"] = _integer(obj["resolution"], "scan.resolution")
    return out


def cmd_classify(cfg: dict, out_dir: Path, seed: int, workers: int, rec: _Record) -> int:
    _require_keys(cfg, {"potential", "seed", "scan"}, {"potential"}, "config")
    spec = _parse_potential(cfg["potential"])
    scan_cfg = cfg.get("scan")
    if scan_cfg is None and math.isfinite(pot.metadata(spec).W_inf):
        scan_cfg = {}
    scan = None if scan_cfg is None else _parse_scan(scan_cfg)
    rec.start("classify")
    report = pot.classify_stability(spec)
    payload = report.to_json()
    if scan is not None:
        cert = pot.numeric_instability_scan(spec, **scan)
        payload["certificate"] = {
            "found": cert.found, "best_scale": cert.best_scale,
            "best_energy": cert.best_energy, "threshold": cert.threshold,
            "margin": cert.margin,
        }
    rec.stop()
    with open(out_dir / "classify.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    rec.write(out_dir, {"class": payload["class"]})
    return EXIT_OK


def cmd_minimize(cfg: dict, out_dir: Path, seed: int, workers: int, rec: _Record) -> int:
    _require_keys(cfg, {"potential", "N", "optim", "diagnostics", "seed"},
                  {"potential", "N"}, "config")
    spec = _parse_potential(cfg["potential"])
    n = _integer(cfg["N"], "N")
    opts = _parse_optim(cfg.get("optim"), seed)
    diag_opts = _parse_diag(cfg.get("diagnostics"))

    rec.start("minimize")
    result = minimize_multistart(spec, n, opts, workers=workers)
    rec.stop()
    with open(out_dir / "minimize.json", "w") as fh:
        json.dump(result.to_json(), fh, indent=2)

    rec.start("diagnostics")
    report = diag.build_report(spec, result.best, **diag_opts)
    rec.stop()
    with open(out_dir / "diagnostics.json", "w") as fh:
        json.dump(report.to_json(), fh, indent=2)

    rec.write(out_dir, {"energy": result.energy, "converged": result.converged,
                        "stop_reason": result.stop_reason})
    if not result.converged:
        raise NumericFailure("descent did not reach the force tolerance")
    return EXIT_OK


_SWEEP_HEADER = ("N", "energy", "diameter", "morrey_seminorm", "el_pair_spread",
                 "el_energy_spread", "fitted_k_prefix")


def cmd_sweep(cfg: dict, out_dir: Path, seed: int, workers: int, rec: _Record) -> int:
    _require_keys(cfg, {"potential", "N_list", "optim", "diagnostics", "seed"},
                  {"potential", "N_list"}, "config")
    spec = _parse_potential(cfg["potential"])
    n_list = _n_list(cfg["N_list"])
    opts = _parse_optim(cfg.get("optim"), seed)
    diag_opts = _parse_diag(cfg.get("diagnostics"))
    s = diag_opts.get("morrey_exponent", diag.default_morrey_exponent(spec))

    rows = []
    all_converged = True
    rec.start("sweep")
    for n in n_list:
        result = minimize_multistart(spec, n, opts, workers=workers)
        all_converged &= result.converged
        mor = diag.empirical_morrey_seminorm(result.best, s)
        pair, energy_spread = diag.euler_lagrange_spread(spec, result.best)
        prefix = [(m, e) for (m, _, _, _, _, e, _) in rows] + [(n, energy_spread)]
        positive = [(m, v) for m, v in prefix if v > 0]
        if len(positive) >= 3:
            k_hat = diag.fit_power_decay(positive).exponent
        else:
            k_hat = math.nan
        rows.append((n, result.energy, diameter(result.best), mor.value,
                     pair, energy_spread, k_hat))
    rec.stop()

    _write_csv(out_dir / "sweep.csv", _SWEEP_HEADER, rows)
    ns = [r[0] for r in rows]
    line_plot(out_dir / "diameter_vs_N.svg", [(ns, [r[2] for r in rows], "diameter")],
              title="Minimiser diameter", xlabel="N", ylabel="diameter")
    spreads = [max(r[5], 1e-18) for r in rows]
    line_plot(out_dir / "spread_vs_N_loglog.svg",
              [(ns, spreads, "max |P_i - 2E_N|")],
              title="Euler-Lagrange spread", xlabel="N", ylabel="spread",
              logx=True, logy=True)
    rec.write(out_dir, {"rows": len(rows),
                        "uniform_K_estimate": max(r[2] for r in rows)})
    if not all_converged:
        raise NumericFailure("a sweep minimisation did not converge")
    return EXIT_OK


_RECOVER_HEADER = ("N", "E_N", "E_rho", "energy_gap", "w1", "theta")


def cmd_recover(cfg: dict, out_dir: Path, seed: int, workers: int, rec: _Record) -> int:
    _require_keys(cfg, {"potential", "N_list", "measure", "refine_levels", "seed"},
                  {"potential", "N_list", "measure"}, "config")
    spec = _parse_potential(cfg["potential"])
    n_list = _n_list(cfg["N_list"])
    rho = _parse_measure(cfg["measure"])
    refine = _integer(cfg.get("refine_levels", 3), "refine_levels")

    rec.start("recover")
    try:
        prepared = {}
        for n in n_list:
            cubes = recovery._cube_count(n, rho.dim)
            prepared[n] = rho if rho.resolution % cubes == 0 \
                else measures.regrid(rho, cubes)
        rows = []
        for n in sorted(n_list):
            row = recovery.recovery_convergence_report(
                spec, prepared[n], [n], refine_levels=refine)[0]
            rows.append(row)
    except (recovery.RecoveryError, measures.MeasureError) as exc:
        raise ConfigError(str(exc)) from exc
    rec.stop()

    table = [(r.N, r.discrete_energy, r.continuum_energy, r.energy_gap, r.w1, r.theta)
             for r in rows]
    _write_csv(out_dir / "recover.csv", _RECOVER_HEADER, table)
    ns = [r.N for r in rows]
    line_plot(out_dir / "energy_gap_vs_N.svg",
              [(ns, [max(r.energy_gap, 1e-18) for r in rows], "|E_N - E|")],
              title="Recovery energy gap", xlabel="N", ylabel="gap",
              logx=True, logy=True)
    line_plot(out_dir / "w1_vs_N.svg", [(ns, [r.w1 for r in rows], "W1")],
              title="Transport distance to rho", xlabel="N", ylabel="W1")
    rec.write(out_dir, {"rows": len(rows), "final_gap": rows[-1].energy_gap})
    return EXIT_OK


def cmd_analyze(cfg: dict, out_dir: Path, seed: int, workers: int, rec: _Record) -> int:
    _require_keys(cfg, {"potential", "configuration_file", "diagnostics", "seed"},
                  {"potential", "configuration_file"}, "config")
    spec = _parse_potential(cfg["potential"])
    diag_opts = _parse_diag(cfg.get("diagnostics"))
    path = cfg["configuration_file"]
    if not isinstance(path, str):
        raise ConfigError("configuration_file must be a path string")
    if path.endswith(".csv"):
        X = Configuration.load_csv(path)
    else:
        X = Configuration.load_json(path)
    rec.start("analyze")
    report = diag.build_report(spec, X, **diag_opts)
    rec.stop()
    with open(out_dir / "analysis.json", "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
    # one sweep-schema row so analyze outputs aggregate with sweep tables
    _write_csv(out_dir / "analysis.csv", _SWEEP_HEADER,
               [(report.n, report.energy, report.diameter, report.morrey_seminorm,
                 report.el_spread_pairs, report.el_spread_energy, math.nan)])
    rec.write(out_dir, {"energy": report.energy})
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "minimize": cmd_minimize,
    "sweep": cmd_sweep,
    "recover": cmd_recover,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pairenergy",
        description="Interaction-energy experiments: minimise, diagnose, recover.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallelism cap (never changes results)")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = cfg.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("seed must be an integer")
        if args.seed is not None:
            seed = args.seed
        workers = args.workers
        env = os.environ.get(WORKERS_ENV, "")
        workers_from_env = bool(env)
        if env:
            if not env.strip().isdecimal():
                raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1, got {env!r}")
            workers = int(env)
        if workers < 1:
            raise ConfigError("workers must be >= 1")

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        rec = _Record(cfg, seed, workers, workers_from_env)
        return _COMMANDS[args.command](cfg, out_dir, seed, workers, rec)
    except (ConfigError, pot.PotentialError, ConfigurationError,
            measures.MeasureError, recovery.RecoveryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
