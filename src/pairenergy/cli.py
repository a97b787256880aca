"""Batch experiment driver.

Subcommands: classify | minimize | sweep | recover | analyze.
Config files in (JSON, schema-validated, unknown keys rejected), reproducible
artifacts out (JSON results, null for a non-finite number, CSV tables with
17-significant-digit numeric fields, self-contained SVG figures).

`main` does what every command shares: it checks the config's top-level keys
against `_COMMANDS`, parses the potential and the seed, runs the command and
writes `config.json` (the config copy) and `run_record.json` (tool version,
config hash, seed, workers, phase wall times and the command's results).  A
command parses only its own keys, does its work, writes its artifacts and
returns its results; `"converged": false` among them is a numeric failure.

Exit codes: 0 success, 2 config/schema error, 3 numeric failure
(non-convergence where convergence is required), 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import measures
from . import potentials as pot
from . import recovery
from .checks import integer, json_file, json_object, n_list, real
from .configuration import Configuration, ConfigurationError, diameter
from .optimizer import OptimOpts, minimize_multistart
from .pairs import check_rows, check_square
from .svgplot import line_plot

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4


class ConfigError(ValueError):
    """Config file violates the schema."""


class NumericFailure(RuntimeError):
    """A required numeric goal (convergence) was not met."""


# --------------------------------------------------------------------------
# Config schema helpers
# --------------------------------------------------------------------------

def _parse_optim(obj, seed: int) -> OptimOpts:
    """OptimOpts from an `optim` object; OptimOpts checks the values."""
    if obj is None:
        return OptimOpts(seed=seed)
    json_object(obj, "optim", ConfigError,
                optional=[f.name for f in fields(OptimOpts) if f.name != "seed"])
    return OptimOpts(seed=seed, **obj)


def _parse_diag(obj, keys=("morrey_exponent", "lower_mass_radius", "eps_factors")) -> dict:
    """build_report keywords from a `diagnostics` object with only `keys`,
    checked here because they are read only after the solves."""
    if obj is None:
        return {}
    json_object(obj, "diagnostics", ConfigError, optional=keys)
    out = {k: real(obj[k], f"diagnostics.{k}", ConfigError, above=0.0)
           for k in ("morrey_exponent", "lower_mass_radius") if k in obj}
    if "eps_factors" in obj:
        if not isinstance(obj["eps_factors"], list):
            raise ConfigError("diagnostics.eps_factors must be a list")
        out["eps_factors"] = tuple(real(v, "diagnostics.eps_factors entry", ConfigError,
                                        above=0.0, below=0.5)
                                   for v in obj["eps_factors"])
    return out


def _parse_measure(obj) -> measures.GridDensity:
    if isinstance(obj, dict) and "grid_file" in obj:
        json_object(obj, "measure", ConfigError, required=("grid_file",))
        if not isinstance(obj["grid_file"], str):
            raise ConfigError("measure.grid_file must be a path string")
        return measures.GridDensity.load(obj["grid_file"])
    json_object(obj, "measure", ConfigError, required=("builtin", "L", "resolution", "d"))
    if obj["builtin"] != "uniform_box":
        raise ConfigError('measure: expected {"builtin": "uniform_box", ...} '
                          'or {"grid_file": ...}')
    return measures.uniform_box(obj["d"], obj["L"], obj["resolution"])


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


def _write_json(path, obj, sort_keys=False):
    """Write obj as indented RFC 8259 JSON: NaN and +-Infinity become null."""
    obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(obj, fh, allow_nan=False, indent=2, sort_keys=sort_keys)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_num(v) for v in row) + "\n")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _parse_scan(obj) -> dict:
    """Keyword arguments of numeric_instability_scan, which checks them, from
    a `scan` object."""
    json_object(obj, "scan", ConfigError, optional=("scales", "resolution", "margin"))
    scales = obj.get("scales")
    return {"scales": np.geomspace(0.1, 20.0, 16) if scales is None else scales,
            "tolerance": obj.get("margin", 1e-6), "resolution": obj.get("resolution")}


def cmd_classify(spec, cfg: dict, out_dir: Path, seed: int, workers: int,
                 phases: dict) -> dict:
    scan_cfg = cfg.get("scan")
    if scan_cfg is None and math.isfinite(spec.W_inf):
        scan_cfg = {}
    scan = None if scan_cfg is None else _parse_scan(scan_cfg)
    t0 = time.perf_counter()
    report = spec.stability()
    payload = report.to_json()
    if scan is not None:
        cert = pot.numeric_instability_scan(spec, **scan)
        payload["certificate"] = {
            "found": cert.found, "best_scale": cert.best_scale,
            "best_energy": cert.best_energy, "threshold": cert.threshold,
            "margin": cert.margin,
        }
    phases["classify"] = time.perf_counter() - t0
    _write_json(out_dir / "classify.json", payload)
    return {"class": payload["class"]}


def cmd_minimize(spec, cfg: dict, out_dir: Path, seed: int, workers: int,
                 phases: dict) -> dict:
    opts = _parse_optim(cfg.get("optim"), seed)
    diag_opts = _parse_diag(cfg.get("diagnostics"))

    t0 = time.perf_counter()
    result = minimize_multistart(spec, cfg["N"], opts, workers=workers)
    phases["minimize"] = time.perf_counter() - t0
    _write_json(out_dir / "minimize.json", result.to_json())

    t0 = time.perf_counter()
    report = diag.build_report(spec, result.best, **diag_opts)
    phases["diagnostics"] = time.perf_counter() - t0
    _write_json(out_dir / "diagnostics.json", report.to_json())
    return {"energy": result.energy, "converged": result.converged,
            "stop_reason": result.stop_reason}


_SWEEP_HEADER = ("N", "energy", "diameter", "morrey_seminorm", "el_pair_spread",
                 "el_energy_spread", "fitted_k_prefix")


def cmd_sweep(spec, cfg: dict, out_dir: Path, seed: int, workers: int,
              phases: dict) -> dict:
    ns = n_list(cfg["N_list"], ConfigError)
    opts = _parse_optim(cfg.get("optim"), seed)
    diag_opts = _parse_diag(cfg.get("diagnostics"), keys=("morrey_exponent",))
    s = diag_opts.get("morrey_exponent", diag.default_morrey_exponent(spec))
    check_square(max(ns), ConfigurationError)   # before the first solve

    rows = []
    all_converged = True
    t0 = time.perf_counter()
    for n in ns:
        result = minimize_multistart(spec, n, opts, workers=workers)
        all_converged &= result.converged
        mor = diag.empirical_morrey_seminorm(result.best, s)
        pair, energy_spread = diag.euler_lagrange_spread(spec, result.best)
        prefix = [(m, e) for (m, _, _, _, _, e, _) in rows] + [(n, energy_spread)]
        positive = [(m, v) for m, v in prefix if v > 0]
        k_hat = diag.fit_power_decay(positive).exponent if len(positive) >= 3 else math.nan
        rows.append((n, result.energy, diameter(result.best), mor.value,
                     pair, energy_spread, k_hat))
    phases["sweep"] = time.perf_counter() - t0

    _write_csv(out_dir / "sweep.csv", _SWEEP_HEADER, rows)
    ns = [r[0] for r in rows]
    line_plot(out_dir / "diameter_vs_N.svg", ns, [r[2] for r in rows], "diameter",
              title="Minimiser diameter", xlabel="N", ylabel="diameter")
    spreads = [max(r[5], 1e-18) for r in rows]
    line_plot(out_dir / "spread_vs_N_loglog.svg", ns, spreads, "max |P_i - 2E_N|",
              title="Euler-Lagrange spread", xlabel="N", ylabel="spread",
              logx=True, logy=True)
    return {"rows": len(rows), "uniform_K_estimate": max(r[2] for r in rows),
            "converged": all_converged}


_RECOVER_HEADER = ("N", "E_N", "E_rho", "energy_gap", "w1", "theta")


def cmd_recover(spec, cfg: dict, out_dir: Path, seed: int, workers: int,
                phases: dict) -> dict:
    rho = _parse_measure(cfg["measure"])

    t0 = time.perf_counter()
    rows = recovery.recovery_convergence_report(spec, rho, cfg["N_list"],
                                                refine_levels=cfg.get("refine_levels", 3))
    phases["recover"] = time.perf_counter() - t0

    table = [(r.N, r.discrete_energy, r.continuum_energy, r.energy_gap, r.w1, r.theta)
             for r in rows]
    _write_csv(out_dir / "recover.csv", _RECOVER_HEADER, table)
    ns = [r.N for r in rows]
    line_plot(out_dir / "energy_gap_vs_N.svg", ns,
              [max(r.energy_gap, 1e-18) for r in rows], "|E_N - E|",
              title="Recovery energy gap", xlabel="N", ylabel="gap",
              logx=True, logy=True)
    line_plot(out_dir / "w1_vs_N.svg", ns, [r.w1 for r in rows], "W1",
              title="Transport distance to rho", xlabel="N", ylabel="W1")
    return {"rows": len(rows), "final_gap": rows[-1].energy_gap}


def cmd_analyze(spec, cfg: dict, out_dir: Path, seed: int, workers: int,
                phases: dict) -> dict:
    diag_opts = _parse_diag(cfg.get("diagnostics"))
    path = cfg["configuration_file"]
    if not isinstance(path, str):
        raise ConfigError("configuration_file must be a path string")
    if path.endswith(".csv"):
        X = Configuration.load_csv(path)
    else:
        X = Configuration.load_json(path)
    check_rows(X.n, ConfigurationError)
    t0 = time.perf_counter()
    report = diag.build_report(spec, X, **diag_opts)
    phases["analyze"] = time.perf_counter() - t0
    _write_json(out_dir / "analysis.json", report.to_json())
    # one sweep-schema row so analyze outputs aggregate with sweep tables
    _write_csv(out_dir / "analysis.csv", _SWEEP_HEADER,
               [(report.N, report.energy, report.diameter, report.morrey_seminorm,
                 report.el_spread_pairs, report.el_spread_energy, math.nan)])
    return {"energy": report.energy}


# name -> (command, optional keys, required keys); every config also takes
# "potential" (required) and "seed"
_COMMANDS = {
    "classify": (cmd_classify, ("scan",), ()),
    "minimize": (cmd_minimize, ("optim", "diagnostics"), ("N",)),
    "sweep": (cmd_sweep, ("optim", "diagnostics"), ("N_list",)),
    "recover": (cmd_recover, ("refine_levels",), ("N_list", "measure")),
    "analyze": (cmd_analyze, ("diagnostics",), ("configuration_file",)),
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
    command, optional, required = _COMMANDS[args.command]

    try:
        cfg = json_object(json_file(args.config, "config", ConfigError), "config",
                          ConfigError, required=("potential", *required),
                          optional=("seed", *optional))
        try:
            spec = pot.potential_from_json(cfg["potential"])
        except pot.PotentialError as exc:
            raise ConfigError(f"invalid potential: {exc}") from exc
        seed = integer(cfg.get("seed", 0), "seed", ConfigError, minimum=-math.inf)
        if args.seed is not None:
            seed = args.seed
        integer(args.workers, "workers", ConfigError)

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        phases = {}
        results = command(spec, cfg, out_dir, seed, args.workers, phases)
        _write_json(out_dir / "config.json", cfg, sort_keys=True)
        record = {"tool_version": __version__, "config_hash": _config_hash(cfg),
                  "seed": seed, "workers": args.workers, "phase_wall_times": phases,
                  "results": results}
        _write_json(out_dir / "run_record.json", record)
        if results.get("converged") is False:
            raise NumericFailure("a descent did not reach the force tolerance")
        return EXIT_OK
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
