import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairenergy import cli
from pairenergy import diagnostics as diag
from pairenergy import measures as mea
from pairenergy import pairs
from pairenergy import potentials as pot
from pairenergy import recovery as rec
from pairenergy.configuration import Configuration

PL21_JSON = {"kind": "power_law", "d": 2, "a": 2.0, "b": 1.0}
MORSE_U_JSON = {"kind": "morse", "d": 2, "Cr": 1.0, "lr": 0.5, "Ca": 1.0, "la": 1.0}
MORSE_S_JSON = {"kind": "morse", "d": 2, "Cr": 5.0, "lr": 0.5, "Ca": 1.0, "la": 1.0}

CHEAP_OPTIM = {"n_starts": 4, "hop_count": 2, "grad_tol": 1e-8}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _not_json(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run(cmd, cfg_path, out_dir, *extra):
    """cli.main's exit code, after every JSON artifact it wrote parses as
    RFC 8259 JSON (no NaN or Infinity)."""
    code = cli.main([cmd, "--config", cfg_path, "--out", str(out_dir), *extra])
    for path in Path(out_dir).glob("*.json"):
        json.loads(path.read_text(), parse_constant=_not_json)
    return code


class TestClassify:
    def test_morse_unstable(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"potential": MORSE_U_JSON,
                            "scan": {"resolution": 24}})
        assert run("classify", cfg, tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert payload["class"] == "unstable"
        assert payload["certificate"]["found"]

    def test_morse_strictly_stable(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"potential": MORSE_S_JSON,
                            "scan": {"resolution": 24}})
        assert run("classify", cfg, tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert payload["class"] == "strictly_stable"
        assert not payload["certificate"]["found"]

    def test_power_law_unstable(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"potential": PL21_JSON})
        assert run("classify", cfg, tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert payload["class"] == "unstable"

    def test_infinite_threshold_is_null(self, tmp_path):
        # W_inf = +inf for a power law, so the scan's threshold is infinite
        cfg = write_config(tmp_path, "c.json", {"potential": PL21_JSON,
                                                 "scan": {"resolution": 8}})
        assert run("classify", cfg, tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert payload["certificate"]["found"]
        assert payload["certificate"]["threshold"] is None


class TestMinimize:
    def test_two_point_energy(self, tmp_path):
        cfg = write_config(tmp_path, "m.json",
                           {"potential": PL21_JSON, "N": 2,
                            "optim": CHEAP_OPTIM, "seed": 3})
        assert run("minimize", cfg, tmp_path / "out") == 0
        res = json.loads((tmp_path / "out" / "minimize.json").read_text())
        assert res["energy"] == pytest.approx(-0.125, abs=1e-9)
        assert (tmp_path / "out" / "diagnostics.json").exists()

    def test_three_points(self, tmp_path):
        cfg = write_config(tmp_path, "m.json",
                           {"potential": PL21_JSON, "N": 3,
                            "optim": CHEAP_OPTIM, "seed": 3})
        assert run("minimize", cfg, tmp_path / "out") == 0
        res = json.loads((tmp_path / "out" / "minimize.json").read_text())
        assert res["energy"] == pytest.approx(-1.0 / 6.0, abs=1e-6)

    def test_invalid_potential_schema_error(self, tmp_path, capsys):
        bad = dict(PL21_JSON, b=0.0)
        cfg = write_config(tmp_path, "m.json", {"potential": bad, "N": 2})
        assert run("minimize", cfg, tmp_path / "out") == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "m.json",
                           {"potential": PL21_JSON, "N": 2, "bogus": 1})
        assert run("minimize", cfg, tmp_path / "out") == cli.EXIT_CONFIG

    def test_run_record_hash_matches_stored_config(self, tmp_path):
        cfg = write_config(tmp_path, "m.json",
                           {"potential": PL21_JSON, "N": 2,
                            "optim": CHEAP_OPTIM, "seed": 3})
        run("minimize", cfg, tmp_path / "out")
        record = json.loads((tmp_path / "out" / "run_record.json").read_text())
        stored = json.loads((tmp_path / "out" / "config.json").read_text())
        assert record["config_hash"] == cli._config_hash(stored)
        assert record["tool_version"]
        assert "minimize" in record["phase_wall_times"]
        assert record["results"]["stop_reason"] == "converged"
        result = json.loads((tmp_path / "out" / "minimize.json").read_text())
        assert "stop_reason" not in result and result["converged"]


class TestSweep:
    def test_rows_and_plots(self, tmp_path):
        cfg = write_config(tmp_path, "s.json",
                           {"potential": MORSE_U_JSON, "N_list": [5, 10, 15, 20],
                            "optim": CHEAP_OPTIM, "seed": 5})
        assert run("sweep", cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == list(cli._SWEEP_HEADER)
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "5" and first[6] == "nan"     # no prefix fit yet
        last = lines[4].split(",")
        assert last[6] != "nan"                          # 4 positive samples
        assert (tmp_path / "out" / "diameter_vs_N.svg").exists()
        svg = (tmp_path / "out" / "spread_vs_N_loglog.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_deterministic_across_worker_counts(self, tmp_path):
        payload = {"potential": MORSE_U_JSON, "N_list": [5, 10],
                   "optim": CHEAP_OPTIM, "seed": 9}
        cfg = write_config(tmp_path, "s.json", payload)
        assert run("sweep", cfg, tmp_path / "o1", "--workers", "1") == 0
        assert run("sweep", cfg, tmp_path / "o4", "--workers", "4") == 0
        a = (tmp_path / "o1" / "sweep.csv").read_bytes()
        b = (tmp_path / "o4" / "sweep.csv").read_bytes()
        assert a == b


class TestRecover:
    def test_uniform_fixture(self, tmp_path):
        cfg = write_config(tmp_path, "r.json",
                           {"potential": {"kind": "power_law", "d": 1,
                                          "a": 2.0, "b": 1.0},
                            "N_list": [16, 256],
                            "measure": {"builtin": "uniform_box", "L": 1.0,
                                        "d": 1, "resolution": 64}})
        assert run("recover", cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "recover.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == list(cli._RECOVER_HEADER)
        rows = [line.split(",") for line in lines[1:]]
        gaps = [float(r[3]) for r in rows]
        assert gaps[1] < gaps[0]
        thetas = [float(r[5]) for r in rows]
        assert thetas[-1] >= 0.9
        assert (tmp_path / "out" / "energy_gap_vs_N.svg").exists()
        assert (tmp_path / "out" / "w1_vs_N.svg").exists()

    def test_unaligned_resolution_taken_as_is(self, tmp_path):
        cfg = write_config(tmp_path, "r.json",
                           {"potential": {"kind": "power_law", "d": 1,
                                          "a": 2.0, "b": 1.0},
                            "N_list": [81, 16],
                            "measure": {"builtin": "uniform_box", "L": 1.0,
                                        "d": 1, "resolution": 63}})
        assert run("recover", cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "recover.csv").read_text().strip().splitlines()
        got = [[float(v) for v in line.split(",")] for line in lines[1:]]
        # N = 16 has n = 2 cubes per side and N = 81 has n = 3; both rows
        # compare with the 63 cells of the input
        rho = mea.uniform_box(1, 1.0, 63)
        spec = pot.PowerLaw(1, 2.0, 1.0)
        want = rec.recovery_convergence_report(spec, rho, [16, 81])
        assert got == [[r.N, r.discrete_energy, r.continuum_energy, r.energy_gap,
                        r.w1, r.theta] for r in want]
        assert {r[2] for r in got} == {mea.continuum_energy_grid(spec, rho)}

    @pytest.mark.parametrize("levels, code, err", [
        (31, cli.EXIT_CONFIG, "config error: refine_levels must be an integer in [1, 30]\n"),
        (30, cli.EXIT_OK, "")])
    def test_refine_levels_at_most_30(self, tmp_path, capsys, levels, code, err):
        cfg = write_config(tmp_path, "r.json", dict(RECOVER_1D, refine_levels=levels))
        assert run("recover", cfg, tmp_path / "out") == code
        assert capsys.readouterr().err == err

    def test_small_box_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r.json",
                           {"potential": {"kind": "power_law", "d": 1,
                                          "a": 2.0, "b": 1.0},
                            "N_list": [16],
                            "measure": {"builtin": "uniform_box", "L": 0.5,
                                        "d": 1, "resolution": 64}})
        assert run("recover", cfg, tmp_path / "out") == cli.EXIT_CONFIG
        assert "L must be >= 1" in capsys.readouterr().err


class TestAnalyze:
    def test_coincident_points_give_a_null_seminorm(self, tmp_path):
        # two coincident points make the Morrey seminorm infinite, which RFC
        # 8259 JSON has no number for
        Configuration([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]).save_json(tmp_path / "x.json")
        cfg = write_config(tmp_path, "a.json",
                           {"potential": PL21_JSON,
                            "configuration_file": str(tmp_path / "x.json")})
        assert run("analyze", cfg, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["morrey_seminorm"] is None

    def test_saved_two_point_optimum(self, tmp_path):
        Configuration([[0.0, 0.0], [1.0, 0.0]]).save_json(tmp_path / "x.json")
        cfg = write_config(tmp_path, "a.json",
                           {"potential": PL21_JSON,
                            "configuration_file": str(tmp_path / "x.json")})
        assert run("analyze", cfg, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert report["el_spread_pairs"] == 0.0
        assert report["el_spread_energy"] == 0.0
        assert report["energy"] == pytest.approx(-0.125)
        lines = (tmp_path / "out" / "analysis.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == list(cli._SWEEP_HEADER) and len(lines) == 2

    def test_random_config_gets_note_when_not_stationary(self, tmp_path):
        rng = np.random.default_rng(12)
        Configuration(rng.normal(size=(6, 2)) * 0.1).save_csv(tmp_path / "x.csv")
        cfg = write_config(tmp_path, "a.json",
                           {"potential": MORSE_U_JSON,
                            "configuration_file": str(tmp_path / "x.csv")})
        assert run("analyze", cfg, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "analysis.json").read_text())
        stat_min = min(v for _, v in report["stationarity"])
        if stat_min < 0:
            assert any("minimiser" in note for note in report["notes"])

    def test_missing_file_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, "a.json",
                           {"potential": PL21_JSON,
                            "configuration_file": str(tmp_path / "nope.json")})
        assert run("analyze", cfg, tmp_path / "out") == cli.EXIT_IO


@pytest.mark.parametrize("command, sizes", [("minimize", {"N": 6}),
                                            ("sweep", {"N_list": [5, 6]})])
def test_unconverged_descent_is_numeric_failure(tmp_path, capsys, command, sizes):
    cfg = write_config(tmp_path, "c.json",
                       {"potential": MORSE_U_JSON, **sizes,
                        "optim": {"n_starts": 1, "hop_count": 0, "max_iters": 1}})
    assert run(command, cfg, tmp_path / "out") == cli.EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err
    record = json.loads((tmp_path / "out" / "run_record.json").read_text())
    assert record["results"]["converged"] is False


class TestFlags:
    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "m.json",
                           {"potential": PL21_JSON, "N": 2,
                            "optim": CHEAP_OPTIM, "seed": 3})
        run("minimize", cfg, tmp_path / "out", "--seed", "99")
        record = json.loads((tmp_path / "out" / "run_record.json").read_text())
        assert record["seed"] == 99

    def test_zero_workers_is_one_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.json", {"potential": PL21_JSON, "N": 2,
                                                 "optim": CHEAP_OPTIM})
        assert run("minimize", cfg, tmp_path / "out", "--workers", "0") == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: workers must be an integer >= 1\n"
        assert not (tmp_path / "out" / "run_record.json").exists()


RECOVER_1D = {"potential": {"kind": "power_law", "d": 1, "a": 2.0, "b": 1.0},
              "N_list": [16],
              "measure": {"builtin": "uniform_box", "L": 1.0, "d": 1, "resolution": 64}}


@pytest.mark.parametrize("command, payload", [
    ("minimize", {"potential": PL21_JSON, "N": 2, "optim": {"n_starts": 2.5}}),
    ("recover", dict(RECOVER_1D, refine_levels="x")),
    ("minimize", {"potential": PL21_JSON, "N": 2,
                  "diagnostics": {"morrey_exponent": -1}}),
    ("minimize", {"potential": PL21_JSON, "N": 2, "seed": "x"}),
    ("recover", dict(RECOVER_1D, measure=dict(RECOVER_1D["measure"], L="abc"))),
    ("sweep", {"potential": MORSE_U_JSON, "N_list": 5}),
    ("recover", dict(RECOVER_1D, N_list=5)),
    ("sweep", {"potential": MORSE_U_JSON, "N_list": []}),
    ("recover", dict(RECOVER_1D, measure={"grid_file": "not_json.grid"})),
    ("analyze", {"potential": PL21_JSON, "configuration_file": 12345}),
    ("analyze", {"potential": PL21_JSON, "configuration_file": ["x.json"]}),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "not_json.json"}),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "text_point.json"}),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "ragged.json"}),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "text_point.csv"}),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "ragged.csv"}),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"margin": "x"}}),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"scales": 5}}),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"resolution": "a"}}),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"scales": []}}),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"resolution": 0}}),
    ("classify", {"potential": dict(PL21_JSON, d="x")}),
    ("classify", {"potential": dict(PL21_JSON, a="x")}),
    ("classify", {"potential": dict(MORSE_U_JSON, la="q")}),
    ("classify", {"potential": dict(PL21_JSON, a=None)}),
    ("classify", {"potential": dict(PL21_JSON, d=2.7)}),
    ("classify", {"potential": dict(PL21_JSON, d=True)}),
    ("classify", {"potential": dict(PL21_JSON, a=10**400)}),
    ("classify", {"potential": dict(MORSE_U_JSON, d=5)}),
    ("classify", {"potential": dict(MORSE_U_JSON, d=30)}),
    ("recover", {"potential": dict(PL21_JSON, d=30), "N_list": [16],
                 "measure": {"builtin": "uniform_box", "L": 1.0, "d": 30,
                             "resolution": 8}}),
    ("recover", dict(RECOVER_1D, measure={"grid_file": 12345})),
    ("analyze", {"potential": RECOVER_1D["potential"],
                 "configuration_file": "bool_d.json"}),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "float_d.json"}),
    ("sweep", {"potential": MORSE_U_JSON, "N_list": [6, 6, 6], "optim": CHEAP_OPTIM}),
    ("recover", dict(RECOVER_1D, N_list=[16, 16])),
    ("sweep", {"potential": MORSE_U_JSON, "N_list": [2, 3], "optim": CHEAP_OPTIM,
               "diagnostics": {"eps_factors": [0.1]}}),
    ("sweep", {"potential": MORSE_U_JSON, "N_list": [2, 3], "optim": CHEAP_OPTIM,
               "diagnostics": {"lower_mass_radius": 0.5}}),
    ("minimize", {"potential": PL21_JSON, "N": 2, "optim": {"init_radius": 10**400}}),
    ("recover", dict(RECOVER_1D, measure=dict(RECOVER_1D["measure"], L=10**400))),
], ids=["float_n_starts", "string_refine_levels", "negative_morrey_exponent",
        "string_seed", "string_box_L",
        "scalar_N_list_sweep", "scalar_N_list_recover", "empty_N_list",
        "grid_file_not_json", "integer_configuration_file", "list_configuration_file",
        "configuration_not_json", "configuration_text_point_json",
        "configuration_ragged_json", "configuration_text_point_csv",
        "configuration_ragged_csv", "string_scan_margin", "scalar_scan_scales",
        "string_scan_resolution", "empty_scan_scales", "zero_scan_resolution",
        "string_potential_d", "string_potential_a", "string_morse_la",
        "null_potential_a", "float_potential_d", "bool_potential_d",
        "overflowing_potential_a", "morse_d5_scan_refinement",
        "morse_d30_scan_grid", "uniform_box_d30_recover", "integer_grid_file",
        "bool_configuration_d", "float_configuration_d", "repeated_N_list_sweep",
        "repeated_N_list_recover", "sweep_diagnostics_eps_factors",
        "sweep_diagnostics_lower_mass_radius", "huge_integer_init_radius",
        "huge_integer_box_L"])
def test_malformed_input_is_config_error(tmp_path, monkeypatch, capsys,
                                         command, payload):
    # relative file names in a payload resolve against tmp_path
    monkeypatch.chdir(tmp_path)
    files = {"not_json.grid": "lo, hi\n", "not_json.json": "points: [0, 0]\n",
             "text_point.json": '{"d": 2, "points": [[0, 0], ["a", 1]]}',
             "ragged.json": '{"d": 2, "points": [[0, 0], [1]]}',
             "text_point.csv": "0,0\na,1\n", "ragged.csv": "0,0\n1\n",
             "bool_d.json": '{"d": true, "points": [[0.0], [1.0], [2.5]]}',
             "float_d.json": '{"d": 2.0, "points": [[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(command, cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_record.json").exists()


@pytest.mark.parametrize("command, payload, artifact", [
    ("minimize", {"potential": PL21_JSON, "N": 3, "optim": CHEAP_OPTIM,
                  "diagnostics": {"eps_factors": [0.7]}}, "minimize.json"),
    ("minimize", {"potential": PL21_JSON, "N": 3, "optim": CHEAP_OPTIM,
                  "diagnostics": {"lower_mass_radius": float("nan")}}, "minimize.json"),
    ("sweep", {"potential": PL21_JSON, "N_list": [2, 3], "optim": CHEAP_OPTIM,
               "diagnostics": {"morrey_exponent": float("inf")}}, "sweep.csv"),
    ("sweep", {"potential": PL21_JSON, "N_list": [3, 1], "optim": CHEAP_OPTIM},
     "sweep.csv"),
], ids=["minimize_eps_factor", "minimize_nan_radius", "sweep_infinite_exponent",
        "sweep_N_1_after_a_solve"])
def test_values_read_after_a_solve_exit_before_it(tmp_path, monkeypatch, command,
                                                  payload, artifact):
    # these values reach the library only after a solve, so cli checks them first
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")
    monkeypatch.setattr(cli, "minimize_multistart", no_solve)
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(command, cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert not (tmp_path / "out" / artifact).exists()


def test_grid_file_mass_error_is_one_plain_message(tmp_path, capsys):
    # the constructor's MeasureError reaches the user after the file name, with
    # the mass sum as a plain float
    grid = tmp_path / "rho.json"
    mea.uniform_box(1, 1.0, 4).save(grid)
    (tmp_path / "rho.json.masses.csv").write_text("1\n1\n1\n1\n")
    cfg = write_config(tmp_path, "c.json", dict(RECOVER_1D, measure={"grid_file": str(grid)}))
    assert run("recover", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: grid density {grid}: "
                                       "cell masses must sum to 1 (got 4.0)\n")


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.pop("mass_csv"), "missing key 'mass_csv'"),
    (lambda h: h.update(resolution="abc"), "resolution must be an integer >= 1"),
    (lambda h: h.update(lo=["a", -1]), "lo[0] must be a finite number in (-inf, inf)"),
    (lambda h: h.update(hi=[1, float("inf")]), "hi[1] must be a finite number in (-inf, inf)"),
    (lambda h: h.update(d=3), "d must be the length of lo and hi, 2"),
    (lambda h: h.update(d=True), "d must be an integer >= 1"),
    (lambda h: h.update(mass_csv=5), "mass_csv must be a file name string"),
    (None, "must be a JSON object"),
], ids=["missing_mass_csv", "string_resolution", "string_lo", "infinite_hi", "wrong_d",
        "bool_d", "integer_mass_csv", "list_header"])
def test_grid_file_header_error_is_one_plain_message(tmp_path, capsys, edit, message):
    # every malformed header names the key at fault, with no Python repr
    grid = tmp_path / "rho.json"
    mea.uniform_box(2, 1.0, 4).save(grid)
    head = json.loads(grid.read_text())
    if edit is None:
        head = [head["mass_csv"]]
    else:
        edit(head)
    grid.write_text(json.dumps(head))
    cfg = write_config(tmp_path, "c.json", {"potential": PL21_JSON, "N_list": [16],
                                             "measure": {"grid_file": str(grid)}})
    assert run("recover", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: grid density {grid}: {message}\n"


@pytest.mark.parametrize("n_list, cells", [([4096], "4096 x 4096"),
                                           ([16, 8000], "4096 x 8000")],
                         ids=["N_4096", "N_16_then_8000"])
def test_recover_above_the_cost_matrix_cap_is_config_error(tmp_path, monkeypatch, capsys,
                                                           n_list, cells):
    # N particles against the nonempty cells of the 64 x 64 grid; refused
    # before any N, N = 16 too, is built
    def no_build(*args, **kwargs):
        raise AssertionError("a recovery configuration was built")
    monkeypatch.setattr(rec, "build_recovery", no_build)
    cfg = write_config(tmp_path, "c.json", {
        "potential": PL21_JSON, "N_list": n_list,
        "measure": {"builtin": "uniform_box", "L": 1.0, "d": 2, "resolution": 64}})
    assert run("recover", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: a transport cost matrix of {cells} "
                                       "cells is above the cap of 4000000 cells\n")


def _never(*args, **kwargs):
    raise AssertionError("work began above the cell cap")


@pytest.mark.parametrize("command, payload, target, array", [
    ("minimize", {"potential": PL21_JSON, "N": 2001}, (pairs, "SelfBlock"),
     "a trial pair block of 2001 x 2001 cells"),
    ("sweep", {"potential": PL21_JSON, "N_list": [10, 2001]}, (cli, "minimize_multistart"),
     "a trial pair block of 2001 x 2001 cells"),
    ("recover", dict(RECOVER_1D, N_list=[3_000_000]), (rec, "build_recovery"),
     "a pair block of 512 x 3000000 cells"),
], ids=["minimize_N_2001", "sweep_N_10_then_2001", "recover_N_3000000"])
def test_above_the_cell_cap_is_config_error_before_any_work(tmp_path, monkeypatch, capsys,
                                                            command, payload, target, array):
    # no pair block is built, no N of a sweep (N = 10 neither) is solved and no
    # recovery configuration is built
    monkeypatch.setattr(*target, _never)
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(command, cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: {array} is above the cap of "
                                       "4000000 cells\n")


def test_analyze_above_the_cell_cap_is_config_error_before_any_work(tmp_path, monkeypatch,
                                                                    capsys):
    # 7813 points need a 512 x 7813 pair block: refused before any report work
    monkeypatch.setattr(diag, "build_report", _never)
    points = tmp_path / "points.csv"
    Configuration(np.arange(2 * 7813.0).reshape(-1, 2)).save_csv(points)
    cfg = write_config(tmp_path, "c.json", {"potential": PL21_JSON,
                                            "configuration_file": str(points)})
    assert run("analyze", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: a pair block of 512 x 7813 cells "
                                       "is above the cap of 4000000 cells\n")


def test_recover_fits_in_2_gib(tmp_path):
    # with the address space of the child alone limited to 2 GiB, N = 3,000,000
    # is one config error line, not a numpy MemoryError traceback, and the
    # README's recover run still succeeds
    resource = pytest.importorskip("resource")

    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for n_list, code, err in (([3_000_000], cli.EXIT_CONFIG, "config error: a pair block of "
                               "512 x 3000000 cells is above the cap of 4000000 cells\n"),
                              ([16, 256, 4096], cli.EXIT_OK, "")):
        cfg = write_config(tmp_path, "c.json", dict(RECOVER_1D, N_list=n_list))
        out = subprocess.run([sys.executable, "-m", "pairenergy.cli", "recover", "--config", cfg,
                              "--out", str(tmp_path / f"out{len(n_list)}")],
                             capture_output=True, text=True, env=env, preexec_fn=limit)
        assert (out.returncode, out.stderr) == (code, err)


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["utf16_bom", "nested_100k"])
@pytest.mark.parametrize("role", ["config", "grid_file", "configuration_file"])
def test_unreadable_json_file_is_one_config_error(tmp_path, capsys, role, content):
    # bytes that are not UTF-8, or nesting too deep to parse, in any JSON
    # input file give one line naming the file, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if role == "config":
        command, cfg = "classify", str(bad)
    elif role == "grid_file":
        command, cfg = "recover", write_config(tmp_path, "c.json",
                                               dict(RECOVER_1D, measure={"grid_file": str(bad)}))
    else:
        command, cfg = "analyze", write_config(tmp_path, "c.json",
                                               {"potential": PL21_JSON,
                                                "configuration_file": str(bad)})
    assert run(command, cfg, tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"{bad}: not a UTF-8 JSON file: " in err


def test_refused_configuration_file_is_named(tmp_path, capsys):
    # valid JSON whose content Configuration.from_json refuses
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 3, "points": [[0, 0], [1, 0]]}))
    cfg = write_config(tmp_path, "c.json", {"potential": PL21_JSON,
                                            "configuration_file": str(bad)})
    assert run("analyze", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: configuration {bad}: "
                                       "points do not match the declared dimension\n")


def test_refused_csv_configuration_is_named(tmp_path, capsys):
    # a CSV the reader parses but the Configuration constructor refuses
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\nnan,1\n")
    cfg = write_config(tmp_path, "c.json", {"potential": PL21_JSON,
                                            "configuration_file": str(bad)})
    assert run("analyze", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: configuration {bad}: "
                                       "all coordinates must be finite\n")


def test_cli_import_loads_no_scipy():
    # the package imports no scipy
    code = ("import sys, pairenergy.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_planar_recover_loads_no_scipy(tmp_path):
    # W1 in d = 2 with unequal weights (20 particles, 64 cells) runs in numpy
    cfg = write_config(tmp_path, "c.json", {
        "potential": PL21_JSON, "N_list": [20],
        "measure": {"builtin": "uniform_box", "L": 1.0, "d": 2, "resolution": 8}})
    code = ("import sys, pairenergy.cli as cli; "
            f"assert cli.main(['recover', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "recover.csv").exists()


# Valid, small configs of every command.  File names resolve against the test's
# working directory, where the fuzz test writes them.
FUZZ_OPTIM = {"n_starts": 1, "hop_count": 0, "max_iters": 200}
FUZZ_BASES = [
    ("classify", {"potential": MORSE_U_JSON,
                  "scan": {"scales": [0.5, 2.0], "resolution": 8, "margin": 1e-6}}),
    ("minimize", {"potential": PL21_JSON, "N": 3, "seed": 1, "optim": FUZZ_OPTIM,
                  "diagnostics": {"eps_factors": [0.1], "morrey_exponent": 1.0}}),
    ("sweep", {"potential": PL21_JSON, "N_list": [2, 3], "optim": FUZZ_OPTIM}),
    ("recover", dict(RECOVER_1D, N_list=[4], refine_levels=1,
                     measure=dict(RECOVER_1D["measure"], resolution=8))),
    ("recover", dict(RECOVER_1D, N_list=[4], measure={"grid_file": "rho.json"})),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "x.json",
                 "diagnostics": {"lower_mass_radius": 0.5}}),
]
FILE_KEYS = {"configuration_file", "grid_file"}
# wrong types, the out-of-range numbers the schema documents (0.5 is the
# eps_factors bound), the non-finite numbers json reads (NaN, Infinity) and a
# fraction where a count belongs
WRONG_VALUES = ["x", None, True, [1.0], {"a": 1}, 0, -1, 0.5,
                float("nan"), float("inf"), 2.5]


def _paths(obj, prefix=()):
    """The path of every key and list entry of a config, outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """One base config with one key dropped or added, or one value replaced;
    a file-valued key is only ever replaced by another string."""
    command, cfg = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    *parents, key = draw(st.sampled_from(list(_paths(cfg))))
    holder = cfg
    for k in parents:
        holder = holder[k]
    kind = draw(st.sampled_from(["drop", "add", "replace"]))
    if kind == "drop" and isinstance(holder, dict):
        del holder[key]
    elif kind == "add" and isinstance(holder, dict):
        holder["bogus"] = 1
    elif key in FILE_KEYS:
        holder[key] = "missing.json"
    else:
        holder[key] = draw(st.sampled_from(WRONG_VALUES))
    return command, cfg


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_configs())
def test_fuzzed_config_exits_cleanly(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    Configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]]).save_json(tmp_path / "x.json")
    mea.uniform_box(1, 1.0, 8).save(tmp_path / "rho.json")
    command, payload = case
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    out = work / "out"
    rc = run(command, write_config(work, "c.json", payload), out)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_IO)
    assert (out / "run_record.json").exists() == (rc in (cli.EXIT_OK, cli.EXIT_NUMERIC))
