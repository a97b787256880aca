import json

import numpy as np
import pytest

from pairenergy import cli
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


def run(cmd, cfg_path, out_dir, *extra):
    return cli.main([cmd, "--config", cfg_path, "--out", str(out_dir), *extra])


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


class TestWorkersEnv:
    def test_env_override_logged(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        cfg = write_config(tmp_path, "m.json",
                           {"potential": PL21_JSON, "N": 2,
                            "optim": CHEAP_OPTIM, "seed": 3})
        assert run("minimize", cfg, tmp_path / "out", "--workers", "1") == 0
        record = json.loads((tmp_path / "out" / "run_record.json").read_text())
        assert record["workers"] == 2 and record["workers_from_env"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "m.json",
                           {"potential": PL21_JSON, "N": 2,
                            "optim": CHEAP_OPTIM, "seed": 3})
        run("minimize", cfg, tmp_path / "out", "--seed", "99")
        record = json.loads((tmp_path / "out" / "run_record.json").read_text())
        assert record["seed"] == 99


RECOVER_1D = {"potential": {"kind": "power_law", "d": 1, "a": 2.0, "b": 1.0},
              "N_list": [16],
              "measure": {"builtin": "uniform_box", "L": 1.0, "d": 1, "resolution": 64}}


@pytest.mark.parametrize("command, payload, env", [
    ("minimize", {"potential": PL21_JSON, "N": 2, "optim": {"n_starts": 2.5}}, None),
    ("recover", dict(RECOVER_1D, refine_levels="x"), None),
    ("minimize", {"potential": PL21_JSON, "N": 2,
                  "diagnostics": {"morrey_exponent": -1}}, None),
    ("minimize", {"potential": PL21_JSON, "N": 2, "optim": CHEAP_OPTIM}, "abc"),
    ("minimize", {"potential": PL21_JSON, "N": 2, "seed": "x"}, None),
    ("recover", dict(RECOVER_1D, measure=dict(RECOVER_1D["measure"], L="abc")), None),
    ("sweep", {"potential": MORSE_U_JSON, "N_list": 5}, None),
    ("recover", dict(RECOVER_1D, N_list=5), None),
    ("sweep", {"potential": MORSE_U_JSON, "N_list": []}, None),
    ("recover", dict(RECOVER_1D, measure={"grid_file": "not_json.grid"}), None),
    ("analyze", {"potential": PL21_JSON, "configuration_file": 12345}, None),
    ("analyze", {"potential": PL21_JSON, "configuration_file": ["x.json"]}, None),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "not_json.json"}, None),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "text_point.json"}, None),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "ragged.json"}, None),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "text_point.csv"}, None),
    ("analyze", {"potential": PL21_JSON, "configuration_file": "ragged.csv"}, None),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"margin": "x"}}, None),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"scales": 5}}, None),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"resolution": "a"}}, None),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"scales": []}}, None),
    ("classify", {"potential": MORSE_U_JSON, "scan": {"resolution": 0}}, None),
    ("classify", {"potential": dict(PL21_JSON, d="x")}, None),
    ("classify", {"potential": dict(PL21_JSON, a="x")}, None),
    ("classify", {"potential": dict(MORSE_U_JSON, la="q")}, None),
    ("classify", {"potential": dict(PL21_JSON, a=None)}, None),
    ("classify", {"potential": dict(PL21_JSON, d=2.7)}, None),
    ("classify", {"potential": dict(PL21_JSON, d=True)}, None),
    ("classify", {"potential": dict(PL21_JSON, a=10**400)}, None),
], ids=["float_n_starts", "string_refine_levels", "negative_morrey_exponent",
        "non_integer_workers_env", "string_seed", "string_box_L",
        "scalar_N_list_sweep", "scalar_N_list_recover", "empty_N_list",
        "grid_file_not_json", "integer_configuration_file", "list_configuration_file",
        "configuration_not_json", "configuration_text_point_json",
        "configuration_ragged_json", "configuration_text_point_csv",
        "configuration_ragged_csv", "string_scan_margin", "scalar_scan_scales",
        "string_scan_resolution", "empty_scan_scales", "zero_scan_resolution",
        "string_potential_d", "string_potential_a", "string_morse_la",
        "null_potential_a", "float_potential_d", "bool_potential_d",
        "overflowing_potential_a"])
def test_malformed_input_is_config_error(tmp_path, monkeypatch, capsys,
                                         command, payload, env):
    # relative file names in a payload resolve against tmp_path
    monkeypatch.chdir(tmp_path)
    files = {"not_json.grid": "lo, hi\n", "not_json.json": "points: [0, 0]\n",
             "text_point.json": '{"d": 2, "points": [[0, 0], ["a", 1]]}',
             "ragged.json": '{"d": 2, "points": [[0, 0], [1]]}',
             "text_point.csv": "0,0\na,1\n", "ragged.csv": "0,0\n1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    if env is not None:
        monkeypatch.setenv(cli.WORKERS_ENV, env)
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(command, cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_record.json").exists()
