"""The shared value and JSON checks, and the library calls that refuse through them
what the CLI refuses, each with its module's error."""

import math
import re

import numpy as np
import pytest

from pairenergy import checks
from pairenergy import configuration as cfg
from pairenergy import diagnostics as diag
from pairenergy import measures as mea
from pairenergy import optimizer as opt
from pairenergy import potentials as pot
from pairenergy import recovery as rec

NAN, INF = float("nan"), float("inf")
MORSE_U = pot.Morse(2, 1.0, 0.5, 1.0, 1.0)
MORSE_S = pot.Morse(2, 5.0, 0.5, 1.0, 1.0)
PL11 = pot.PowerLaw(1, 2.0, 1.0)
X = cfg.Configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]])
RHO = mea.uniform_box(1, 1.0, 16)
ONE_STEP = opt.OptimOpts(n_starts=1, hop_count=0, max_iters=1)


class Refused(Exception):
    """A caller's own error class."""


class TestChecks:
    @pytest.mark.parametrize("v", [True, np.bool_(True), 2.0, 2.5, "2", None, [2]])
    def test_integer_refuses_non_integers(self, v):
        with pytest.raises(Refused, match="^n must be an integer >= 1$"):
            checks.integer(v, "n", Refused)

    def test_integer_bounds(self):
        assert checks.integer(np.int64(3), "n", ValueError, minimum=3) == 3
        assert type(checks.integer(np.int64(3), "n", ValueError)) is int
        assert checks.integer(-2**70, "seed", ValueError, minimum=-math.inf) == -2**70
        with pytest.raises(ValueError, match="^n must be an integer >= 2$"):
            checks.integer(1, "n", ValueError, minimum=2)
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            checks.integer(0.0, "seed", ValueError, minimum=-math.inf)

    @pytest.mark.parametrize("v", [True, NAN, INF, -INF, 10**400, "1", None, [1.0], 0, 0.5])
    def test_real_refuses_non_finite_and_out_of_range(self, v):
        with pytest.raises(Refused, match=r"^t must be a finite number in \(0, 0.5\)$"):
            checks.real(v, "t", Refused, above=0.0, below=0.5)

    def test_real_converts(self):
        assert type(checks.real(np.float32(0.25), "t", ValueError)) is float
        assert checks.real(3, "t", ValueError) == 3.0
        assert checks.real(-1e308, "t", ValueError) == -1e308

    @pytest.mark.parametrize("v", [[[0, "a"]], [[True, 0], [1, 2]], [[0, 0], [1]], [10**400],
                                   np.array([True]), "1", None, [1.0, [2.0]]])
    def test_reals_refuses_what_is_not_numbers(self, v):
        with pytest.raises(Refused, match="^p must hold numbers only, in rows of one length$"):
            checks.reals(v, "p", Refused)

    def test_reals_copies_to_floats(self):
        a = np.arange(4)
        out = checks.reals(a, "p", ValueError)
        assert out.dtype == float and np.array_equal(out, a) and not np.shares_memory(out, a)
        assert checks.reals([[1, np.float32(2.5)], [NAN, INF]], "p", ValueError).shape == (2, 2)

    def test_n_list_returns_ints(self):
        assert checks.n_list((np.int64(3), 2), Refused) == [3, 2]

    @pytest.mark.parametrize("v, message", [
        (5, "N_list must be a nonempty list"), ((), "N_list must be a nonempty list"),
        ([2, 1], "N_list entry must be an integer >= 2"),
        ([2, 3.0], "N_list entry must be an integer >= 2"),
        ([3, 2, 3], "N_list entries must be distinct")])
    def test_n_list_refuses(self, v, message):
        with pytest.raises(Refused, match=f"^{message}$"):
            checks.n_list(v, Refused)

    def test_cells_refuses_above_the_cap(self):
        assert checks.MAX_CELLS == 4_000_000
        checks.cells(checks.MAX_CELLS, "a block", Refused)
        with pytest.raises(Refused, match="^a block is above the cap of 4000000 cells$"):
            checks.cells(checks.MAX_CELLS + 1, "a block", Refused)

    def test_json_file_reads_utf8(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"x": ["\u00e9", 1.5]}', encoding="utf-8")
        assert checks.json_file(path, "input", Refused) == {"x": ["\u00e9", 1.5]}

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", '{"x": "\u00e9"}'.encode("latin-1"),
                                         b"{'x': 1}", b"", b"[" * 100_000],
                             ids=["utf16_bom", "latin1", "bad_syntax", "empty", "deep"])
    def test_json_file_refuses_what_is_not_utf8_json(self, tmp_path, content):
        path = tmp_path / "a.json"
        path.write_bytes(content)
        with pytest.raises(Refused, match=f"^input {re.escape(str(path))}: not a UTF-8 JSON file: "):
            checks.json_file(path, "input", Refused)

    def test_json_file_passes_os_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            checks.json_file(tmp_path / "missing.json", "input", Refused)

    def test_json_object_returns_the_object(self):
        obj = {"a": 1, "c": 2}
        assert checks.json_object(obj, "o", Refused, required=("a",), optional=("b", "c")) is obj
        assert checks.json_object({}, "o", Refused, optional={"b"}) == {}

    @pytest.mark.parametrize("obj, message", [
        ([1], "o: must be a JSON object"),
        (None, "o: must be a JSON object"),
        ({"c": 1}, "o: missing key 'a'"),
        ({"a": 1, "x": 2, "y": 3}, "o: unknown key 'x'"),
        ({"x": 2}, "o: missing key 'a'"),
    ], ids=["list", "null", "missing", "unknown", "missing_before_unknown"])
    def test_json_object_names_the_key(self, obj, message):
        with pytest.raises(Refused, match=f"^{message}$"):
            checks.json_object(obj, "o", Refused, required=("a",), optional=("c",))


@pytest.mark.parametrize("call, error", [
    (lambda: pot.numeric_instability_scan(MORSE_S, np.geomspace(0.1, 20.0, 16),
                                          tolerance=-1), pot.PotentialError),
    (lambda: pot.numeric_instability_scan(MORSE_U, []), pot.PotentialError),
    (lambda: pot.numeric_instability_scan(MORSE_U, [1.0], resolution=5.5),
     pot.PotentialError),
    (lambda: cfg.ball_mass(X, 0, NAN), cfg.ConfigurationError),
    (lambda: diag.build_report(MORSE_U, X, lower_mass_radius=NAN), cfg.ConfigurationError),
    (lambda: diag.empirical_morrey_seminorm(X, NAN), cfg.ConfigurationError),
    (lambda: mea.uniform_box(0, 1, 4), mea.MeasureError),
    (lambda: mea.uniform_box(1, INF, 4), mea.MeasureError),
    (lambda: mea.uniform_box(1, 1, 2.7), mea.MeasureError),
    (lambda: mea.continuum_energy_grid(PL11, RHO, refine_levels="x"), mea.MeasureError),
    (lambda: rec.recovery_convergence_report(PL11, RHO, [16, 16]), rec.RecoveryError),
    (lambda: rec.recovery_convergence_report(PL11, RHO, [16.7]), rec.RecoveryError),
    (lambda: rec.recovery_convergence_report(PL11, RHO, 5), rec.RecoveryError),
    (lambda: rec.recovery_convergence_report(PL11, RHO, []), rec.RecoveryError),
    (lambda: mea.regrid(mea.uniform_box(1, 1, 5), 2.5), mea.MeasureError),
    (lambda: mea.uniform_ball(1, 1.0, 4.9), mea.MeasureError),
    (lambda: mea.GridDensity([0.0], [1.0], 1.9, [1.0]), mea.MeasureError),
    (lambda: rec.build_recovery(RHO, 16.7), rec.RecoveryError),
    (lambda: rec.auxiliary_count_bound(16.5, 1), rec.RecoveryError),
    (lambda: cfg.ball_mass(X, 1.5, 1.0), cfg.ConfigurationError),
    (lambda: pot.approximate_laplacian(MORSE_U, [1.0, 0.0], NAN), pot.PotentialError),
    (lambda: diag.stationarity_check(MORSE_U, X, NAN), cfg.ConfigurationError),
    (lambda: opt.minimize_multistart(MORSE_U, 2.5, ONE_STEP), cfg.ConfigurationError),
    (lambda: opt.minimize_multistart(MORSE_U, 2, ONE_STEP, workers=0),
     cfg.ConfigurationError),
    (lambda: opt.minimize_multistart(MORSE_U, 2, ONE_STEP, workers="2"),
     cfg.ConfigurationError),
    (lambda: diag.fit_power_decay([(2, -1.0), (3, 1.0)]), cfg.ConfigurationError),
    (lambda: diag.fit_power_decay([(2, 1.0), (2, 0.5)]), cfg.ConfigurationError),
    (lambda: rec._integer_root(-1, 2), rec.RecoveryError),
    (lambda: cfg.Configuration([[0, "a"]]), cfg.ConfigurationError),
    (lambda: mea.AtomicMeasure([[0, "x"]], [1.0]), mea.MeasureError),
    (lambda: cfg.Configuration.from_json({"d": 2, "points": [[True, 0], [1, 2]]}),
     cfg.ConfigurationError),
    (lambda: cfg.Configuration.from_json({"d": 2, "points": [[0, "1"], [1, 2]]}),
     cfg.ConfigurationError),
    (lambda: mea.GridDensity([0.0], [INF], 4, np.full(4, 0.25)), mea.MeasureError),
    (lambda: mea.GridDensity([True], [2.0], 4, np.full(4, 0.25)), mea.MeasureError),
    (lambda: mea.GridDensity(["a"], [1.0], 4, np.full(4, 0.25)), mea.MeasureError),
    (lambda: mea.GridDensity([], [], 4, [1.0]), mea.MeasureError),
    (lambda: mea.GridDensity([0.0], [1.0], 2, ["a", "b"]), mea.MeasureError),
    (lambda: opt.minimize_local(MORSE_U, cfg.Configuration(np.arange(4002.0).reshape(-1, 2)),
                                ONE_STEP), cfg.ConfigurationError),
    (lambda: opt.minimize_multistart(MORSE_U, 2001, ONE_STEP), cfg.ConfigurationError),
    (lambda: rec.recovery_convergence_report(PL11, mea.uniform_box(1, 1.0, 64), [3_000_000]),
     rec.RecoveryError),
], ids=["scan_negative_tolerance", "scan_empty_scales", "scan_float_resolution",
        "ball_mass_nan_radius", "report_nan_lower_mass_radius", "morrey_nan_exponent",
        "uniform_box_d0", "uniform_box_infinite_L", "uniform_box_float_resolution",
        "string_refine_levels", "repeated_recovery_N", "float_recovery_N",
        "scalar_recovery_N_list", "empty_recovery_N_list",
        "regrid_float_multiple", "uniform_ball_float_resolution",
        "grid_density_float_resolution", "build_recovery_float_N", "aux_bound_float_N",
        "ball_mass_float_index", "laplacian_nan_eps", "stationarity_nan_eps",
        "multistart_float_N", "multistart_zero_workers", "multistart_string_workers",
        "fit_negative_value", "fit_one_distinct_N",
        "integer_root_negative", "configuration_string_coordinate",
        "atomic_string_coordinate", "from_json_bool_coordinate",
        "from_json_string_coordinate", "grid_density_infinite_hi",
        "grid_density_bool_lo", "grid_density_string_lo", "grid_density_no_axes",
        "grid_density_string_masses", "minimize_local_N_2001", "multistart_N_2001",
        "recovery_pair_block_N_3000000"])
def test_library_refuses_what_the_cli_refuses(call, error):
    with pytest.raises(error):
        call()
