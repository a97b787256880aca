import math

import numpy as np
import pytest

from pairenergy import configuration as cfg
from pairenergy import diagnostics as diag
from pairenergy import optimizer as opt
from pairenergy import potentials as pot

PL21 = pot.PowerLaw(2, 2.0, 1.0)
PL11 = pot.PowerLaw(1, 2.0, 1.0)
PL31 = pot.PowerLaw(3, 2.0, 1.0)
MORSE2 = pot.Morse(2, 1.0, 0.5, 1.0, 1.0)

TWO_POINTS = cfg.Configuration([[0.0], [1.0]])
COLLINEAR = cfg.Configuration([[0.0], [1.0], [2.0]])
EQUILATERAL = cfg.Configuration([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])


def brute_force_morrey(X, s):
    """Independent oracle: direct counting over a dense radius grid augmented
    with the pairwise distances themselves (closed balls at those jumps).
    Distances are evaluated once, by the same metric, for radii and counts."""
    pts = X.points
    n = X.n
    per_centre = [np.delete(np.linalg.norm(pts - pts[i], axis=1), i)
                  for i in range(n)]
    dists = np.concatenate(per_centre)
    lo, hi = 0.5 * float(dists.min()), 2.0 * float(dists.max())
    radii = np.concatenate([np.geomspace(lo, hi, 10_000), np.sort(dists)])
    best = 0.0
    for d in per_centre:
        for r in radii:
            mass = np.count_nonzero(d <= r) / n
            best = max(best, r ** (-s) * mass)
    return best


def unique_morrey(X, s):
    """(value, index, radius) by the per-particle reference: each row of
    distances reduced to closed-ball counts with np.unique and cumsum."""
    pts, n = X.points, X.n
    best, bi, br = -math.inf, 0, math.nan
    for i in range(n):
        d = np.delete(np.linalg.norm(pts - pts[i], axis=1), i)
        if np.any(d == 0.0):
            return math.inf, i, 0.0
        dist, counts = np.unique(d, return_counts=True)
        vals = dist ** (-s) * (np.cumsum(counts) / n)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, bi, br = float(vals[k]), i, float(dist[k])
    return best, bi, br


def lattice(n, cols):
    """n points of the square lattice of spacing 0.5, row by row."""
    idx = np.arange(n)
    return 0.5 * np.stack([idx % cols, idx // cols], axis=1).astype(float)


def close_pair_lattice():
    pts = lattice(1100, 33)
    pts[1000, 0] += 0.3      # 0.2 from point 1001: the maximum is in the second block
    return pts


def coincident_lattice():
    pts = lattice(1100, 33)
    pts[1000] = pts[550]
    return pts


class TestMorreySeminorm:
    @pytest.mark.parametrize("s", [2.0, 1.3])
    @pytest.mark.parametrize("points", [
        lambda: lattice(600, 25),
        close_pair_lattice,
        coincident_lattice,
        lambda: np.random.default_rng(32).normal(size=(600, 2)),
        lambda: np.random.default_rng(33).normal(size=(1100, 2)),
    ], ids=["tied_lattice_600", "close_pair_lattice_1100", "coincident_1100",
            "random_600", "random_1100"])
    def test_matches_unique_reference_across_row_blocks(self, points, s):
        x = cfg.Configuration(points())
        res = diag.empirical_morrey_seminorm(x, s)
        assert (res.value, res.argmax_index, res.argmax_radius) == unique_morrey(x, s)

    def test_two_points(self):
        res = diag.empirical_morrey_seminorm(TWO_POINTS, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-15)
        assert res.argmax_radius == pytest.approx(1.0)

    def test_collinear_middle_wins(self):
        res = diag.empirical_morrey_seminorm(COLLINEAR, 1.0)
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert res.argmax_index == 1 and res.argmax_radius == pytest.approx(1.0)

    def test_scaling_homogeneity_exact(self):
        rng = np.random.default_rng(30)
        x = cfg.Configuration(rng.normal(size=(7, 2)))
        s = 1.3
        base = diag.empirical_morrey_seminorm(x, s).value
        doubled = diag.empirical_morrey_seminorm(cfg.Configuration(2.0 * x.points), s)
        assert doubled.value == base * 2.0 ** (-s)   # exact: power-of-two scale
        tripled = diag.empirical_morrey_seminorm(cfg.Configuration(3.0 * x.points), s)
        assert tripled.value == pytest.approx(base * 3.0 ** (-s), rel=1e-12)

    def test_coincident_points_infinite(self):
        x = cfg.Configuration([[0.0], [0.0], [1.0]])
        assert diag.empirical_morrey_seminorm(x, 1.0).value == math.inf

    def test_single_point_flagged(self):
        res = diag.empirical_morrey_seminorm(cfg.Configuration([[0.0]]), 1.0)
        assert res.value == 0.0 and res.single_point

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            n = int(rng.integers(2, 12))
            d = 1 + trial % 3
            x = cfg.Configuration(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0))
            s = float(rng.uniform(0.3, d))
            exact = diag.empirical_morrey_seminorm(x, s).value
            assert abs(exact - brute_force_morrey(x, s)) <= 1e-9 * max(1.0, exact)


class TestEulerLagrangeSpread:
    def test_two_point_optimum(self):
        assert diag.euler_lagrange_spread(PL11, TWO_POINTS) == (0.0, 0.0)

    def test_collinear_hand_sums(self):
        pair, energy = diag.euler_lagrange_spread(PL11, COLLINEAR)
        # P_end = (W(1)+W(2))/3 = -1/6 (W(2)=0), P_mid = 2W(1)/3 = -1/3
        assert pair == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert energy == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_equilateral_symmetric(self):
        pair, energy = diag.euler_lagrange_spread(PL21, EQUILATERAL)
        assert pair == pytest.approx(0.0, abs=1e-15)
        assert energy == pytest.approx(0.0, abs=1e-15)

    def test_energy_spread_below_pair_spread(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            x = cfg.Configuration(rng.normal(size=(rng.integers(2, 15), 2)) * 2)
            pair, energy = diag.euler_lagrange_spread(PL21, x)
            assert energy <= pair + 1e-15


class TestFitPowerDecay:
    def test_exact_power_law(self):
        fit = diag.fit_power_decay([(10, 0.1), (100, 0.01), (1000, 0.001)])
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_two_samples(self):
        fit = diag.fit_power_decay([(10, 0.37), (100, 0.37)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_noisy_half_power(self):
        rng = np.random.default_rng(33)
        ns = np.geomspace(10, 10_000, 12)
        samples = [(n, 3.0 * n ** -0.5 * (1 + 0.01 * rng.uniform(-1, 1)))
                   for n in ns]
        fit = diag.fit_power_decay(samples)
        assert fit.exponent == pytest.approx(0.5, abs=0.05)
        assert fit.prefactor == pytest.approx(3.0, rel=0.1)

    def test_zero_dropped_with_flag(self):
        fit = diag.fit_power_decay([(10, 0.1), (100, 0.0), (1000, 0.001)])
        assert fit.dropped_zeros == 1

    def test_negative_errors(self):
        with pytest.raises(ValueError):
            diag.fit_power_decay([(10, -0.1), (100, 0.01), (1000, 0.001)])

    def test_too_few_errors(self):
        with pytest.raises(ValueError):
            diag.fit_power_decay([(10, 1.0)])


class TestStationarity:
    def test_two_point_optimum_d3(self):
        x = cfg.Configuration([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        res = diag.stationarity_check(PL31, x, 1e-3)
        # lap W at unit separation: d - (d-1)/r = 1 for r = 1, any d
        for v in res.values:
            assert v == pytest.approx(1.0, abs=5e-3)
        assert res.min_value >= 0.0

    def test_equilateral_optimum_d2(self):
        res = diag.stationarity_check(PL21, EQUILATERAL, 1e-3)
        assert res.min_value >= -1e-6
        for v in res.values:
            assert v == pytest.approx(2.0, abs=1e-2)   # two neighbours, lap W(1) = 1

    def test_clustered_non_minimiser_may_be_negative(self):
        x = cfg.Configuration([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05], [3.0, 3.0]])
        res = diag.stationarity_check(PL21, x, 1e-4)
        assert len(res.values) == 4   # diagnostic runs; sign not constrained

    def test_batched_sums_match_pointwise_laplacian(self):
        rng = np.random.default_rng(34)
        x = cfg.Configuration(rng.normal(size=(5, 2)) * 2)
        eps = 0.3 * cfg.min_pair_distance(x)
        res = diag.stationarity_check(PL21, x, eps)
        for j in range(5):
            direct = sum(pot.approximate_laplacian(PL21, x.points[i] - x.points[j],
                                                   eps)
                         for i in range(5) if i != j)
            assert res.values[j] == pytest.approx(direct, rel=1e-12)

    def test_eps_precondition(self):
        with pytest.raises(ValueError):
            diag.stationarity_check(PL11, TWO_POINTS, 0.6)   # >= half min distance
        with pytest.raises(ValueError):
            diag.stationarity_check(PL11, TWO_POINTS, 0.0)

    @pytest.mark.parametrize("points", [[[0.0], [1.0], [2.5]],
                                        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                         [0.0, 2.5, 0.0]]],
                             ids=["d1_points", "d3_points"])
    def test_dimension_mismatch(self, points):
        with pytest.raises(pot.PotentialError, match="dimension"):
            diag.stationarity_check(MORSE2, cfg.Configuration(points), 1e-3)


class TestLowerMass:
    def test_examples(self):
        assert diag.lower_mass_profile(TWO_POINTS, 2.0) == 0.5
        assert diag.lower_mass_profile(TWO_POINTS, 0.5) == 0.0
        coincident = cfg.Configuration(np.zeros((5, 1)))
        assert diag.lower_mass_profile(coincident, 0.3) == pytest.approx(4.0 / 5.0)


class TestDiameterBound:
    def test_examples(self):
        ok = diag.diameter_bound_check(PL11, TWO_POINTS)
        assert ok.K_N == pytest.approx(2.0) and ok.holds
        bad = diag.diameter_bound_check(PL11, cfg.Configuration([[0.0], [5.0]]))
        assert not bad.holds
        tri = diag.diameter_bound_check(PL21, EQUILATERAL)
        assert tri.K_N == pytest.approx(4 * math.sqrt(2)) and tri.holds

    def test_multistart_minimisers_within_bound(self):
        for n in (2, 5, 10):
            res = opt.minimize_multistart(PL21, n, opt.OptimOpts(seed=42, n_starts=4,
                                                                 hop_count=2))
            assert diag.diameter_bound_check(PL21, res.best).holds


class TestReport:
    def test_build_report_fields(self):
        report = diag.build_report(PL21, EQUILATERAL)
        assert report.energy == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert report.el_spread_energy <= report.el_spread_pairs + 1e-15
        assert report.diameter_bound_holds
        assert len(report.stationarity) == 3
        payload = report.to_json()
        assert payload["N"] == 3 and payload["d"] == 2

    def test_eps_factor_at_half_min_distance_raises(self):
        # stationarity_check alone decides which eps are admissible
        with pytest.raises(ValueError, match="half the minimum pair distance"):
            diag.build_report(PL21, EQUILATERAL, eps_factors=(0.5,))

    def test_non_minimiser_note(self):
        x = cfg.Configuration([[0.0, 0.0], [0.02, 0.0], [0.0, 0.02], [4.0, 4.0]])
        report = diag.build_report(MORSE2, x)
        joined = " ".join(report.notes)
        if min(v for _, v in report.stationarity) < 0:
            assert "minimiser" in joined

    def test_default_exponent(self):
        assert diag.default_morrey_exponent(pot.PowerLaw(3, 2.0, -0.5)) \
            == pytest.approx(2.5)
        assert diag.default_morrey_exponent(MORSE2) == 2.0
