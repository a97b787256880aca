import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairenergy import configuration as cfg
from pairenergy import optimizer as opt
from pairenergy import potentials as pot

PL21 = pot.PowerLaw(2, 2.0, 1.0)
SINGULAR3 = pot.PowerLaw(3, 2.0, -0.5)
MORSE = pot.Morse(2, 1.0, 0.5, 1.0, 1.0)

FAST = opt.OptimOpts(seed=42, n_starts=4, hop_count=2)


def pair_distances(x):
    return sorted(np.linalg.norm(x.points[i] - x.points[j])
                  for i, j in itertools.combinations(range(x.n), 2))


def four_point_oracle_energy():
    """Brute-force scan over the candidate families for N=4, d=2, W = r^2/2 - r.

    Square(s): 4 sides + 2 diagonals; rhombus(s): two glued unit triangles,
    5 edges at s and one at s*sqrt(3); centred triangle(s): 3 sides at s and
    3 spokes at s/sqrt(3).  Energies are (1/16) * sum over the 6 pairs.
    """
    w = PL21.radial
    best = math.inf
    for s in np.linspace(0.5, 2.0, 300001):
        sq = (4 * w(s) + 2 * w(s * math.sqrt(2))) / 16
        rh = (5 * w(s) + w(s * math.sqrt(3))) / 16
        ct = (3 * w(s) + 3 * w(s / math.sqrt(3))) / 16
        best = min(best, sq, rh, ct)
    return best


class TestMinimizeLocal:
    def test_two_points_far_apart(self):
        x0 = cfg.Configuration([[0.0, 0.0], [3.0, 0.0]])
        res = opt.minimize_local(PL21, x0, opt.OptimOpts(seed=0))
        assert res.converged
        assert res.energy == pytest.approx(-0.125, abs=1e-9)
        assert pair_distances(res.best)[0] == pytest.approx(1.0, abs=1e-6)

    def test_already_optimal_stops_immediately(self):
        x0 = cfg.Configuration([[0.0, 0.0], [1.0, 0.0]])
        res = opt.minimize_local(PL21, x0, opt.OptimOpts(seed=0))
        assert res.converged and res.iterations_used == 0
        assert res.energy == cfg.discrete_energy(PL21, x0)
        assert np.array_equal(res.best.points, x0.points)

    def test_three_points_reach_equilateral(self):
        rng = np.random.default_rng(7)
        x0 = cfg.Configuration(rng.normal(size=(3, 2)))
        res = opt.minimize_local(PL21, x0, opt.OptimOpts(seed=0))
        assert res.converged
        # brute-force side scan: E(s) = W(s)/3 minimised at s = 1
        sides = np.linspace(0.5, 2.0, 200001)
        oracle = float(np.min(PL21.radial(sides)) / 3.0)
        assert res.energy == pytest.approx(oracle, abs=1e-6)
        for s in pair_distances(res.best):
            assert s == pytest.approx(1.0, abs=1e-5)

    def test_monotone_energy_trace(self):
        rng = np.random.default_rng(8)
        x0 = cfg.Configuration(rng.normal(size=(8, 2)) * 2)
        res = opt.minimize_local(PL21, x0, opt.OptimOpts(seed=0))
        trace = res.energy_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_final_energy_not_above_initial(self):
        rng = np.random.default_rng(9)
        x0 = cfg.Configuration(rng.normal(size=(6, 3)) * 3)
        spec = pot.PowerLaw(3, 2.0, 1.0)
        res = opt.minimize_local(spec, x0, opt.OptimOpts(seed=0))
        assert res.energy <= cfg.discrete_energy(spec, x0)

    def test_converged_residual_below_tolerance(self):
        rng = np.random.default_rng(10)
        x0 = cfg.Configuration(rng.normal(size=(5, 2)))
        res = opt.minimize_local(PL21, x0, opt.OptimOpts(seed=0, grad_tol=1e-8))
        assert res.converged and res.force_residual <= 1e-8

    def test_rejects_near_coincident_start_for_singular(self):
        x0 = cfg.Configuration([[0.0, 0.0, 0.0], [1e-12, 0.0, 0.0]])
        with pytest.raises(cfg.ConfigurationError):
            opt.minimize_local(SINGULAR3, x0, opt.OptimOpts(seed=0))

    @pytest.mark.parametrize("spec", [PL21, MORSE], ids=["power_law", "morse"])
    def test_rejects_coincident_start_for_bounded(self, spec):
        # the force of a coincident pair is undefined under any kernel
        x0 = cfg.Configuration([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(cfg.ConfigurationError):
            opt.minimize_local(spec, x0, opt.OptimOpts(seed=0))

    def test_singular_descent_respects_pair_guard(self):
        rng = np.random.default_rng(11)
        x0 = cfg.Configuration(rng.normal(size=(8, 3)))
        res = opt.minimize_local(SINGULAR3, x0,
                                 opt.OptimOpts(seed=0, min_pair_dist=1e-6))
        assert cfg.min_pair_distance(res.best) >= 1e-6
        assert math.isfinite(res.energy)

    @pytest.mark.parametrize("case", ["converged", "max_iters", "stalled"])
    def test_stop_reason(self, case):
        spec, opts = PL21, opt.OptimOpts(seed=0)
        x0 = cfg.Configuration(np.random.default_rng(12).normal(size=(6, 2)))
        if case == "max_iters":
            opts = replace(opts, max_iters=1)
        elif case == "stalled":
            # the pair attracts (W is smallest at r = 1), but any step towards
            # r = 1 breaks the guard at r = 1.5
            spec, opts = SINGULAR3, replace(opts, min_pair_dist=1.5)
            x0 = cfg.Configuration([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        res = opt.minimize_local(spec, x0, opts)
        assert res.stop_reason == case
        assert res.converged == (case == "converged")
        assert (res.force_residual <= opts.grad_tol) == (case == "converged")
        if case == "stalled":
            assert res.iterations_used == 1
            assert np.array_equal(res.best.points, x0.points)

    def test_morse_starts_converge_quickly(self):
        # the four seed-0 starts of minimize_multistart at N=50, which take
        # about 200-300 iterations each
        opts = replace(opt.OptimOpts(seed=0).resolved(MORSE), max_iters=1000)
        for k in range(4):
            rng = np.random.default_rng([0, k])
            x0 = opt._sample_ball(rng, 50, 2, opts.init_radius)
            assert opt.minimize_local(MORSE, cfg.Configuration(x0), opts).converged, k

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_descent_properties(self, data):
        spec = data.draw(st.sampled_from([PL21, SINGULAR3]), label="spec")
        d = spec.dimension
        n = data.draw(st.integers(2, 12), label="N")
        # distinct coordinates on a 0.01 grid: no two points closer than 0.01
        coords = data.draw(st.lists(st.integers(-300, 300), min_size=n * d,
                                    max_size=n * d, unique=True), label="coords")
        x0 = cfg.Configuration(np.reshape(coords, (n, d)) / 100.0)
        opts = opt.OptimOpts(seed=0)
        if spec.singular_at_origin:
            fraction = data.draw(st.floats(1e-6, 1.0), label="guard fraction")
            opts = replace(opts, min_pair_dist=fraction * cfg.min_pair_distance(x0))
        res = opt.minimize_local(spec, x0, opts)
        trace = res.energy_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert res.energy == trace[-1] <= trace[0]
        assert trace[0] == pytest.approx(cfg.discrete_energy(spec, x0), rel=1e-12)
        assert cfg.min_pair_distance(res.best) >= opts.min_pair_dist


class TestMultistart:
    def test_two_point_optimum(self):
        res = opt.minimize_multistart(PL21, 2, FAST)
        assert res.energy == pytest.approx(-0.125, abs=1e-9)
        assert pair_distances(res.best)[0] == pytest.approx(1.0, abs=1e-6)

    def test_three_point_optimum(self):
        res = opt.minimize_multistart(PL21, 3, FAST)
        assert res.energy == pytest.approx(-1.0 / 6.0, abs=1e-6)

    def test_four_point_candidate_oracle(self):
        oracle = four_point_oracle_energy()
        res = opt.minimize_multistart(PL21, 4, opt.OptimOpts(seed=3, n_starts=8,
                                                             hop_count=4))
        assert res.energy == pytest.approx(oracle, abs=1e-4)

    def test_reproducible_across_worker_counts(self):
        results = [opt.minimize_multistart(PL21, 6, FAST, workers=w)
                   for w in (1, 2, 8)]
        for res in results[1:]:
            assert res.energy == results[0].energy
            assert np.array_equal(res.best.points, results[0].best.points)
            assert res.starts_summary == results[0].starts_summary

    def test_summary_covers_starts_and_hops(self):
        res = opt.minimize_multistart(PL21, 3, FAST)
        assert len(res.starts_summary) == FAST.n_starts + FAST.hop_count
        assert res.energy == min(e for _, e in res.starts_summary)

    def test_needs_two_particles(self):
        with pytest.raises(cfg.ConfigurationError):
            opt.minimize_multistart(PL21, 1, FAST)

    def test_reports_best_start_stop_reason(self):
        assert opt.minimize_multistart(PL21, 3, FAST).stop_reason == "converged"
        res = opt.minimize_multistart(PL21, 6, replace(FAST, max_iters=1))
        assert res.stop_reason == "max_iters" and not res.converged

    def test_singular_multistart(self):
        res = opt.minimize_multistart(SINGULAR3, 6,
                                      opt.OptimOpts(seed=5, n_starts=4, hop_count=2))
        assert res.converged
        assert cfg.min_pair_distance(res.best) > 1e-6

    def test_options_validation(self):
        with pytest.raises(ValueError):
            opt.OptimOpts(seed=0, n_starts=0).resolved(PL21)
        with pytest.raises(ValueError):
            opt.OptimOpts(seed=0, grad_tol=-1.0).resolved(PL21)

    def test_default_radii_derived_from_potential(self):
        resolved = opt.OptimOpts(seed=0).resolved(PL21)
        assert resolved.init_radius == pytest.approx(2.0)       # 2 max(1, R_W)
        assert resolved.hop_sigma == pytest.approx(0.2)
