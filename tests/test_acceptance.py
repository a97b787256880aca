"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Small instances are checked against exact oracles; the asymptotic statements
(diameter dichotomy, Euler-Lagrange decay, Morrey uniformity, recovery
convergence) are checked as trends at desk scale with the tolerances pinned
below.  Expensive minimisations are shared through the session solver cache.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from pairenergy import cli
from pairenergy import configuration as cfg
from pairenergy import diagnostics as diag
from pairenergy import measures as mea
from pairenergy import potentials as pot
from pairenergy import recovery as rec
from pairenergy.optimizer import OptimOpts, minimize_multistart

PL2 = pot.PowerLaw(2, 2.0, 1.0)
PL1 = pot.PowerLaw(1, 2.0, 1.0)
PL3_SING = pot.PowerLaw(3, 2.0, -0.5)
MORSE_U = pot.Morse(2, 1.0, 0.5, 1.0, 1.0)
MORSE_S = pot.Morse(2, 5.0, 0.5, 1.0, 1.0)

# per-(fixture, N) solver effort: (grad_tol, starts, hops)
EFFORT = {
    (PL2, 2): (1e-8, 8, 4), (PL2, 3): (1e-8, 8, 4), (PL2, 10): (1e-8, 8, 4),
    (PL2, 20): (1e-8, 8, 4), (PL2, 50): (1e-8, 6, 2), (PL2, 100): (1e-8, 6, 2),
    (MORSE_U, 10): (1e-8, 8, 4), (MORSE_U, 20): (1e-8, 8, 4),
    (MORSE_U, 40): (1e-8, 8, 4), (MORSE_U, 50): (1e-8, 6, 2),
    (MORSE_U, 80): (1e-8, 8, 4), (MORSE_U, 100): (1e-8, 6, 2),
    (MORSE_U, 160): (1e-8, 4, 2), (MORSE_U, 200): (1e-6, 4, 2),
    (MORSE_U, 320): (1e-8, 4, 2), (MORSE_U, 400): (1e-6, 4, 2),
    (MORSE_S, 10): (1e-6, 8, 4), (MORSE_S, 50): (1e-6, 6, 2),
    (MORSE_S, 100): (1e-6, 6, 2), (MORSE_S, 200): (1e-6, 4, 2),
    (MORSE_S, 400): (1e-6, 4, 2),
    (PL3_SING, 50): (1e-8, 8, 4), (PL3_SING, 100): (1e-8, 8, 4),
    (PL3_SING, 200): (1e-8, 8, 4),
}


def best(solve, spec, n):
    tol, starts, hops = EFFORT[(spec, n)]
    return solve(spec, n, tol=tol, starts=starts, hops=hops)


def report(number, budget_s, elapsed, detail):
    print(f"[criterion {number}] PASS ({elapsed:.1f}s of {budget_s}s budget) "
          f"- {detail}")


def pair_distances(x):
    return sorted(np.linalg.norm(x.points[i] - x.points[j])
                  for i, j in itertools.combinations(range(x.n), 2))


def test_criterion_01_two_point_optimum(solve):
    t0 = time.perf_counter()
    res = best(solve, PL2, 2)
    dist = pair_distances(res.best)[0]
    assert dist == pytest.approx(1.0, abs=1e-6)
    assert res.energy == pytest.approx(-0.125, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, 1, elapsed, f"distance {dist:.9f}, energy {res.energy:.12f}")


def test_criterion_02_three_point_optimum(solve):
    t0 = time.perf_counter()
    # brute-force oracle: E(s) = W(s)/3 over the equilateral family
    sides = np.linspace(0.5, 2.0, 200001)
    oracle = float(np.min(PL2.radial(sides)) / 3.0)
    res = best(solve, PL2, 3)
    assert res.energy == pytest.approx(oracle, abs=1e-6)
    assert res.energy == pytest.approx(-1.0 / 6.0, abs=1e-6)
    for s in pair_distances(res.best):
        assert s == pytest.approx(1.0, abs=1e-5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, 5, elapsed, f"energy {res.energy:.9f} vs oracle {oracle:.9f}")


def test_criterion_03_diameter_bound(solve):
    t0 = time.perf_counter()
    checked = 0
    for spec in (PL2, MORSE_U, MORSE_S):
        r_w = spec.R_W
        for n in (10, 50, 100):
            res = best(solve, spec, n)
            diam = cfg.diameter(res.best)
            k_n = 2.0 * math.sqrt(spec.dimension) * (n - 1) * r_w
            assert diam <= k_n + 1e-6, (spec, n, diam, k_n)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(3, 120, elapsed, f"{checked} minimiser diameters within K_N")


def test_criterion_04_diameter_dichotomy(solve):
    t0 = time.perf_counter()
    ns = (50, 100, 200, 400)
    unstable = [cfg.diameter(best(solve, MORSE_U, n).best) for n in ns]
    ratio = max(unstable) / min(unstable)
    assert ratio <= 1.2, unstable

    stable = [cfg.diameter(best(solve, MORSE_S, n).best) for n in ns]
    assert all(b > a for a, b in zip(stable, stable[1:])), stable
    growth = [b / a for a, b in zip(stable, stable[1:])]
    assert all(g >= 1.10 for g in growth), stable
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200
    report(4, 1200, elapsed,
           f"unstable diam ratio {ratio:.3f} <= 1.2; stable growth "
           f"{[round(g, 3) for g in growth]} each >= 1.10")


def test_criterion_05_euler_lagrange_bounded(solve):
    t0 = time.perf_counter()
    w0 = float(MORSE_U.radial(0.0))
    for n in (20, 40, 80):
        tol = EFFORT[(MORSE_U, n)][0]
        res = best(solve, MORSE_U, n)
        _, spread = diag.euler_lagrange_spread(MORSE_U, res.best)
        bound = (w0 - MORSE_U.W_min) / n + 10 * tol
        assert spread <= bound, (n, spread, bound)

    samples = []
    for n in (20, 40, 80, 160, 320):
        res = best(solve, MORSE_U, n)
        _, spread = diag.euler_lagrange_spread(MORSE_U, res.best)
        samples.append((n, spread))
    fit = diag.fit_power_decay(samples)
    assert fit.exponent >= 0.8, samples
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report(5, 600, elapsed,
           f"bounded-case spreads within (W(0)-W_min)/N + 10 tol; "
           f"fitted k = {fit.exponent:.2f} >= 0.8")


def test_criterion_06_morrey_uniformity(solve):
    t0 = time.perf_counter()
    values = []
    for n in (50, 100, 200):
        res = best(solve, PL3_SING, n)
        values.append(diag.empirical_morrey_seminorm(res.best, 2.5).value)
    variation = (max(values) - min(values)) / max(values)
    assert variation <= 0.5, values
    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    report(6, 900, elapsed,
           f"seminorms {[round(v, 3) for v in values]}, variation "
           f"{variation:.0%} <= 50%")


def test_criterion_07_recovery_gamma_convergence():
    t0 = time.perf_counter()
    rho = mea.uniform_box(1, 1.0, 64)
    rows = rec.recovery_convergence_report(PL1, rho, [16, 256, 4096])
    gaps = [abs(r.discrete_energy - (-1.0 / 6.0)) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2], gaps
    assert gaps[2] <= 0.02
    w1s = [r.w1 for r in rows]
    assert all(b <= 1.1 * a for a, b in zip(w1s, w1s[1:])), w1s
    assert w1s[-1] <= 0.05
    for r in rows:
        built = rec.build_recovery(rho, r.N)
        assert built.N_e <= rec.auxiliary_count_bound(r.N, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(7, 120, elapsed,
           f"gaps {[f'{g:.2e}' for g in gaps]} decreasing to <= 0.02; "
           f"W1 {[f'{w:.3f}' for w in w1s]} -> <= 0.05")


def test_criterion_08_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)

    # (a) empirical Morrey seminorm vs dense-grid counting
    from test_diagnostics import brute_force_morrey

    for _ in range(50):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        x = cfg.Configuration(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0))
        s = float(rng.uniform(0.3, d))
        exact = diag.empirical_morrey_seminorm(x, s).value
        assert abs(exact - brute_force_morrey(x, s)) <= 1e-9 * max(1.0, exact)

    # (b) analytic gradient vs central finite differences
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 8))
        x = cfg.Configuration(rng.normal(size=(n, 2)) * 2.0)
        g = cfg.per_particle_forces(PL2, x) / x.n
        fd = np.zeros_like(g)
        for i in range(n):
            for k in range(2):
                up, dn = np.array(x.points), np.array(x.points)
                up[i, k] += h
                dn[i, k] -= h
                fd[i, k] = (cfg.discrete_energy(PL2, cfg.Configuration(up))
                            - cfg.discrete_energy(PL2, cfg.Configuration(dn))) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-10)

    # (c) continuum atomic energy vs discrete energy + self term, exactly
    w0 = float(MORSE_U.radial(0.0))
    for _ in range(50):
        n = int(rng.integers(2, 20))
        x = cfg.Configuration(rng.normal(size=(n, 2)) * 2.0)
        lhs = mea.continuum_energy_atoms(MORSE_U, mea.AtomicMeasure.empirical(x))
        assert lhs == cfg.discrete_energy(MORSE_U, x) + w0 / (2 * n)

    # (d) Wasserstein-1 metric axioms
    def rand_measure(d, equal, size):
        pts = rng.normal(size=(size, d)) * 2
        if equal:
            w = np.full(size, 1.0 / size)
        else:
            w = rng.random(size) + 0.05
            w = w / w.sum()
        return mea.AtomicMeasure(pts, w)

    for trial in range(100):
        d = 1 if trial % 2 == 0 else 2
        equal = d == 2
        size = int(rng.integers(2, 7))
        mu = rand_measure(d, equal, size)
        nu = rand_measure(d, equal, size if equal else int(rng.integers(2, 7)))
        la = rand_measure(d, equal, size if equal else int(rng.integers(2, 7)))
        assert mea.wasserstein1(mu, nu) == mea.wasserstein1(nu, mu)
        assert mea.wasserstein1(mu, mu) <= 1e-12
        assert mea.wasserstein1(mu, nu) \
            <= mea.wasserstein1(mu, la) + mea.wasserstein1(la, nu) + 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(8, 60, elapsed, "morrey/gradient/atomic-energy/W1 oracles all agree")


def test_criterion_09_stationarity_inequality(solve):
    t0 = time.perf_counter()
    minima = []
    for n in (3, 10, 20):
        res = best(solve, PL2, n)
        eps = 1e-3 * cfg.min_pair_distance(res.best)
        stat = diag.stationarity_check(PL2, res.best, eps)
        assert stat.min_value >= -1e-4, (n, stat.min_value)
        minima.append(stat.min_value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(9, 60, elapsed,
           f"min_j sum_i lap^eps W = {[f'{v:.3f}' for v in minima]} all >= -1e-4")


def test_criterion_10_determinism_across_workers(tmp_path):
    t0 = time.perf_counter()
    pl2_json = {"kind": "power_law", "d": 2, "a": 2.0, "b": 1.0}
    morse_json = {"kind": "morse", "d": 2, "Cr": 1.0, "lr": 0.5,
                  "Ca": 1.0, "la": 1.0}
    jobs = [
        ("minimize", {"potential": pl2_json, "N": 2, "seed": 2024,
                      "optim": {"n_starts": 8, "hop_count": 4}}, "minimize.json"),
        ("minimize", {"potential": pl2_json, "N": 3, "seed": 2024,
                      "optim": {"n_starts": 8, "hop_count": 4}}, "minimize.json"),
        ("sweep", {"potential": morse_json, "N_list": [10, 20], "seed": 2024,
                   "optim": {"n_starts": 4, "hop_count": 2}}, "sweep.csv"),
        ("recover", {"potential": {"kind": "power_law", "d": 1, "a": 2.0, "b": 1.0},
                     "N_list": [16, 256, 4096],
                     "measure": {"builtin": "uniform_box", "L": 1.0, "d": 1,
                                 "resolution": 64}}, "recover.csv"),
    ]
    for idx, (command, payload, artifact) in enumerate(jobs):
        cfg_path = tmp_path / f"cfg{idx}.json"
        with open(cfg_path, "w") as fh:
            json.dump(payload, fh)
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"out{idx}_w{workers}"
            code = cli.main([command, "--config", str(cfg_path),
                             "--out", str(out), "--workers", str(workers)])
            assert code == 0
            outputs.append((out / artifact).read_bytes())
        assert outputs[0] == outputs[1], (command, "worker count changed bytes")
    elapsed = time.perf_counter() - t0
    report(10, 600, elapsed,
           "criterion 1/2/4/7 fixtures byte-identical across workers {1, 4}")


def centred_measure(x):
    return mea.AtomicMeasure.empirical(cfg.Configuration(x.points - x.points.mean(axis=0)))


def test_criterion_11_minimisers_approach_a_continuum_minimiser(solve):
    t0 = time.perf_counter()
    # d = 1: E of PL1 is least, -1/6, for the uniform density on an interval of
    # length 2, and the centred minimiser of E_N is the N midpoints of N equal
    # cells of [-1, 1], so E_N + 1/6 = 1/(6 N^2) and W1 = 1/(2 N), the latter
    # also against the 4096 cell centres, as N divides 4096
    uniform = mea.density_to_atoms(mea.uniform_box(1, 1.0, 4096))
    for n in (8, 16, 32, 64, 128, 256):
        res = minimize_multistart(PL1, n, OptimOpts(seed=1, n_starts=4, grad_tol=1e-10))
        assert res.energy + 1.0 / 6.0 == pytest.approx(1.0 / (6 * n * n), rel=1e-9)
        w1 = mea.wasserstein1(centred_measure(res.best), uniform)
        assert w1 == pytest.approx(1.0 / (2 * n), rel=1e-9)

    # d = 2: the centred MORSE_U minimisers of criterion 4 draw together
    ns = (50, 100, 200, 400)
    minima = [centred_measure(best(solve, MORSE_U, n).best) for n in ns]
    w1s = [mea.wasserstein1(a, b) for a, b in zip(minima, minima[1:])]
    assert all(b < a for a, b in zip(w1s, w1s[1:])), w1s
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(11, 300, elapsed,
           "d = 1 closed forms E_N + 1/6 = 1/(6N^2), W1 = 1/(2N) at N = 8..256; "
           f"d = 2 W1 between consecutive minimisers {[round(w, 4) for w in w1s]} "
           "decreasing")
