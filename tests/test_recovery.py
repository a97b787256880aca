import itertools
import math

import numpy as np
import pytest

from pairenergy import configuration as cfg
from pairenergy import diagnostics as diag
from pairenergy import measures as mea
from pairenergy import potentials as pot
from pairenergy import recovery as rec

PL11 = pot.PowerLaw(1, 2.0, 1.0)
UNIFORM_1D = mea.uniform_box(1, 1.0, 64)


def random_density(rng, d, L, resolution):
    m = rng.random(resolution ** d) + 0.01
    return mea.GridDensity([-L] * d, [L] * d, resolution, m / m.sum())


class TestBuildRecovery:
    def test_sixteen_particles_uniform(self):
        r = rec.build_recovery(UNIFORM_1D, 16)
        assert r.n == 2
        assert r.counts == (8, 8)
        assert r.N_p == 16 and r.N_e == 0 and r.theta == 1.0
        assert r.config.n == 16

    def test_seventeen_particles_one_auxiliary(self):
        r = rec.build_recovery(UNIFORM_1D, 17)
        assert r.counts == (8, 8) and r.N_e == 1
        aux = r.config.points[r.aux_range[0]:r.aux_range[1]]
        assert aux.shape == (1, 1)
        assert 3.0 <= aux[0, 0] < 4.0

    def test_all_mass_in_one_cube(self):
        m = np.zeros(64)
        m[:32] = 1.0 / 32.0
        rho = mea.GridDensity([-1.0], [1.0], 64, m)
        r = rec.build_recovery(rho, 16)
        assert r.counts == (16, 0) and r.N_e == 0

    def test_small_n_single_cube_places_a_particle(self):
        # N < 2^{4d} means n = 1: one cube, at least one main particle
        r = rec.build_recovery(UNIFORM_1D, 8)
        assert r.n == 1
        assert r.N_p == 1 and r.N_e == 7
        assert sum(1 for c in r.counts if c > 0) == 1

    def test_requires_unit_halfwidth(self):
        rho = mea.uniform_box(1, 0.5, 64)
        with pytest.raises(rec.RecoveryError):
            rec.build_recovery(rho, 16)

    def test_requires_aligned_resolution(self):
        rho = mea.uniform_box(1, 1.0, 63)   # 63 not a multiple of n = 2
        with pytest.raises(rec.RecoveryError):
            rec.build_recovery(rho, 16)
        rec.build_recovery(mea.regrid(rho, 2), 16)

    def test_count_identities_random_fixtures(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            n_particles = int(rng.integers(2, 3000))
            n = rec._cube_count(n_particles, d)
            rho = random_density(rng, d, float(rng.integers(1, 4)),
                                 n * int(rng.integers(1, 4 if d == 2 else 9)))
            r = rec.build_recovery(rho, n_particles)
            assert r.N_p + r.N_e == n_particles
            assert r.N_p == sum(r.counts)
            assert 0 < r.theta <= 1.0
            assert r.N_e <= rec.auxiliary_count_bound(n_particles, d)

    def test_geometric_separation(self):
        rng = np.random.default_rng(41)
        for n_particles in (17, 65, 300):
            rho = random_density(rng, 1, 1.5, rec._cube_count(n_particles, 1) * 8)
            r = rec.build_recovery(rho, n_particles)
            if r.N_e == 0:
                continue
            main = r.config.points[: r.N_p]
            aux = r.config.points[r.N_p:]
            gap = min(np.linalg.norm(m - a) for m in main for a in aux)
            assert gap > 2 * r.L
            if r.N_e > 1:
                assert cfg.diameter(cfg.Configuration(aux)) < 1.0

    def test_particles_pairwise_distinct(self):
        rng = np.random.default_rng(42)
        for n_particles in (16, 17, 100):
            rho = random_density(rng, 1, 1.0, rec._cube_count(n_particles, 1) * 8)
            r = rec.build_recovery(rho, n_particles)
            assert cfg.min_pair_distance(r.config) > 0

    def test_two_dimensional_build(self):
        rho = mea.uniform_box(2, 1.0, 8)
        r = rec.build_recovery(rho, 300)   # n = floor(300^{1/8}) = 2
        assert r.n == 2
        assert r.N_p == sum(r.counts) == 256
        main = r.config.points[: r.N_p]
        assert np.all(main >= -1.0) and np.all(main < 1.0)
        aux = r.config.points[r.N_p:]
        assert np.all(aux >= 3.0) and np.all(aux < 3.0 + 1.0 / math.sqrt(2) + 1e-12)

    def test_main_particles_are_the_first_subgrid_centres(self):
        # cube i's N_i main particles are the first N_i centres, in C order, of
        # the grid of segments^d cells that tiles it
        rng = np.random.default_rng(43)
        for d, n_particles in ((1, 300), (2, 300), (2, 7000), (3, 5000)):
            n = rec._cube_count(n_particles, d)
            rho = random_density(rng, d, 1.5, 2 * n)
            r = rec.build_recovery(rho, n_particles)
            side = 2 * r.L / n
            start = 0
            for cube, count in zip(itertools.product(range(n), repeat=d), r.counts):
                segments = rec._integer_root(count, d) + 1
                corner = -r.L + side * np.array(cube, dtype=float)
                nodes = itertools.islice(itertools.product(range(segments), repeat=d), count)
                want = [corner + (np.array(idx, dtype=float) + 0.5) * (side / segments)
                        for idx in nodes]
                got = r.config.points[start:start + count]
                assert got.tobytes() == np.array(want).reshape(-1, d).tobytes()
                start += count
            assert start == r.N_p

    def test_integer_root_exactness(self):
        for m, d, expect in [(16, 4, 2), (15, 4, 1), (4096, 12, 2), (1, 3, 1),
                             (0, 2, 0), (63, 2, 7), (64, 2, 8)]:
            assert rec._integer_root(m, d) == expect


class TestConvergenceReport:
    def test_uniform_power_law_ladder(self):
        rows = rec.recovery_convergence_report(PL11, UNIFORM_1D, [16, 256, 4096])
        assert [r.N for r in rows] == [16, 256, 4096]
        gaps = [abs(r.discrete_energy - (-1.0 / 6.0)) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.02
        thetas = [r.theta for r in rows]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))
        assert thetas[-1] >= 0.9
        w1s = [r.w1 for r in rows]
        assert all(b <= 1.1 * a for a, b in zip(w1s, w1s[1:]))

    def test_exact_w1_in_the_plane(self):
        # 1296 particles, 1040 of them in the auxiliary cube, against the 256
        # cells of the square; projections are 1-Lipschitz, so the W1 of the
        # projections on any line is a lower bound
        rho = mea.uniform_box(2, 1.0, 16)
        (row,) = rec.recovery_convergence_report(pot.PowerLaw(2, 2.0, 1.0), rho, [1296])
        assert row.w1 == pytest.approx(3.79252897968, rel=1e-9)
        recovery = rec.build_recovery(rho, 1296)
        assert recovery.N_e == 1040
        x, atoms = recovery.config.points, mea.density_to_atoms(rho)
        for theta in np.linspace(0.0, np.pi, 181):
            e = np.array([np.cos(theta), np.sin(theta)])
            lower = mea.wasserstein1(mea.AtomicMeasure(x @ e, np.full(1296, 1.0 / 1296)),
                                     mea.AtomicMeasure(atoms.points @ e, atoms.weights))
            assert row.w1 >= lower - 1e-12

    def test_regrids_per_n(self):
        # 63 cells: regridded to 64 for n = 2 (N = 16) and n = 4 (N = 256),
        # kept for n = 3 (N = 81)
        rho = mea.uniform_box(1, 1.0, 63)
        rows = rec.recovery_convergence_report(PL11, rho, [256, 16, 81])
        per_n = [rec.recovery_convergence_report(
                     PL11, mea.regrid(rho, rec._cube_count(n, 1)), [n])[0]
                 for n in (16, 81, 256)]
        assert rows == per_n
        assert rows[0].continuum_energy == rows[2].continuum_energy \
            != rows[1].continuum_energy

    def test_rejects_small_n(self):
        with pytest.raises(rec.RecoveryError):
            rec.recovery_convergence_report(PL11, UNIFORM_1D, [16, 0])

    def test_morrey_preserved_uniformly(self):
        values = []
        for n_particles in (16, 64, 256, 1024):
            rho = mea.regrid(UNIFORM_1D, rec._cube_count(n_particles, 1))
            r = rec.build_recovery(rho, n_particles)
            values.append(diag.empirical_morrey_seminorm(r.config, 1.0).value)
        # bounded by an N-independent constant (observed plateau ~1.5)
        assert max(values) <= 2.5
