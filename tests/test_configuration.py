import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairenergy import configuration as cfg
from pairenergy import potentials as pot

PL21 = pot.PowerLaw(2, 2.0, 1.0)
PL11 = pot.PowerLaw(1, 2.0, 1.0)
MORSE_W0_1 = pot.Morse(1, 2.0, 1.0, 1.0, 1.0)   # W(0) = 2 - 1 = 1
SINGULAR4 = pot.PowerLaw(4, 2.0, -1.0)


def random_config(rng, n, d, scale=2.0):
    return cfg.Configuration(rng.normal(size=(n, d)) * scale)


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(cfg.ConfigurationError):
            cfg.Configuration([[0.0, np.nan]])
        with pytest.raises(cfg.ConfigurationError):
            cfg.Configuration(np.empty((0, 2)))
        x = cfg.Configuration([[0.0, 1.0]])
        assert x.n == 1 and x.dim == 2

    def test_immutable(self):
        x = cfg.Configuration([[0.0, 1.0]])
        with pytest.raises(ValueError):
            x.points[0, 0] = 3.0

    def test_json_round_trip(self, tmp_path):
        x = cfg.Configuration([[0.5, -1.0], [2.0, 3.0]])
        p = tmp_path / "x.json"
        x.save_json(p)
        y = cfg.Configuration.load_json(p)
        assert np.array_equal(x.points, y.points)
        with open(p) as fh:
            obj = json.load(fh)
        assert obj["d"] == 2

    def test_json_rejects_nan(self):
        with pytest.raises(cfg.ConfigurationError):
            cfg.Configuration.from_json({"d": 1, "points": [[float("nan")]]})

    def test_csv_round_trip(self, tmp_path):
        x = cfg.Configuration([[0.5, -1.0], [2.0, 1e-17]])
        p = tmp_path / "x.csv"
        x.save_csv(p)
        y = cfg.Configuration.load_csv(p)
        assert np.array_equal(x.points, y.points)


class TestDiscreteEnergy:
    def test_two_points_at_unit_distance(self):
        x = cfg.Configuration([[0.0, 0.0], [1.0, 0.0]])
        assert cfg.discrete_energy(PL21, x) == pytest.approx(-0.125, abs=1e-15)

    def test_coincident_bounded(self):
        # N coincident points with W(0) = 1: (N-1) W(0) / (2N)
        x = cfg.Configuration(np.zeros((4, 1)))
        assert cfg.discrete_energy(MORSE_W0_1, x) == pytest.approx(3.0 / 8.0)

    def test_coincident_singular_is_infinite(self):
        x = cfg.Configuration(np.zeros((2, 4)))
        assert cfg.discrete_energy(SINGULAR4, x) == math.inf

    def test_needs_two_points(self):
        with pytest.raises(cfg.ConfigurationError):
            cfg.discrete_energy(PL21, cfg.Configuration([[0.0, 0.0]]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        x = random_config(rng, 12, 2)
        e0 = cfg.discrete_energy(PL21, x)
        for _ in range(100):
            shift = rng.normal(size=2) * 5
            e = cfg.discrete_energy(PL21, cfg.Configuration(x.points + shift))
            assert e == pytest.approx(e0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        spec = pot.PowerLaw(3, 2.0, 1.0)
        x = random_config(rng, 15, 3)
        y = cfg.Configuration(x.points[rng.permutation(15)])
        assert cfg.discrete_energy(spec, y) \
            == pytest.approx(cfg.discrete_energy(spec, x), rel=1e-12)
        assert cfg.diameter(y) == cfg.diameter(x)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_translation_and_permutation_invariance(self, data):
        d = data.draw(st.integers(2, 3), label="d")
        n = data.draw(st.integers(2, 40), label="N")
        # distinct coordinates on a 0.01 grid: no two points closer than 0.01
        coords = data.draw(st.lists(st.integers(-400, 400), min_size=n * d,
                                    max_size=n * d, unique=True), label="coords")
        x = cfg.Configuration(np.reshape(coords, (n, d)) / 100.0)
        shift = data.draw(st.lists(st.floats(-15.0, 15.0), min_size=d, max_size=d),
                          label="shift")
        perm = data.draw(st.permutations(range(n)), label="perm")
        spec = pot.PowerLaw(d, 2.0, 1.0)
        y = cfg.Configuration(x.points[list(perm)])

        e0 = cfg.discrete_energy(spec, x)
        assert cfg.discrete_energy(spec, cfg.Configuration(x.points + shift)) \
            == pytest.approx(e0, rel=1e-12, abs=1e-12)
        assert cfg.discrete_energy(spec, y) == pytest.approx(e0, rel=1e-12, abs=1e-12)
        assert cfg.diameter(y) == cfg.diameter(x)

        # force terms are bounded by |W'(r)| / N per component
        r = np.linalg.norm(x.points[:, None, :] - x.points[None, :, :], axis=2)
        scale = np.abs(spec.radial_derivative(r[r > 0])).sum() / n
        f = cfg.per_particle_forces(spec, x)
        assert np.allclose(cfg.per_particle_forces(spec, y), f[list(perm)],
                           rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(f.sum(axis=0), 0.0, rtol=0.0, atol=1e-12 * scale)

    def test_power_law_scaling_identity(self):
        # regression of kernel evaluation: W(t x) = t^a |x|^a/a - t^b |x|^b/b
        rng = np.random.default_rng(12)
        x = random_config(rng, 8, 2)
        t = 1.7
        scaled = cfg.Configuration(t * x.points)
        a, b = PL21.a, PL21.b
        diff = x.points[:, None, :] - x.points[None, :, :]
        r = np.linalg.norm(diff, axis=2)
        iu = np.triu_indices(8, k=1)
        expected = np.sum((t * r[iu]) ** a / a - (t * r[iu]) ** b / b) / 64.0
        assert cfg.discrete_energy(PL21, scaled) == pytest.approx(expected, rel=1e-12)


class TestPerParticle:
    def test_two_points(self):
        x = cfg.Configuration([[0.0, 0.0], [1.0, 0.0]])
        p = cfg.per_particle_potentials(PL21, x)
        assert p == pytest.approx([-0.25, -0.25], abs=1e-15)

    def test_swap_symmetry(self):
        x = cfg.Configuration([[0.0, 1.0], [0.0, -1.0], [2.0, 0.0]])
        p = cfg.per_particle_potentials(PL21, x)
        assert p[0] == pytest.approx(p[1], rel=1e-14)

    def test_collinear_middle(self):
        x = cfg.Configuration([[0.0], [1.0], [2.0]])
        p = cfg.per_particle_potentials(PL11, x)
        assert p[1] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert p[0] == pytest.approx(-1.0 / 6.0, abs=1e-15)  # W(2) = 0

    def test_mean_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = random_config(rng, rng.integers(2, 30), 2)
            p = cfg.per_particle_potentials(PL21, x)
            assert p.mean() == pytest.approx(2 * cfg.discrete_energy(PL21, x),
                                             rel=1e-12)


def gradient(spec, x):
    """Gradient of E_N: component i is (1/N^2) sum_{j != i} grad W(x_i - x_j)."""
    return cfg.per_particle_forces(spec, x) / x.n


class TestGradient:
    def test_critical_pair(self):
        x = cfg.Configuration([[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(gradient(PL21, x), 0.0, atol=1e-15)

    def test_equilateral_triangle(self):
        s = math.sqrt(3) / 2
        x = cfg.Configuration([[0.0, 0.0], [1.0, 0.0], [0.5, s]])
        assert np.allclose(gradient(PL21, x), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        x = random_config(rng, 5, 2)
        g = gradient(PL21, x)
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(5):
            for k in range(2):
                up = np.array(x.points)
                dn = np.array(x.points)
                up[i, k] += h
                dn[i, k] -= h
                fd[i, k] = (cfg.discrete_energy(PL21, cfg.Configuration(up))
                            - cfg.discrete_energy(PL21, cfg.Configuration(dn))) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_newtons_third_law(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x = random_config(rng, 20, 3)
            g = gradient(pot.PowerLaw(3, 2.0, 1.0), x)
            assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)

    def test_coincident_pair_errors(self):
        x = cfg.Configuration([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(cfg.ConfigurationError):
            gradient(PL21, x)


class TestDiameter:
    def test_examples(self):
        assert cfg.diameter(cfg.Configuration([[1.0, 2.0]])) == 0.0
        assert cfg.diameter(cfg.Configuration([[0.0, 0.0], [3.0, 4.0]])) == 5.0
        square = cfg.Configuration([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert cfg.diameter(square) == pytest.approx(math.sqrt(2), rel=1e-15)


class TestBallMass:
    def test_open_ball_convention(self):
        x = cfg.Configuration([[0.0], [1.0]])
        assert cfg.ball_mass(x, 0, 1.0) == 0.0         # boundary excluded
        assert cfg.ball_mass(x, 0, 1.01) == 0.5

    def test_collinear_middle(self):
        x = cfg.Configuration([[0.0], [1.0], [2.0]])
        assert cfg.ball_mass(x, 1, 1.5) == pytest.approx(2.0 / 3.0)

    def test_monotone_in_radius_and_multiple_of_1_over_n(self):
        rng = np.random.default_rng(16)
        x = random_config(rng, 9, 2)
        masses = [cfg.ball_mass(x, 3, r) for r in np.linspace(0.1, 8.0, 40)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert all(abs(m * 9 - round(m * 9)) < 1e-12 for m in masses)

    def test_index_out_of_range(self):
        x = cfg.Configuration([[0.0], [1.0]])
        with pytest.raises(cfg.ConfigurationError):
            cfg.ball_mass(x, 2, 1.0)
