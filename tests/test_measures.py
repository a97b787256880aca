import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairenergy import configuration as cfg
from pairenergy import measures as mea
from pairenergy import potentials as pot

PL11 = pot.PowerLaw(1, 2.0, 1.0)
MORSE1 = pot.Morse(1, 1.0, 0.5, 1.0, 1.0)
MORSE2 = pot.Morse(2, 1.0, 0.5, 1.0, 1.0)
SINGULAR3 = pot.PowerLaw(3, 2.0, -0.5)


def random_atoms(rng, n, d, equal=False):
    pts = rng.normal(size=(n, d)) * 2
    if equal:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.random(n) + 0.05
        w = w / w.sum()
    return mea.AtomicMeasure(pts, w)


class TestCarriers:
    def test_atomic_validation(self):
        with pytest.raises(mea.MeasureError):
            mea.AtomicMeasure([[0.0]], [0.5])             # mass not 1
        with pytest.raises(mea.MeasureError):
            mea.AtomicMeasure([[0.0], [1.0]], [1.5, -0.5])

    def test_grid_validation(self):
        with pytest.raises(mea.MeasureError):
            mea.GridDensity([0.0], [0.0], 4, np.full(4, 0.25))   # degenerate box
        with pytest.raises(mea.MeasureError):
            mea.GridDensity([0.0], [1.0], 4, np.full(4, 0.3))    # mass != 1
        rho = mea.uniform_box(2, 1.0, 8)
        assert rho.masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert rho.cell_centres().shape == (64, 2)

    def test_grid_save_load(self, tmp_path):
        rho = mea.uniform_box(1, 1.0, 16)
        p = tmp_path / "rho.json"
        rho.save(p)
        back = mea.GridDensity.load(p)
        assert back.resolution == 16
        assert np.array_equal(back.masses, rho.masses)

    def test_grid_load_from_another_directory(self, tmp_path, monkeypatch):
        rho = mea.uniform_box(1, 1.0, 16)
        (tmp_path / "sub").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path)
        rho.save("sub/g.json")
        monkeypatch.chdir(tmp_path / "sub")
        assert np.array_equal(mea.GridDensity.load("g.json").masses, rho.masses)
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert np.array_equal(mea.GridDensity.load("../sub/g.json").masses, rho.masses)

    @pytest.mark.parametrize("header, masses", [
        ("lo = -1", "1\n"),
        ('{"lo": [-1], "hi": [1], "resolution": 1}', "1\n"),
        ('["g.json.masses.csv"]', "1\n"),
        ('{"lo": [-1], "hi": [1], "resolution": "x", "mass_csv": "m.csv"}', "1\n"),
        ('{"lo": [-1], "hi": [1], "resolution": 2, "mass_csv": "m.csv"}', "a\nb\n"),
    ], ids=["not_json", "missing_key", "not_an_object", "string_resolution",
            "masses_not_numbers"])
    def test_grid_load_malformed_is_measure_error(self, tmp_path, header, masses):
        (tmp_path / "g.json").write_text(header)
        (tmp_path / "m.csv").write_text(masses)
        with pytest.raises(mea.MeasureError):
            mea.GridDensity.load(tmp_path / "g.json")


class TestContinuumEnergyAtoms:
    def test_single_atom_zero_depth_morse(self):
        mu = mea.AtomicMeasure([[0.0]], [1.0])
        assert mea.continuum_energy_atoms(MORSE1, mu) == 0.0  # W(0) = 0

    def test_two_equal_atoms_power_law(self):
        mu = mea.AtomicMeasure([[0.0], [1.0]], [0.5, 0.5])
        assert mea.continuum_energy_atoms(PL11, mu) == pytest.approx(-0.125, abs=1e-15)

    def test_singular_potential_is_infinite(self):
        mu = mea.AtomicMeasure([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.5])
        assert mea.continuum_energy_atoms(SINGULAR3, mu) == math.inf

    def test_unequal_weights(self):
        mu = mea.AtomicMeasure([[0.0], [1.0]], [0.25, 0.75])
        # (1/2)(w1^2 W(0) + w2^2 W(0) + 2 w1 w2 W(1)) with W(0)=0, W(1)=-1/2
        assert mea.continuum_energy_atoms(PL11, mu) \
            == pytest.approx(0.25 * 0.75 * -0.5, abs=1e-15)

    def test_empirical_relation_exact(self):
        # E(mu_X) = E_N(X) + W(0)/(2N), exactly, for bounded W
        rng = np.random.default_rng(20)
        w0 = float(MORSE2.radial(0.0))
        for _ in range(50):
            n = int(rng.integers(2, 25))
            x = cfg.Configuration(rng.normal(size=(n, 2)) * 3)
            lhs = mea.continuum_energy_atoms(MORSE2, mea.AtomicMeasure.empirical(x))
            rhs = cfg.discrete_energy(MORSE2, x) + w0 / (2 * n)
            assert lhs == rhs


class TestContinuumEnergyGrid:
    def test_uniform_power_law_analytic(self):
        rho = mea.uniform_box(1, 1.0, 256)
        e = mea.continuum_energy_grid(PL11, rho)
        assert e == pytest.approx(-1.0 / 6.0, abs=0.005)

    def test_resolution_convergence(self):
        errs = [abs(mea.continuum_energy_grid(PL11, mea.uniform_box(1, 1.0, g)))
                for g in (64, 128, 256)]
        diffs = [abs(a - b) for a, b in zip(errs, errs[1:])]
        assert diffs[0] > diffs[1]

    def test_concentrated_cell_approaches_half_w0(self):
        # all mass in one cell, bounded W: E -> W(0)/2 as the cell shrinks
        spec = pot.Morse(1, 2.0, 1.0, 1.0, 2.0)    # W(0) = 1
        vals = []
        for g in (16, 64, 256):
            m = np.zeros(g)
            m[g // 2] = 1.0
            rho = mea.GridDensity([-1.0], [1.0], g, m)
            vals.append(mea.continuum_energy_grid(spec, rho))
        target = float(spec.radial(0.0)) / 2
        assert abs(vals[-1] - target) < abs(vals[0] - target)
        assert vals[-1] == pytest.approx(target, abs=5e-3)

    def test_matches_quasi_random_oracle(self):
        # independent oracle: 2^20 scrambled-free Sobol pairs on the square
        from scipy.stats import qmc

        rho = mea.uniform_box(1, 1.0, 256)
        e = mea.continuum_energy_grid(MORSE1, rho)
        pts = qmc.Sobol(d=2, scramble=False).random(2 ** 20) * 2.0 - 1.0
        r = np.abs(pts[:, 0] - pts[:, 1])
        oracle = 0.5 * float(np.mean(MORSE1.radial(r)))
        assert e == pytest.approx(oracle, abs=1e-3)

    def test_singular_kernel_finite(self):
        rho = mea.uniform_box(3, 1.0, 8)
        e = mea.continuum_energy_grid(SINGULAR3, rho)
        assert math.isfinite(e)

    def test_too_coarse_errors(self):
        with pytest.raises(mea.MeasureError):
            mea.continuum_energy_grid(PL11, mea.uniform_box(1, 1.0, 2))

    def test_pinned_box_values(self):
        # values of the earlier pair-by-pair quadrature: with dyadic cell
        # widths its centre differences were exact, so it decided ties alike
        e2 = mea.continuum_energy_grid(pot.PowerLaw(2, 2.0, 1.0), mea.uniform_box(2, 1.0, 16))
        assert e2 == pytest.approx(-0.188594289124275, rel=1e-12)
        e3 = mea.continuum_energy_grid(SINGULAR3, mea.uniform_box(3, 1.0, 8))
        assert e3 == pytest.approx(1.42968503515024, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pair_loop_at_one_level(self, d):
        # reference: the midpoint rule pair by pair, with cell pairs within 2
        # diagonals (ties included) split into all (2^d)^2 subcell pairs
        rng = np.random.default_rng(d)
        g = 5
        spec = pot.Morse(d, 2.0, 1.0, 1.0, 0.5)
        m = rng.random(g ** d) * (rng.random(g ** d) < 0.8)
        m /= m.sum()
        rho = mea.GridDensity(rng.uniform(-1.0, 0.0, d), rng.uniform(1.0, 2.0, d), g, m)
        w = rho.cell_width
        cells = np.array(list(itertools.product(range(g), repeat=d)))
        sub = np.array(list(itertools.product([-0.25, 0.25], repeat=d))) * w
        total = 0.0
        for i, j in itertools.product(range(g ** d), repeat=2):
            k = cells[i] - cells[j]
            if np.sum((k * w) ** 2) <= 4.0 * np.sum(w ** 2) * (1.0 + 1e-12):
                r = np.linalg.norm(k * w + sub[:, None, :] - sub[None, :, :], axis=-1)
                val = float(np.mean(spec.radial(r)))
            else:
                val = float(spec.radial(np.linalg.norm(k * w)))
            total += m[i] * m[j] * val
        e = mea.continuum_energy_grid(spec, rho, refine_levels=1)
        assert e == pytest.approx(0.5 * total, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_translation_and_reflection_invariance(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        g = data.draw(st.integers(4, 10), label="g")
        # W = 2 exp(-r) - exp(-2r) > 0 keeps the energy away from 0, so the
        # relative tolerance measures rounding only
        specs = [pot.Morse(d, 2.0, 1.0, 1.0, 0.5)] + ([SINGULAR3] if d == 3 else [])
        spec = data.draw(st.sampled_from(specs), label="spec")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        m = rng.random(g ** d) * (rng.random(g ** d) < 0.7)
        m[rng.integers(g ** d)] += 1.0
        m /= m.sum()
        lo = rng.uniform(-3.0, 3.0, d)
        hi = lo + rng.uniform(0.25, 1.0, d)
        non_dyadic = st.floats(-3.0, 3.0).filter(lambda s: s * 2 ** 10 % 1 != 0)
        shift = np.array([data.draw(non_dyadic, label="shift") for _ in range(d)])
        axis = data.draw(st.integers(0, d - 1), label="axis")
        flipped = np.flip(m.reshape((g,) * d), axis=axis).reshape(-1)

        e = mea.continuum_energy_grid(spec, mea.GridDensity(lo, hi, g, m))
        moved = mea.continuum_energy_grid(spec, mea.GridDensity(lo + shift, hi + shift, g, m))
        mirrored = mea.continuum_energy_grid(spec, mea.GridDensity(lo, hi, g, flipped))
        assert moved == pytest.approx(e, rel=1e-13, abs=0)
        assert mirrored == pytest.approx(e, rel=1e-13, abs=0)


class TestGridMorreyNorm:
    def test_uniform_interval(self):
        rho = mea.uniform_box(1, 1.0, 64)
        assert mea.grid_morrey_norm(rho, 1.0) == pytest.approx(1.0, abs=0.02)

    def test_uniform_wider_interval(self):
        rho = mea.uniform_box(1, 2.0, 64)
        assert mea.grid_morrey_norm(rho, 1.0) == pytest.approx(0.5, abs=0.01)

    def test_scaling_equivariance(self):
        # dilating the box by t scales the s-norm by t^{-s} (same mass)
        v1 = mea.grid_morrey_norm(mea.uniform_box(1, 1.0, 64), 0.7)
        v2 = mea.grid_morrey_norm(mea.uniform_box(1, 2.0, 64), 0.7)
        assert v2 == pytest.approx(v1 * 2.0 ** -0.7, rel=1e-9)

    def test_exponent_validation(self):
        with pytest.raises(mea.MeasureError):
            mea.grid_morrey_norm(mea.uniform_box(1, 1.0, 8), 0.0)
        with pytest.raises(mea.MeasureError):
            mea.grid_morrey_norm(mea.uniform_box(2, 1.0, 8), 2.5)


class TestMorreyRadiusConstant:
    def test_closed_form(self):
        assert mea.morrey_radius_constant(1.0, 2.0, 1.0) == pytest.approx(4.0)

    def test_vanishes_with_radius(self):
        vals = [mea.morrey_radius_constant(1.0, 2.0, r) for r in (1.0, 0.1, 0.01)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05

    def test_exponent_precondition(self):
        with pytest.raises(mea.MeasureError):
            mea.morrey_radius_constant(2.5, 2.5, 1.0)


class TestWasserstein:
    def test_point_masses(self):
        d0 = mea.AtomicMeasure([[0.0]], [1.0])
        d1 = mea.AtomicMeasure([[1.0]], [1.0])
        assert mea.wasserstein1(d0, d1) == pytest.approx(1.0, abs=1e-15)
        assert mea.wasserstein1(d0, d0) == 0.0

    def test_sorted_pairing(self):
        mu = mea.AtomicMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = mea.AtomicMeasure([[0.0], [2.0]], [0.5, 0.5])
        assert mea.wasserstein1(mu, nu) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(mea.MeasureError):
            mea.wasserstein1(mea.AtomicMeasure([[0.0]], [1.0]),
                             mea.AtomicMeasure([[0.0, 0.0]], [1.0]))

    def test_assignment_and_lp_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            mu = random_atoms(rng, 6, 2, equal=True)
            nu = random_atoms(rng, 6, 2, equal=True)
            a = mea._w1_assignment(mu, nu)
            b = mea._w1_lp(mu, nu)
            assert a == pytest.approx(b, abs=1e-9)

    def test_metric_axioms(self):
        rng = np.random.default_rng(22)
        for trial in range(100):
            d = 1 if trial % 2 == 0 else 2
            equal = d == 2
            mu = random_atoms(rng, int(rng.integers(2, 8)), d, equal=equal)
            n = mu.n_atoms if equal else int(rng.integers(2, 8))
            nu = random_atoms(rng, n, d, equal=equal)
            la = random_atoms(rng, n if equal else int(rng.integers(2, 8)), d,
                              equal=equal)
            dmn = mea.wasserstein1(mu, nu)
            dnm = mea.wasserstein1(nu, mu)
            assert dmn == dnm                                  # exact symmetry
            assert mea.wasserstein1(mu, mu) <= 1e-12
            dml = mea.wasserstein1(mu, la)
            dln = mea.wasserstein1(la, nu)
            assert dmn <= dml + dln + 1e-9                     # triangle

    def test_quantisation_warns(self):
        rng = np.random.default_rng(23)
        mu = random_atoms(rng, 600, 2)
        nu = random_atoms(rng, 4, 2)
        with pytest.warns(mea.TransportQuantisationWarning):
            v = mea.wasserstein1(mu, nu, max_atoms=64)
        assert v > 0


class TestConversions:
    def test_density_to_atoms_examples(self):
        atoms = mea.density_to_atoms(mea.uniform_box(1, 1.0, 2))
        assert np.allclose(atoms.points[:, 0], [-0.5, 0.5])
        assert np.allclose(atoms.weights, 0.5)

        atoms4 = mea.density_to_atoms(mea.uniform_box(1, 1.0, 4))
        assert np.allclose(atoms4.points[:, 0], [-0.75, -0.25, 0.25, 0.75])
        assert np.allclose(atoms4.weights, 0.25)

        g = np.zeros(4)
        g[1] = 1.0
        single = mea.density_to_atoms(mea.GridDensity([-1.0], [1.0], 4, g))
        assert single.n_atoms == 1

    def test_regrid_uniform_stays_uniform(self):
        rho = mea.uniform_box(1, 1.0, 64)
        out = mea.regrid(rho, 3)
        assert out.resolution == 66
        assert np.allclose(out.masses, 1.0 / 66, atol=1e-15)

    def test_regrid_preserves_cdf(self):
        rng = np.random.default_rng(25)
        m = rng.random(16)
        rho = mea.GridDensity([-1.0], [1.0], 16, m / m.sum())
        out = mea.regrid(rho, 5)
        assert out.resolution == 20
        # cumulative mass at shared cell edges must match exactly
        for frac in (0.25, 0.5, 0.75):
            old = rho.masses[: int(16 * frac)].sum()
            new = out.masses[: int(20 * frac)].sum()
            assert new == pytest.approx(old, abs=1e-12)
