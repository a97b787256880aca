import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairenergy import configuration as cfg
from pairenergy import measures as mea
from pairenergy import optimizer as opt
from pairenergy import potentials as pot

PL11 = pot.PowerLaw(1, 2.0, 1.0)
PL21 = pot.PowerLaw(2, 2.0, 1.0)
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


# 2 to 7 atoms in the plane, each (x, y, unnormalised weight)
PLANAR_ATOMS = st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                                  st.floats(0.05, 1.0)), min_size=2, max_size=7)


def linprog_w1(mu, nu):
    """W1 as the transport LP, solved by HiGHS: the oracle of the simplex."""
    from scipy.optimize import linprog

    n, m = mu.n_atoms, nu.n_atoms
    cost = np.linalg.norm(mu.points[:, None] - nu.points[None], axis=-1)
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    lp = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                 method="highs")
    assert lp.success
    return lp.fun


def planar_measure(atoms):
    a = np.array(atoms)
    return mea.AtomicMeasure(a[:, :2], a[:, 2] / a[:, 2].sum())


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

    def test_grid_copies_the_callers_box(self):
        lo, hi = np.array([0.0, -1.0]), np.array([1.0, 2.0])
        rho = mea.GridDensity(lo, hi, 2, np.full(4, 0.25))
        assert lo.flags.writeable and hi.flags.writeable
        lo[0] = 5.0
        assert rho.lo.tolist() == [0.0, -1.0] and not rho.lo.flags.writeable

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

    @pytest.mark.parametrize("header, masses, message", [
        ("lo = -1", "1\n", "not a UTF-8 JSON file"),
        ('{"lo": [-1], "hi": [1], "resolution": 1}', "1\n", "missing key 'd'"),
        ('["g.json.masses.csv"]', "1\n", "must be a JSON object"),
        ('{"d": 1, "lo": [-1], "hi": [1], "resolution": "x", "mass_csv": "m.csv"}', "1\n",
         "resolution must be an integer"),
        ('{"d": 1, "lo": [-1], "hi": [1], "resolution": 2, "mass_csv": "m.csv"}', "a\nb\n",
         "m.csv must hold one number per line"),
    ], ids=["not_json", "missing_key", "not_an_object", "string_resolution",
            "masses_not_numbers"])
    def test_grid_load_malformed_is_measure_error(self, tmp_path, header, masses, message):
        (tmp_path / "g.json").write_text(header)
        (tmp_path / "m.csv").write_text(masses)
        with pytest.raises(mea.MeasureError, match=f"^grid density .*g.json: .*{message}"):
            mea.GridDensity.load(tmp_path / "g.json")

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("make, arrays", [
        (lambda: cfg.Configuration([[0.0, 1.0], [2.0, 3.5]]), lambda x: [x.points]),
        (lambda: mea.AtomicMeasure([[0.0], [1.0]], [0.25, 0.75]),
         lambda mu: [mu.points, mu.weights]),
        (lambda: mea.uniform_ball(2, 1.0, 6), lambda rho: [rho.lo, rho.hi, rho.masses]),
        (lambda: opt.minimize_multistart(PL21, 3, opt.OptimOpts(n_starts=2, hop_count=1)),
         lambda res: [res.best.points]),
    ], ids=["configuration", "atomic_measure", "grid_density", "multistart_result"])
    def test_copies_and_pickles_are_rebuilt_read_only(self, make, arrays, copier):
        value = make()
        back = copier(value)
        assert type(back) is type(value)
        for a, b in zip(arrays(value), arrays(back), strict=True):
            assert a.tobytes() == b.tobytes() and not b.flags.writeable
        if isinstance(value, opt.OptimResult):
            assert back.to_json() == value.to_json()
            assert back.energy_trace == value.energy_trace
        if isinstance(value, mea.GridDensity):
            assert back.resolution == value.resolution


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

    def test_refine_levels_above_30_refused(self):
        # 30 levels run, and the energy has stopped moving long before
        rho = mea.uniform_box(1, 1.0, 64)
        deep = mea.continuum_energy_grid(PL11, rho, refine_levels=30)
        assert deep == pytest.approx(mea.continuum_energy_grid(PL11, rho, refine_levels=20),
                                     rel=1e-15)
        for levels in (31, 63, 2000):
            with pytest.raises(mea.MeasureError,
                               match=r"^refine_levels must be an integer in \[1, 30\]$"):
                mea.continuum_energy_grid(PL11, rho, refine_levels=levels)

    def test_offset_table_above_the_cap_refused_before_the_fft(self, monkeypatch):
        # 1001^2 cells are under the cap, their 2001^2 offsets are not
        class Reached(Exception):
            pass

        def no_fft(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(mea.np.fft, "rfftn", no_fft)
        spec = pot.PowerLaw(2, 2.0, 1.0)
        with pytest.raises(mea.MeasureError,
                           match="^an offset table of 2001\\^2 cells is above the cap"):
            mea.continuum_energy_grid(spec, mea.uniform_box(2, 1.0, 1001))
        with pytest.raises(Reached):
            mea.continuum_energy_grid(spec, mea.uniform_box(2, 1.0, 1000))

    def test_pinned_box_values(self):
        # values of the earlier pair-by-pair quadrature: with dyadic cell
        # widths its centre differences were exact, so it decided ties alike
        e2 = mea.continuum_energy_grid(pot.PowerLaw(2, 2.0, 1.0), mea.uniform_box(2, 1.0, 16))
        assert e2 == pytest.approx(-0.188594289124275, rel=1e-12)
        e3 = mea.continuum_energy_grid(SINGULAR3, mea.uniform_box(3, 1.0, 8))
        assert e3 == pytest.approx(1.42968503515024, rel=1e-12)

    def test_near_ties_exact_in_d5(self):
        # W = r^2/2 - r gives E(L) = L^2 A - L B on uniform_box(5, L, 4) when
        # no near-offset decision depends on L: the tie of (2, 1, 0, 0, 0)
        # with the threshold (1, 1, 1, 1, 1) once followed the rounding of
        # the cell width
        spec = pot.PowerLaw(5, 2.0, 1.0)

        def energy(L):
            return mea.continuum_energy_grid(spec, mea.uniform_box(5, L, 4),
                                             refine_levels=1)

        e1, e2 = energy(1.0), energy(2.0)     # A - B and 4A - 2B
        a = (e2 - 2.0 * e1) / 2.0
        b = a - e1
        for L in (0.05, 0.2):
            assert energy(L) == pytest.approx(L * L * a - L * b, rel=1e-12)

    @pytest.mark.parametrize("d", [4, 5])
    def test_cubic_grid_translation_exact(self, d):
        # the moved box's cell widths differ from axis to axis in the last
        # bits; its near-offset ties must be decided as the unmoved box's
        spec = pot.PowerLaw(d, 2.0, 1.0)
        rho = mea.uniform_box(d, 0.05, 4)
        shift = np.eye(d)[0] * 0.1
        moved = mea.GridDensity(rho.lo + shift, rho.hi + shift, 4, rho.masses)
        e = mea.continuum_energy_grid(spec, rho, refine_levels=1)
        assert mea.continuum_energy_grid(spec, moved, refine_levels=1) \
            == pytest.approx(e, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pair_loop_at_one_level(self, d):
        # reference: the midpoint rule pair by pair, with cell pairs within 2
        # diagonals (ties included) split into all (2^d)^2 subcell pairs; the
        # grids of 1 to 3 cells per side are taken as they are
        rng = np.random.default_rng(d)
        spec = pot.Morse(d, 2.0, 1.0, 1.0, 0.5)
        for g in (1, 2, 3, 5):
            m = rng.random(g ** d) * (rng.random(g ** d) < 0.8)
            m[0] += 0.1
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
            assert e == pytest.approx(0.5 * total, rel=1e-12), g

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

    @settings(max_examples=60, deadline=None)
    @given(PLANAR_ATOMS, PLANAR_ATOMS, PLANAR_ATOMS)
    def test_metric_axioms_unequal_weights_d2(self, a, b, c):
        # the transport simplex with unequal weights, which test_metric_axioms
        # and acceptance criterion 8(d) reach only in d = 1
        mu, nu, la = (planar_measure(x) for x in (a, b, c))
        dmn = mea.wasserstein1(mu, nu)
        assert dmn == mea.wasserstein1(nu, mu)
        assert abs(mea.wasserstein1(mu, mu)) <= 1e-9
        # projections are 1-Lipschitz, so the distance of the means is a lower bound
        means = np.linalg.norm(mu.weights @ mu.points - nu.weights @ nu.points)
        assert dmn >= means - 1e-9
        assert dmn <= mea.wasserstein1(mu, la) + mea.wasserstein1(la, nu) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(PLANAR_ATOMS, PLANAR_ATOMS, st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           st.floats(0.1, 10.0), st.randoms(use_true_random=False))
    def test_invariances_d2(self, a, b, shift, s, rnd):
        # W1 does not see a common translation or the order of the atoms,
        # and scales with a uniform scaling
        mu, nu = planar_measure(a), planar_measure(b)
        w = mea.wasserstein1(mu, nu)

        def moved(meas, f):
            order = rnd.sample(range(meas.n_atoms), meas.n_atoms)
            return mea.AtomicMeasure(f(meas.points[order]), meas.weights[order])

        shifted = [moved(x, lambda p: p + np.array(shift)) for x in (mu, nu)]
        scaled = [moved(x, lambda p: s * p) for x in (mu, nu)]
        assert mea.wasserstein1(*shifted) == pytest.approx(w, rel=1e-9, abs=1e-12)
        assert mea.wasserstein1(moved(mu, np.asarray), nu) == pytest.approx(w, rel=1e-9,
                                                                            abs=1e-12)
        assert mea.wasserstein1(*scaled) == pytest.approx(s * w, rel=1e-9, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_linprog(self, data):
        # lattice points (many tied costs), zero-weight atoms and single atoms
        d = data.draw(st.integers(2, 3), label="d")

        def measure(label):
            n = data.draw(st.integers(1, 8), label=f"n_{label}")
            pts = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                     min_size=n, max_size=n), label=f"points_{label}")
            w = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                          .filter(any), label=f"weights_{label}")
            return mea.AtomicMeasure(np.array(pts, dtype=float), np.array(w) / sum(w))

        mu, nu = measure("mu"), measure("nu")
        assert mea.wasserstein1(mu, nu) == pytest.approx(linprog_w1(mu, nu), rel=1e-9,
                                                         abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 120])
    def test_matches_assignment(self, n):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(n)
        mu, nu = random_atoms(rng, n, 2, equal=True), random_atoms(rng, n, 2, equal=True)
        cost = np.linalg.norm(mu.points[:, None] - nu.points[None], axis=-1)
        rows, cols = linear_sum_assignment(cost)
        assert mea.wasserstein1(mu, nu) == pytest.approx(cost[rows, cols].sum() / n,
                                                         rel=1e-12)

    def test_degenerate_lattice_terminates(self):
        # an 8 x 8 lattice against the centres of its 2 x 2 blocks: every
        # basis is highly degenerate and many costs tie
        fine = mea.density_to_atoms(mea.uniform_box(2, 1.0, 8))
        coarse = mea.density_to_atoms(mea.uniform_box(2, 1.0, 4))
        lp = linprog_w1(fine, coarse)
        assert mea.wasserstein1(fine, coarse) == pytest.approx(lp, rel=1e-12)
        assert lp == pytest.approx(np.sqrt(2.0) / 8.0, rel=1e-12)   # each atom to its centre

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=9),
           st.lists(st.integers(1, 4), min_size=1, max_size=9))
    def test_north_west_start_is_strongly_feasible(self, wa, wb):
        # tied cumulative masses make zero-flow cells; the flows carry both
        # marginals
        a, b = np.array(wa) / sum(wa), np.array(wb) / sum(wb)
        n, m = len(a), len(b)
        basis = mea._Basis(np.ones((n, m)), a, b)
        assert_strongly_feasible(basis)
        rows, cols = marginals(basis)
        assert rows == pytest.approx(a, abs=1e-15) and cols == pytest.approx(b, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pivot_keeps_marginals_potentials_and_cost(self, data):
        # integer weights and costs tie often, so zero-flow cells and
        # degenerate pivots are common; the root column is drawn first
        wa = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=7), label="wa")
        wb = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=7), label="wb")
        a, b = np.array(wa) / sum(wa), np.array(wb) / sum(wb)
        n, m = len(a), len(b)
        cost = np.array(data.draw(st.lists(st.lists(st.integers(0, 5), min_size=m, max_size=m),
                                           min_size=n, max_size=n), label="cost"), float)
        basis = mea._Basis(cost, a, b)
        for _ in range(data.draw(st.integers(1, 4), label="pivots")):
            reduced = cost - basis.pot[:n, None] - basis.pot[n:]
            cells = sorted(zip(*np.nonzero(reduced < -1e-9)), key=lambda c: (c[1], c[0]))
            if not cells:
                break
            i, col = data.draw(st.sampled_from(cells), label="cell")
            rc, before = float(reduced[i, col]), primal_cost(basis)
            basis.pivot(int(i), n + int(col), rc)
            assert_strongly_feasible(basis)
            rows, cols = marginals(basis)
            assert rows == pytest.approx(a, abs=1e-12) and cols == pytest.approx(b, abs=1e-12)
            for x in range(n + m):
                if x != n:
                    row, c = basis.cell(x)
                    assert basis.pot[row] + basis.pot[n + c] == pytest.approx(cost[row, c],
                                                                              abs=1e-12)
            enter = i if basis.parent[i] == n + col else n + col
            assert basis.cell(enter) == (i, col)
            assert primal_cost(basis) - before == pytest.approx(basis.flow[enter] * rc,
                                                                abs=1e-12)

    def test_pivots_keep_the_tree_strongly_feasible(self, monkeypatch):
        pivot, pivots = mea._Basis.pivot, []

        def checked(basis, i, j, rc):
            pivot(basis, i, j, rc)
            assert_strongly_feasible(basis)
            for x in range(len(basis.parent)):
                if x != basis.n:
                    row, col = basis.cell(x)
                    assert basis.pot[row] + basis.pot[basis.n + col] \
                        == pytest.approx(basis.cost[row, col], abs=1e-12)
            pivots.append((i, j))

        monkeypatch.setattr(mea._Basis, "pivot", checked)
        rng = np.random.default_rng(26)
        fine = mea.density_to_atoms(mea.uniform_box(2, 1.0, 8))
        coarse = mea.density_to_atoms(mea.uniform_box(2, 1.0, 4))
        lattice = [mea.AtomicMeasure(rng.integers(-2, 3, size=(k, 2)).astype(float), w / w.sum())
                   for k, w in ((12, rng.integers(1, 4, 12)), (9, rng.integers(1, 4, 9)))]
        for mu, nu in ((fine, coarse), lattice):
            mea.wasserstein1(mu, nu)
        assert len(pivots) > 50

    def test_failures_raise(self, monkeypatch):
        rng = np.random.default_rng(27)
        mu, nu = random_atoms(rng, 9, 2), random_atoms(rng, 7, 2)
        monkeypatch.setattr(mea, "_PIVOTS_PER_NODE", 0)
        with pytest.raises(mea.MeasureError, match="did not finish in 0 pivots"):
            mea.wasserstein1(mu, nu)
        monkeypatch.undo()
        # a start that moves 1% too much mass: the dual cost cannot match
        start = mea._Basis.__init__

        def overfull(basis, cost, a, b):
            start(basis, cost, a, b)
            basis.flow[0] += 0.01

        monkeypatch.setattr(mea._Basis, "__init__", overfull)
        with pytest.raises(mea.MeasureError, match="primal .* and dual .* differ"):
            mea.wasserstein1(mu, nu)


def assert_strongly_feasible(basis):
    """A tree rooted at the first column whose zero-flow cells each hang a
    row from a column, so that every node can send flow to the root."""
    n, parent, flow = basis.n, basis.parent, basis.flow
    assert [x for x, p in enumerate(parent) if p < 0] == [n]
    for x, p in enumerate(parent):
        if x != n:
            assert (x < n) != (p < n)
            assert x in basis.children[p]
            assert flow[x] > 0.0 or (flow[x] == 0.0 and x < n)
            # no cycle: the root is reached within n + m parent steps
            y, steps = x, 0
            while y != n and steps < len(parent):
                y, steps = parent[y], steps + 1
            assert y == n


def marginals(basis):
    """The row and column sums of the tree's flows."""
    n = basis.n
    rows, cols = np.zeros(n), np.zeros(len(basis.parent) - n)
    for x in range(len(basis.parent)):
        if x != n:
            i, j = basis.cell(x)
            rows[i] += basis.flow[x]
            cols[j] += basis.flow[x]
    return rows, cols


def primal_cost(basis):
    return math.fsum(basis.flow[x] * basis.cost[basis.cell(x)]
                     for x in range(len(basis.parent)) if x != basis.n)


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

    def test_regrid_matches_interval_overlap_oracle(self):
        # per cell: |old cell k ∩ new cell K| / |old cell k|, then one contraction
        # per axis; bit for bit
        rng = np.random.default_rng(26)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            g = int(rng.integers(1, {1: 40, 2: 12, 3: 6}[d]))
            mult = int(rng.integers(1, 9))
            m = rng.random(g ** d) * (rng.random(g ** d) < 0.7)
            m[0] += 0.1
            rho = mea.GridDensity([-1.0] * d, rng.uniform(0.5, 2.0, d), g, m / m.sum())
            g2 = -(-g // mult) * mult
            frac = np.array([[max(min((k + 1) / g, (K + 1) / g2) - max(k / g, K / g2), 0.0) * g
                              for k in range(g)] for K in range(g2)])
            want = rho.masses.reshape((g,) * d)
            for axis in range(d):
                want = np.moveaxis(np.tensordot(frac, want, axes=([1], [axis])), 0, axis)
            want = want.reshape(-1)
            want = want / want.sum() if g2 != g else rho.masses
            out = mea.regrid(rho, mult)
            assert out.resolution == g2
            assert out.masses.tobytes() == want.tobytes()

    def test_regrid_refuses_a_grid_above_the_cap(self):
        # 2100^2 cells, refused as uniform_box refuses the same grid
        with pytest.raises(mea.MeasureError) as box:
            mea.uniform_box(2, 1.0, 2100)
        with pytest.raises(mea.MeasureError) as regridded:
            mea.regrid(mea.uniform_box(2, 1.0, 4), 2100)
        assert str(regridded.value) == str(box.value) \
            == "a grid of 2100^2 cells is above the cap of 4000000 cells"

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
