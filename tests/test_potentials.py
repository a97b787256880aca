import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairenergy import configuration as cfg
from pairenergy import diagnostics as diag
from pairenergy import potentials as pot

PL21 = pot.PowerLaw(2, 2.0, 1.0)
PL21_D1 = pot.PowerLaw(1, 2.0, 1.0)
PL3_SING = pot.PowerLaw(3, 2.0, -0.5)
MORSE_U = pot.Morse(2, 1.0, 0.5, 1.0, 1.0)
MORSE_S = pot.Morse(2, 5.0, 0.5, 1.0, 1.0)
# l_r >= l_a and C_r < C_a, with the margin 1 - C_r/C_a
UNSTABLE_AT_THE_ORIGIN = [(pot.Morse(2, 0.5, 1.0, 1.0, 0.5), 0.5),
                          (pot.Morse(2, 0.9, 2.0, 1.0, 1.0), 0.1),
                          (pot.Morse(1, 0.5, 1.0, 1.0, 1.0), 0.5),
                          (pot.Morse(3, 0.8, 1.0, 1.0, 0.5), 0.2)]


def fd_derivative(spec, r, h=1e-6):
    return (spec.radial(r + h) - spec.radial(r - h)) / (2 * h)


class TestConstruction:
    def test_power_law_rejects_bad_exponents(self):
        with pytest.raises(pot.PotentialError):
            pot.PowerLaw(2, 1.0, 2.0)          # a <= b
        with pytest.raises(pot.PotentialError):
            pot.PowerLaw(2, 2.0, -1.0)         # b <= 0 in d = 2
        with pytest.raises(pot.PotentialError):
            pot.PowerLaw(3, 2.0, 0.0)          # log case
        with pytest.raises(pot.PotentialError):
            pot.PowerLaw(3, 2.0, -1.0)         # b <= 2 - d
        with pytest.raises(pot.PotentialError):
            pot.PowerLaw(3, -0.5, -0.9)        # no growth at infinity
        pot.PowerLaw(3, 2.0, -0.5)             # fine

    def test_morse_rejects_nonpositive(self):
        for bad in ({"C_r": -1.0}, {"l_r": 0.0}, {"C_a": -2.0}, {"l_a": 0.0}):
            kwargs = dict(dimension=2, C_r=1.0, l_r=0.5, C_a=1.0, l_a=1.0)
            kwargs.update(bad)
            with pytest.raises(pot.PotentialError):
                pot.Morse(**kwargs)

    @pytest.mark.parametrize("family", [pot.PowerLaw, pot.Morse])
    def test_bool_dimension_rejected(self, family):
        params = (2.0, 1.0) if family is pot.PowerLaw else (1, 0.5, 1, 1)
        with pytest.raises(pot.PotentialError, match="dimension"):
            family(True, *params)

    def test_json_round_trip(self):
        for obj, spec in (
                ({"kind": "power_law", "d": 2, "a": 2.0, "b": 1.0}, PL21),
                ({"kind": "power_law", "d": 3, "a": 2.0, "b": -0.5}, PL3_SING),
                ({"kind": "morse", "d": 2, "Cr": 1.0, "lr": 0.5, "Ca": 1.0, "la": 1.0},
                 MORSE_U)):
            assert pot.potential_from_json(obj) == spec
        with pytest.raises(pot.PotentialError):
            pot.potential_from_json({"kind": "power_law", "d": 2, "a": 2.0,
                                     "b": 1.0, "extra": 1})
        with pytest.raises(pot.PotentialError):
            pot.potential_from_json({"kind": "nope"})


class TestEval:
    def test_power_law_at_unit_radius(self):
        assert float(PL21.radial(1.0)) == pytest.approx(-0.5, abs=1e-15)

    def test_singular_origin(self):
        assert float(PL3_SING.radial(0.0)) == math.inf
        assert float(pot.PowerLaw(4, 2.0, -1.0).radial(0.0)) == math.inf

    def test_morse_origin(self):
        spec = pot.Morse(1, 1.0, 0.5, 1.0, 1.0)
        assert float(spec.radial(0.0)) == 0.0

    def test_lower_bound(self):
        rng = np.random.default_rng(1)
        for spec in (PL21, MORSE_U, MORSE_S, PL3_SING):
            r = rng.uniform(1e-3, 10.0, size=10_000)
            vals = np.asarray(spec.radial(r))
            assert np.all(vals >= spec.W_min - 1e-12)

    def test_monotone_beyond_r_w(self):
        rng = np.random.default_rng(2)
        for spec in (PL21, MORSE_U, MORSE_S):
            r_w = spec.R_W
            lo = max(r_w, 1e-6)
            r1 = rng.uniform(lo, 10 * lo, size=200)
            r2 = r1 + rng.uniform(1e-3, 2.0, size=200)
            v1, v2 = np.asarray(spec.radial(r1)), np.asarray(spec.radial(r2))
            assert np.all(v1 < v2)


class TestRadialDerivative:
    def test_critical_at_unit_distance(self):
        assert float(PL21.radial_derivative(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_power_law_at_two(self):
        # radial derivative r^{a-1} - r^{b-1} = r - 1 -> 1 at r = 2
        w1 = float(PL21.radial_derivative(2.0))
        assert w1 == pytest.approx(fd_derivative(PL21, 2.0), rel=1e-6)
        assert w1 == pytest.approx(1.0, abs=1e-12)

    def test_morse_example(self):
        spec = pot.Morse(2, 2.0, 1.0, 1.0, 2.0)
        w1 = float(spec.radial_derivative(1.0))
        expected = -2.0 * math.exp(-1.0) + 0.5 * math.exp(-0.5)
        assert w1 == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.4326, abs=2e-4)
        assert w1 == pytest.approx(fd_derivative(spec, 1.0), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("r", [0.7, np.float64(0.7), np.array(0.7),
                                   np.linspace(0.0, 9.0, 12).reshape(3, 4)],
                             ids=["float", "float64", "0-d", "3x4"])
    def test_morse_kernels_are_the_closed_forms_bitwise(self, r):
        # the terms in the order of the formulas; a scalar in, a scalar out
        c_r, l_r, c_a, l_a = MORSE_S.C_r, MORSE_S.l_r, MORSE_S.C_a, MORSE_S.l_a
        x = np.asarray(r, dtype=float)
        w = c_r * np.exp(-x / l_r) - c_a * np.exp(-x / l_a)
        dw = (-c_r / l_r) * np.exp(-x / l_r) + (c_a / l_a) * np.exp(-x / l_a)
        d2w = (c_r / l_r**2) * np.exp(-x / l_r) + (-c_a / l_a**2) * np.exp(-x / l_a)
        for got, want in ((MORSE_S.radial(r), w), (MORSE_S.radial_derivative(r), dw),
                          (MORSE_S.radial_second(r), d2w)):
            assert np.array_equal(got, want) and np.shape(got) == np.shape(r)
            assert isinstance(got, np.ndarray) == (np.ndim(r) > 0)

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(3)
        for spec in (PL21, MORSE_U, PL3_SING, pot.PowerLaw(1, 3.0, 0.5)):
            r = rng.uniform(0.1, 10.0, size=100)
            w1, fd = spec.radial_derivative(r), fd_derivative(spec, r)
            assert np.all(np.abs(w1 - fd) <= 1e-5 * np.maximum(np.abs(fd), 1e-8))


class TestRadialSecond:
    def test_power_law_closed_form(self):
        # W'' = (a-1) r^(a-2) - (b-1) r^(b-2): 1 for a = 2, b = 1
        assert np.array_equal(PL21.radial_second(np.array([0.5, 1.0, 3.0])), np.ones(3))
        # a = 2, b = -1/2: 1 + 1.5 r^-2.5
        assert float(PL3_SING.radial_second(4.0)) == 1.0 + 1.5 / 32.0

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for spec in (PL21, MORSE_U, MORSE_S, PL3_SING, pot.PowerLaw(1, 3.0, 0.5)):
            r = rng.uniform(0.1, 10.0, size=100)
            w2 = spec.radial_second(r)
            fd = (spec.radial_derivative(r + h) - spec.radial_derivative(r - h)) / (2 * h)
            assert np.all(np.abs(w2 - fd) <= 1e-5 * np.maximum(np.abs(fd), 1e-8))


class TestDerivedConstants:
    def test_power_law(self):
        assert PL21.W_min == pytest.approx(1 / 2.0 - 1 / 1.0)
        assert PL21.W_inf == math.inf
        assert PL21.R_W == 1.0
        assert PL21.beta is None and not PL21.singular_at_origin

    def test_power_law_singular(self):
        assert PL3_SING.singular_at_origin
        assert PL3_SING.beta == pytest.approx(2.5)
        # the minimum W(1) = 1/a - 1/b of a singular power law is positive
        assert PL3_SING.W_min == 2.5 == float(PL3_SING.radial(1.0))

    def test_morse_unstable(self):
        # W' = e^{-r}(e^{-r} * -2 + 1): zero at r = ln 2
        assert MORSE_U.R_W == pytest.approx(math.log(2), rel=1e-15)
        assert MORSE_U.W_min == pytest.approx(-0.25, abs=1e-12)
        assert MORSE_U.W_inf == 0.0 and MORSE_U.beta is None

    def test_morse_stable(self):
        assert MORSE_S.R_W == pytest.approx(math.log(10), rel=1e-15)
        assert MORSE_S.W_min == pytest.approx(-0.05, abs=1e-12)

    def test_morse_monotone_from_origin(self):
        # C_a/l_a > C_r/l_r: increasing from r = 0
        spec = pot.Morse(2, 1.0, 1.0, 4.0, 2.0)
        assert spec.R_W == 0.0
        assert spec.W_min == pytest.approx(1.0 - 4.0)

    def test_morse_long_range_repulsion_has_no_r_w(self):
        # l_r > l_a: W decreases to 0 from above at infinity
        assert pot.Morse(2, 1.0, 2.0, 1.0, 1.0).R_W == math.inf

    def test_morse_close_lengths(self):
        # l_a = 1.01 l_r puts the turning point at
        # ln(2.02) / (1 - 1/1.01) = 71.0128..., 70 times the length scales
        spec = pot.Morse(2, 2.0, 1.0, 1.0, 1.01)
        assert spec.R_W == pytest.approx(71.01284865272439, rel=1e-12)
        assert spec.W_min < 0.0

    @settings(max_examples=300, deadline=None)
    @given(c_r=st.floats(0.1, 10.0), c_a=st.floats(0.1, 10.0),
           l_r=st.floats(0.1, 5.0), l_a=st.one_of(st.none(), st.floats(0.1, 5.0)))
    def test_morse_constants_match_derivative_sign(self, c_r, c_a, l_r, l_a):
        # l_a = None draws the tie l_a = l_r.  The sign of
        # e^{r/l_a} W'(r) = C_a/l_a - (C_r/l_r) e^{-r (1/l_r - 1/l_a)} is taken
        # in 50-digit decimal arithmetic, away from a band that covers the
        # rounding of R_W.
        l_a = l_r if l_a is None else l_a
        spec = pot.Morse(2, c_r, l_r, c_a, l_a)
        r_w = spec.R_W
        assert (r_w == math.inf) == (l_r > l_a or (l_r == l_a and c_r > c_a))
        if l_r == l_a and c_r == c_a:  # W = 0, which keeps R_W = 0
            assert (r_w, spec.W_min) == (0.0, 0.0)
            return

        def scaled_slope_sign(r):
            with localcontext() as ctx:
                ctx.prec = 50
                cr, lr, ca, la = map(Decimal, (c_r, l_r, c_a, l_a))
                v = ca / la - cr / lr * (-Decimal(r) * (1 / lr - 1 / la)).exp()
            return (v > 0) - (v < 0)

        span = 20.0 * max(l_r, l_a)
        if math.isinf(r_w):
            rs = np.linspace(0.0, span, 65)
        else:
            band = 1e-9 * max(1.0, r_w)
            near = np.geomspace(1e-8, 1.0, 17) * max(1.0, r_w)
            below = np.concatenate([np.linspace(0.0, r_w, 33)[:-1], r_w - near])
            below = below[below >= 0.0]
            above = r_w + np.concatenate([near[near <= span],
                                          np.linspace(0.0, span, 65)[1:]])
            assert all(scaled_slope_sign(r) < 0 for r in below if r < r_w - band)
            assert all(scaled_slope_sign(r) > 0 for r in above if r > r_w + band)
            rs = np.concatenate([below, [r_w], above])
        assert np.all(spec.radial(rs) >= spec.W_min - 1e-12)


class TestApproximateLaplacian:
    # a kernel that is not a potential goes through _ball_deviation, the
    # radial deviation that approximate_laplacian evaluates at r = |x|
    def test_quadratic_kernel_gives_dimension(self):
        for d in (1, 2, 3):
            v = pot._ball_deviation(lambda r: r**2 / 2, 0.0, 0.5, d)
            assert v == pytest.approx(d, rel=1e-12)

    def test_qmc_path_d4(self):
        # d >= 4 once took a quasi-Monte Carlo rule; it now takes the same
        # Gauss rule as d <= 3, which is exact on this kernel
        v = pot._ball_deviation(lambda r: r**2 / 2, 0.0, 0.5, 4)
        assert v == pytest.approx(4, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_exact_on_even_polynomials(self, d):
        # E|p|^2k = d/(d+2k) and E(z.p)^2 = |z|^2 E|p|^2/d for p uniform in
        # the unit ball give, with s = 2(d+2)/eps^2,
        #   s (avg |z+eps p|^2 - |z|^2) = 2d
        #   s (avg |z+eps p|^4 - |z|^4) = 4(d+2)|z|^2 + 2d(d+2) eps^2/(d+4)
        for eps in (0.05, 0.4, 2.0):
            v2 = pot._ball_deviation(lambda r: r**2, 1.3, eps, d)
            v4 = pot._ball_deviation(lambda r: r**4, 1.3, eps, d)
            assert v2 == pytest.approx(2 * d, rel=1e-12)
            want = 4 * (d + 2) * 1.3**2 + 2 * d * (d + 2) * eps**2 / (d + 4)
            assert v4 == pytest.approx(want, rel=1e-12)

    def test_eps_squared_convergence(self):
        # lap W(r) = (a+d-2) r^(a-2) - (b+d-2) r^(b-2); the error of the
        # ball average is c eps^2 + O(eps^4), so halving eps quarters it
        r = 1.3
        exact = 3.0 - 0.5 * r ** -2.5
        x = r * np.array([0.6, 0.0, 0.8])
        errors = [abs(pot.approximate_laplacian(PL3_SING, x, f * r) - exact)
                  for f in (0.08, 0.04, 0.02, 0.01)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(3.9 <= q <= 4.1 for q in ratios), ratios

    def test_constant_kernel_gives_zero(self):
        v = pot._ball_deviation(lambda r: np.full_like(r, 7.25),
                                np.linalg.norm([0.3, -0.2]), 0.1, 2)
        assert v == 0.0

    @pytest.mark.parametrize("c", [7.25, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
    def test_constant_kernel_gives_zero_in_every_dimension(self, d, c):
        v = pot._ball_deviation(lambda r: np.full_like(r, c),
                                np.array([0.0, 0.36, 1.3, 40.0]), 0.1, d)
        assert np.all(v == 0.0)

    def test_power_law_matches_analytic(self):
        # Laplacian of r^2/2 - r in d dims is d - (d-1)/r
        spec = pot.PowerLaw(3, 2.0, 1.0)
        v = pot.approximate_laplacian(spec, [2.0, 0.0, 0.0], 0.01)
        assert v == pytest.approx(3 - 2 / 2.0, abs=5e-3)
        v1 = pot.approximate_laplacian(spec, [1.0, 0.0, 0.0], 1e-3)
        assert v1 == pytest.approx(1.0, abs=5e-3)

    def test_eps_validation(self):
        with pytest.raises(pot.PotentialError):
            pot.approximate_laplacian(PL21, [1.0, 0.0], 0.0)

    @pytest.mark.parametrize("x", [[1.0, 0.0, 0.0], [1.0]], ids=["d3_point", "d1_point"])
    def test_dimension_mismatch(self, x):
        with pytest.raises(pot.PotentialError, match="shape"):
            pot.approximate_laplacian(PL21, x, 0.1)

    def test_singular_conventions(self):
        spec = pot.PowerLaw(3, 2.0, -0.5)
        assert pot.approximate_laplacian(spec, [0.0, 0.0, 0.0], 0.1) == -math.inf
        assert pot.approximate_laplacian(spec, [0.05, 0.0, 0.0], 0.1) == math.inf

    def test_beta_repulsivity_bound(self):
        # -lap^eps W >= 0.9 C |x|^{-beta} with C = d - beta near the origin
        spec = PL3_SING
        beta = 2.5
        c = spec.dimension - beta
        rng = np.random.default_rng(4)
        for _ in range(25):
            r = rng.uniform(0.01, 0.15)
            u = rng.normal(size=3)
            x = r * u / np.linalg.norm(u)
            v = pot.approximate_laplacian(spec, x, r / 10.0)
            assert -v >= 0.9 * c * r ** (-beta)



def _jacobi_moments(k_max, alpha, beta):
    """int x^k (1-x)^alpha (1+x)^beta dx over [-1, 1] for k <= k_max.

    m_0 = 2^(a+b+1) B(a+1, b+1) comes from math.lgamma.  Integrating the
    derivative of x^k (1-x)^(a+1) (1+x)^(b+1) by parts gives
    (k+a+b+2) m_(k+1) = k m_(k-1) + (b-a) m_k, whose two terms have the same
    sign, so every moment keeps the relative accuracy of m_0.  a+b+2 is
    formed as (a+1) + (b+1), so it keeps its relative accuracy with both
    parameters near -1.
    """
    a1, b1 = alpha + 1, beta + 1
    ab2 = a1 + b1
    m = [math.exp((ab2 - 1) * math.log(2.0) + math.lgamma(a1) + math.lgamma(b1)
                  - math.lgamma(ab2))]
    m.append(m[0] * (beta - alpha) / ab2)
    for k in range(1, k_max):
        m.append((k * m[k - 1] + (beta - alpha) * m[k]) / (k + ab2))
    return m


# the two rules of _ball_rule in dimension d; d = 1 has no axial rule
BALL_RULES = [(8, 0.0, d - 1.0) for d in (1, 2, 3, 4, 5, 8)] \
    + [(16, (d - 3) / 2, (d - 3) / 2) for d in (2, 3, 4, 5, 8)]
JACOBI_PARAM = st.floats(-1.0, 4.0, exclude_min=True)


class TestGaussJacobi:
    @pytest.mark.parametrize("n, alpha, beta", BALL_RULES,
                             ids=[f"{n}-{a:g}-{b:g}" for n, a, b in BALL_RULES])
    def test_matches_scipy(self, n, alpha, beta):
        from scipy.special import roots_jacobi   # the former rule, as an oracle

        x, w = pot._gauss_jacobi(n, alpha, beta)
        x_ref, w_ref = roots_jacobi(n, alpha, beta)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 20),
           params=st.one_of(st.tuples(JACOBI_PARAM, JACOBI_PARAM),
                            st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True)
                            .map(lambda a: (a, -1.0 - a))))
    @example(n=16, params=(-0.5, -0.5))   # the Chebyshev closed form
    @example(n=8, params=(0.0, 7.0))      # the radial rule in d = 8
    # both parameters near -1, where alpha + beta + 2 must keep its relative accuracy
    @example(n=19, params=(-0.99609375, -0.99999))
    @example(n=19, params=(-0.99999, -0.999995))
    def test_exact_to_degree_2n_minus_1(self, n, params):
        # |Q(x^k) - m_k| within 1e-12 of Q(|x|^k), which is Q(x^k) for even k
        alpha, beta = params
        assume(beta > -1.0)   # -1 - alpha rounds to -1 for alpha near 0
        x, w = pot._gauss_jacobi(n, alpha, beta)
        for k, m_k in enumerate(_jacobi_moments(2 * n - 1, alpha, beta)):
            assert abs(w @ x**k - m_k) <= 1e-12 * (w @ np.abs(x) ** k), k

    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.5])
    def test_symmetric_rule_is_exactly_symmetric(self, alpha, n):
        x, w = pot._gauss_jacobi(n, alpha, alpha)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("n", [3, 16])
    def test_chebyshev_rule_is_closed_form(self, n):
        x, w = pot._gauss_jacobi(n, -0.5, -0.5)
        assert np.all(w == np.pi / n)
        assert np.allclose(x, np.cos((2 * np.arange(n, 0, -1) - 1) * np.pi / (2 * n)),
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
    def test_ball_rule_weights_sum_to_one(self, d):
        assert pot._ball_rule(d, *pot._RULE)[2].sum() == 1.0


class TestBallDeviationSums:
    @pytest.mark.parametrize("one_row", [False, True], ids=["budget", "one_row"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_unblocked_norms(self, monkeypatch, d, one_row):
        # stationarity_check evaluates its N*N radii in chunks; it must equal
        # the pair-by-pair approximate_laplacian sum.  The chunk budgets put
        # the N*N radii just below, at and just above one and two chunks.
        spec = pot.Morse(d, 1.0, 0.5, 1.0, 1.0)
        n = 6
        nodes = len(pot._ball_rule(d, *pot._RULE)[2])
        chunks = [1] if one_row else [n * n + 1, n * n, n * n - 1,
                                      n * n // 2 + 1, n * n // 2, n * n // 2 - 1]
        rng = np.random.default_rng(d)
        x = cfg.Configuration(rng.uniform(-1.0, 1.0, size=(n, d)))
        eps = 0.1 * cfg.min_pair_distance(x)
        direct = [sum(pot.approximate_laplacian(spec, x.points[i] - x.points[j], eps)
                      for i in range(n) if i != j) for j in range(n)]
        for chunk in chunks:
            monkeypatch.setattr(pot, "_BALL_VALUES", chunk * nodes)
            res = diag.stationarity_check(spec, x, eps)
            assert list(res.values) == pytest.approx(direct, rel=1e-12)


class TestStability:
    def test_examples(self):
        assert MORSE_U.stability().classification == pot.UNSTABLE
        assert MORSE_S.stability().classification == pot.STRICTLY_STABLE
        assert PL21.stability().classification == pot.UNSTABLE

    def test_boundary_and_unordered_scales(self):
        boundary = pot.Morse(2, 4.0, 0.5, 1.0, 1.0)   # ratio == threshold
        assert boundary.stability().classification == pot.UNKNOWN
        swapped = pot.Morse(2, 1.0, 2.0, 1.0, 1.0)    # l_r >= l_a, C_r = C_a
        assert swapped.stability().classification == pot.UNKNOWN
        # l_r >= l_a and C_r < C_a: W(0) < 0, so a point mass is below W_inf/2
        for spec, margin in UNSTABLE_AT_THE_ORIGIN:
            report = spec.stability()
            assert report.classification == pot.UNSTABLE
            assert report.margin == pytest.approx(margin)

    def test_margin_sign(self):
        assert MORSE_U.stability().margin > 0
        assert MORSE_S.stability().margin > 0


class TestInstabilityScan:
    def test_power_law_any_scale_certifies(self):
        cert = pot.numeric_instability_scan(PL21_D1, [0.5, 1.0, 2.0])
        assert cert.found and math.isfinite(cert.best_energy)

    def test_empty_scales_with_infinite_w_inf_errors(self):
        with pytest.raises(pot.PotentialError):
            pot.numeric_instability_scan(PL21_D1, [])

    def test_morse_unstable_certificate(self):
        scales = np.geomspace(0.1, 20.0, 12)
        cert = pot.numeric_instability_scan(MORSE_U, scales, resolution=32)
        assert cert.found and cert.best_energy < 0.0

    def test_morse_stable_non_certificate(self):
        scales = np.geomspace(0.1, 20.0, 12)
        cert = pot.numeric_instability_scan(MORSE_S, scales, resolution=32)
        assert not cert.found
        assert all(e >= cert.threshold for e in cert.energies)

    def test_negative_tolerance_gives_no_false_certificate(self):
        # a tolerance of -1 once lifted the threshold to 1.0, above every
        # energy, and certified a strictly stable potential as unstable
        assert MORSE_S.stability().classification == pot.STRICTLY_STABLE
        with pytest.raises(pot.PotentialError, match="tolerance"):
            pot.numeric_instability_scan(MORSE_S, np.geomspace(0.1, 20.0, 16),
                                         tolerance=-1)

    def test_unstable_verdicts_corroborated(self):
        # classify says Unstable with finite W_inf -> the scan certifies it
        for spec in (MORSE_U, pot.Morse(2, 1.0, 0.3, 2.0, 1.0),
                     *(spec for spec, _ in UNSTABLE_AT_THE_ORIGIN)):
            report = spec.stability()
            if report.classification != pot.UNSTABLE:
                continue
            cert = pot.numeric_instability_scan(spec, np.geomspace(0.1, 20.0, 12),
                                                resolution=32)
            assert cert.found
