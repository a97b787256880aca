import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairenergy import configuration as cfg
from pairenergy import diagnostics as diag
from pairenergy import potentials as pot

PL21 = pot.PowerLaw(2, 2.0, 1.0)
PL21_D1 = pot.PowerLaw(1, 2.0, 1.0)
PL3_SING = pot.PowerLaw(3, 2.0, -0.5)
MORSE_U = pot.Morse(2, 1.0, 0.5, 1.0, 1.0)
MORSE_S = pot.Morse(2, 5.0, 0.5, 1.0, 1.0)


def fd_gradient(spec, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (pot.evaluate(spec, x + e) - pot.evaluate(spec, x - e)) / (2 * h)
    return g


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

    def test_json_round_trip(self):
        for spec in (PL21, PL3_SING, MORSE_U):
            assert pot.potential_from_json(spec.to_json()) == spec
        with pytest.raises(pot.PotentialError):
            pot.potential_from_json({"kind": "power_law", "d": 2, "a": 2.0,
                                     "b": 1.0, "extra": 1})
        with pytest.raises(pot.PotentialError):
            pot.potential_from_json({"kind": "nope"})


class TestEval:
    def test_power_law_at_unit_radius(self):
        assert pot.evaluate(PL21, [1.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_singular_origin(self):
        assert pot.evaluate(PL3_SING, [0.0, 0.0, 0.0]) == math.inf
        assert pot.evaluate(pot.PowerLaw(4, 2.0, -1.0), [0.0] * 4) == math.inf

    def test_morse_origin(self):
        spec = pot.Morse(1, 1.0, 0.5, 1.0, 1.0)
        assert pot.evaluate(spec, [0.0]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for spec in (PL21, MORSE_U):
            xs = rng.normal(size=(1000, 2)) * 3
            for x in xs:
                assert pot.evaluate(spec, x) == pot.evaluate(spec, -x)

    def test_lower_bound(self):
        rng = np.random.default_rng(1)
        for spec in (PL21, MORSE_U, MORSE_S, PL3_SING):
            md = pot.metadata(spec)
            r = rng.uniform(1e-3, 10.0, size=10_000)
            vals = np.asarray(spec.radial(r))
            assert np.all(vals >= md.W_min - 1e-12)

    def test_monotone_beyond_r_w(self):
        rng = np.random.default_rng(2)
        for spec in (PL21, MORSE_U, MORSE_S):
            r_w = pot.metadata(spec).R_W
            lo = max(r_w, 1e-6)
            r1 = rng.uniform(lo, 10 * lo, size=200)
            r2 = r1 + rng.uniform(1e-3, 2.0, size=200)
            v1, v2 = np.asarray(spec.radial(r1)), np.asarray(spec.radial(r2))
            assert np.all(v1 < v2)


class TestGradient:
    def test_critical_at_unit_distance(self):
        g = pot.gradient(PL21, [1.0, 0.0])
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_power_law_at_two(self):
        # radial derivative r^{a-1} - r^{b-1} = r - 1 -> 1 at r = 2
        g = pot.gradient(PL21, [2.0, 0.0])
        assert np.allclose(g, fd_gradient(PL21, [2.0, 0.0]), rtol=1e-6)
        assert g == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_morse_example(self):
        spec = pot.Morse(2, 2.0, 1.0, 1.0, 2.0)
        g = pot.gradient(spec, [1.0, 0.0])
        expected = -2.0 * math.exp(-1.0) + 0.5 * math.exp(-0.5)
        assert g == pytest.approx([expected, 0.0], abs=1e-12)
        assert expected == pytest.approx(-0.4326, abs=2e-4)
        assert np.allclose(g, fd_gradient(spec, [1.0, 0.0]), rtol=1e-6, atol=1e-9)

    def test_errors_at_origin(self):
        with pytest.raises(pot.PotentialError):
            pot.gradient(PL21, [0.0, 0.0])

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(3)
        for spec in (PL21, MORSE_U, PL3_SING, pot.PowerLaw(1, 3.0, 0.5)):
            d = spec.dimension
            for _ in range(100):
                x = rng.normal(size=d)
                r = np.linalg.norm(x)
                if r < 1e-12:
                    continue
                x *= rng.uniform(0.1, 10.0) / r
                g = pot.gradient(spec, x)
                fd = fd_gradient(spec, x)
                scale = max(np.linalg.norm(fd), 1e-8)
                assert np.linalg.norm(g - fd) <= 1e-5 * scale


class TestMetadata:
    def test_power_law(self):
        md = pot.metadata(PL21)
        assert md.W_min == pytest.approx(1 / 2.0 - 1 / 1.0)
        assert md.W_inf == math.inf
        assert md.R_W == 1.0
        assert md.beta is None and not PL21.singular_at_origin

    def test_power_law_singular(self):
        md = pot.metadata(PL3_SING)
        assert PL3_SING.singular_at_origin
        assert md.beta == pytest.approx(2.5)

    def test_morse_unstable(self):
        md = pot.metadata(MORSE_U)
        # W' = e^{-r}(e^{-r} * -2 + 1): zero at r = ln 2
        assert md.R_W == pytest.approx(math.log(2), rel=1e-15)
        assert md.W_min == pytest.approx(-0.25, abs=1e-12)
        assert md.W_inf == 0.0

    def test_morse_stable(self):
        md = pot.metadata(MORSE_S)
        assert md.R_W == pytest.approx(math.log(10), rel=1e-15)
        assert md.W_min == pytest.approx(-0.05, abs=1e-12)

    def test_morse_monotone_from_origin(self):
        # C_a/l_a > C_r/l_r: increasing from r = 0
        md = pot.metadata(pot.Morse(2, 1.0, 1.0, 4.0, 2.0))
        assert md.R_W == 0.0
        assert md.W_min == pytest.approx(1.0 - 4.0)

    def test_morse_long_range_repulsion_has_no_r_w(self):
        # l_r > l_a: W decreases to 0 from above at infinity
        md = pot.metadata(pot.Morse(2, 1.0, 2.0, 1.0, 1.0))
        assert md.R_W == math.inf

    def test_morse_close_lengths(self):
        # l_a = 1.01 l_r puts the turning point at
        # ln(2.02) / (1 - 1/1.01) = 71.0128..., 70 times the length scales
        md = pot.metadata(pot.Morse(2, 2.0, 1.0, 1.0, 1.01))
        assert md.R_W == pytest.approx(71.01284865272439, rel=1e-12)
        assert md.W_min < 0.0

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
        md = pot.metadata(spec)
        assert (md.R_W == math.inf) == (l_r > l_a or (l_r == l_a and c_r > c_a))
        if l_r == l_a and c_r == c_a:  # W = 0, which keeps R_W = 0
            assert (md.R_W, md.W_min) == (0.0, 0.0)
            return

        def scaled_slope_sign(r):
            with localcontext() as ctx:
                ctx.prec = 50
                cr, lr, ca, la = map(Decimal, (c_r, l_r, c_a, l_a))
                v = ca / la - cr / lr * (-Decimal(r) * (1 / lr - 1 / la)).exp()
            return (v > 0) - (v < 0)

        span = 20.0 * max(l_r, l_a)
        if math.isinf(md.R_W):
            rs = np.linspace(0.0, span, 65)
        else:
            band = 1e-9 * max(1.0, md.R_W)
            near = np.geomspace(1e-8, 1.0, 17) * max(1.0, md.R_W)
            below = np.concatenate([np.linspace(0.0, md.R_W, 33)[:-1], md.R_W - near])
            below = below[below >= 0.0]
            above = md.R_W + np.concatenate([near[near <= span],
                                             np.linspace(0.0, span, 65)[1:]])
            assert all(scaled_slope_sign(r) < 0 for r in below if r < md.R_W - band)
            assert all(scaled_slope_sign(r) > 0 for r in above if r > md.R_W + band)
            rs = np.concatenate([below, [md.R_W], above])
        assert np.all(spec.radial(rs) >= md.W_min - 1e-12)


class TestApproximateLaplacian:
    def test_quadratic_kernel_gives_dimension(self):
        for d in (1, 2, 3):
            v = pot.approximate_laplacian(lambda r: r**2 / 2, np.zeros(d), 0.5, d=d)
            assert v == pytest.approx(d, rel=1e-12)

    def test_qmc_path_d4(self):
        # d >= 4 once took a quasi-Monte Carlo rule; it now takes the same
        # Gauss rule as d <= 3, which is exact on this kernel
        v = pot.approximate_laplacian(lambda r: r**2 / 2, np.zeros(4), 0.5, d=4)
        assert v == pytest.approx(4, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_exact_on_even_polynomials(self, d):
        # E|p|^2k = d/(d+2k) and E(z.p)^2 = |z|^2 E|p|^2/d for p uniform in
        # the unit ball give, with s = 2(d+2)/eps^2,
        #   s (avg |z+eps p|^2 - |z|^2) = 2d
        #   s (avg |z+eps p|^4 - |z|^4) = 4(d+2)|z|^2 + 2d(d+2) eps^2/(d+4)
        rng = np.random.default_rng(d)
        u = rng.normal(size=d)
        z = 1.3 * u / np.linalg.norm(u)
        for eps in (0.05, 0.4, 2.0):
            v2 = pot.approximate_laplacian(lambda r: r**2, z, eps)
            v4 = pot.approximate_laplacian(lambda r: r**4, z, eps)
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
        v = pot.approximate_laplacian(lambda r: np.full_like(r, 7.25),
                                      np.array([0.3, -0.2]), 0.1, d=2)
        assert v == 0.0

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
        assert pot.classify_stability(MORSE_U).classification == pot.UNSTABLE
        assert pot.classify_stability(MORSE_S).classification == pot.STRICTLY_STABLE
        assert pot.classify_stability(PL21).classification == pot.UNSTABLE

    def test_boundary_and_unordered_scales(self):
        boundary = pot.Morse(2, 4.0, 0.5, 1.0, 1.0)   # ratio == threshold
        assert pot.classify_stability(boundary).classification == pot.UNKNOWN
        swapped = pot.Morse(2, 1.0, 2.0, 1.0, 1.0)    # l_r >= l_a
        assert pot.classify_stability(swapped).classification == pot.UNKNOWN

    def test_margin_sign(self):
        assert pot.classify_stability(MORSE_U).margin > 0
        assert pot.classify_stability(MORSE_S).margin > 0


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

    def test_unstable_verdicts_corroborated(self):
        # classify says Unstable with finite W_inf -> the scan certifies it
        for spec in (MORSE_U, pot.Morse(2, 1.0, 0.3, 2.0, 1.0)):
            report = pot.classify_stability(spec)
            if report.classification != pot.UNSTABLE:
                continue
            cert = pot.numeric_instability_scan(spec, np.geomspace(0.1, 20.0, 12),
                                                resolution=32)
            assert cert.found
