"""Pair sums across the 512-row blocks and 512 x 512 tiles of the pairs
module, against exactly rounded sums (math.fsum) of the same terms computed
one row at a time and against the row sums of the full kernel matrix."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairenergy import configuration as cfg
from pairenergy import diagnostics as diag
from pairenergy import measures as mea
from pairenergy import optimizer as opt
from pairenergy import pairs
from pairenergy import potentials as pot

MORSE_W0_1 = pot.Morse(2, 2.0, 0.5, 1.0, 1.0)   # W(0) = 1; FAMILIES have W(0) = 0
SINGULAR = pot.PowerLaw(3, 4.0, -0.5)           # b < 0 needs d >= 3
FAMILIES = {"morse": lambda d: pot.Morse(d, 1.0, 0.5, 1.0, 1.0),
            "power_law": lambda d: pot.PowerLaw(d, 2.0, 1.0)}

REL = 1e-12   # of the sum of the absolute values of the terms


def close(got, terms, scale=1.0):
    """got == scale * fsum(terms) up to REL * scale * fsum(|terms|)."""
    want = scale * math.fsum(terms)
    return abs(got - want) <= REL * scale * math.fsum(abs(t) for t in terms)


def row_terms(spec, pts, i):
    """(W terms, force terms (n-1, d), distances) of row i, self-pair excluded."""
    diff = np.delete(pts[i] - pts, i, axis=0)
    r = np.sqrt((diff * diff).sum(axis=1))
    w = np.asarray(spec.radial(r), dtype=float)
    safe = np.where(r == 0.0, 1.0, r)
    return w, (spec.radial_derivative(safe) / safe)[:, None] * diff, r


def spread_points(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, d)) * 0.5 * n ** (1.0 / d)


# d = 2 at every n; the other dimensions on both sides of the 512-row block edge
SUM_CASES = [(n, name, 2) for n in (511, 512, 513, 1100) for name in FAMILIES] \
    + [(n, name, d) for d in (1, 3, 5) for n in (511, 513) for name in FAMILIES]


@pytest.mark.parametrize("n, family, d", SUM_CASES,
                         ids=[f"{n}-{name}" + (f"-d{d}" if d != 2 else "")
                              for n, name, d in SUM_CASES])
def test_sums_across_row_blocks(n, family, d):
    spec = FAMILIES[family](d)
    pts = spread_points(n, d, n)
    X = cfg.Configuration(pts)
    energy = cfg.discrete_energy(spec, X)
    potentials = cfg.per_particle_potentials(spec, X)
    forces = cfg.per_particle_forces(spec, X)
    all_w, dists = [], []
    for i in range(n):
        w, f, r = row_terms(spec, pts, i)
        all_w.extend(w)
        dists.append(r)
        assert close(potentials[i], w, 1.0 / n)
        for k in range(d):
            assert close(forces[i, k], f[:, k], 1.0 / n)
    assert close(energy, all_w, 1.0 / (2.0 * n * n))
    dists = np.concatenate(dists)
    assert cfg.diameter(X) == pytest.approx(dists.max(), rel=REL)
    assert cfg.min_pair_distance(X) == pytest.approx(dists.min(), rel=REL)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_one_r2_rule(d):
    """distances, SelfBlock, diameter and min_pair_distance share their bits."""
    n = 600
    pts = spread_points(n, d, 30 + d)
    r = pairs.distances(pts, pts)
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(pairs.SelfBlock(pts).r[off], r[off])
    X = cfg.Configuration(pts)
    assert cfg.min_pair_distance(X) == r[off].min()
    assert cfg.diameter(X) == r.max()


def test_coincident_pair_in_different_blocks():
    n = 1100
    pts = spread_points(n, 2, 7)
    pts[600] = pts[0]
    X = cfg.Configuration(pts)
    all_w = []
    for i in range(n):
        all_w.extend(row_terms(MORSE_W0_1, pts, i)[0])
    assert close(cfg.discrete_energy(MORSE_W0_1, X), all_w, 1.0 / (2.0 * n * n))
    assert cfg.min_pair_distance(X) == 0.0
    with pytest.raises(cfg.ConfigurationError):
        cfg.per_particle_forces(MORSE_W0_1, X)

    pts3 = spread_points(n, 3, 8)
    pts3[600] = pts3[0]
    X3 = cfg.Configuration(pts3)
    assert cfg.discrete_energy(SINGULAR, X3) == math.inf
    p = cfg.per_particle_potentials(SINGULAR, X3)
    assert np.isinf(p[[0, 600]]).all() and np.isfinite(np.delete(p, [0, 600])).all()
    with pytest.raises(cfg.ConfigurationError):
        cfg.per_particle_forces(SINGULAR, X3)


def test_atomic_energy_unequal_weights_across_row_blocks():
    n = 600
    pts = spread_points(n, 2, 9)
    w = np.random.default_rng(10).uniform(0.5, 1.5, n)
    w /= w.sum()
    mu = mea.AtomicMeasure(pts, w)
    terms = []
    for i in range(n):
        r = np.sqrt(((pts[i] - pts) ** 2).sum(axis=1))
        terms.extend(w[i] * w * MORSE_W0_1.radial(r))
    assert close(mea.continuum_energy_atoms(MORSE_W0_1, mu), terms, 0.5)


def full_row_sums(pts, kernel):
    """Row sums of the full kernel matrix on pairs.distances, diagonal zeroed."""
    vals = np.asarray(kernel(pairs.distances(pts, pts)), dtype=float)
    np.fill_diagonal(vals, 0.0)
    return vals.sum(axis=1)


def per_particle_sums(spec, pts):
    """[(output, kernel, divisor)] for per_particle_potentials (the radial
    kernel, over N) and stationarity_check at eps = 1e-3 min distance (the
    ball kernel): each output is the row sums of its kernel over divisor."""
    X = cfg.Configuration(pts)
    eps = 1e-3 * cfg.min_pair_distance(X)

    def ball(r):
        return pot._ball_deviation(spec.radial, r, eps, spec.dimension)

    return [(cfg.per_particle_potentials(spec, X), spec.radial, X.n),
            (np.array(diag.stationarity_check(spec, X, eps).values), ball, 1)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 200, 512])
def test_one_tile_is_bitwise_the_full_row_sums(n, d):
    pts = spread_points(n, d, 40 + n + d)
    for got, kernel, divisor in per_particle_sums(FAMILIES["morse"](d), pts):
        assert np.array_equal(got, full_row_sums(pts, kernel) / divisor)


def assert_close_rows(got, want, pts, kernel, divisor):
    """|got - want| <= REL times the row sums of |kernel| over divisor."""
    scale = full_row_sums(pts, lambda r: np.abs(kernel(r))) / divisor
    assert np.all(np.abs(got - want) <= REL * scale)


@pytest.mark.parametrize("n, d", [(513, 2), (1100, 2), (513, 3)])
def test_tile_sums_match_the_full_row_sums(n, d):
    pts = spread_points(n, d, 50 + n + d)
    for got, kernel, divisor in per_particle_sums(FAMILIES["morse"](d), pts):
        assert_close_rows(got, full_row_sums(pts, kernel) / divisor, pts, kernel, divisor)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_per_particle_sums_permute_with_the_points(data):
    d = data.draw(st.integers(1, 3), label="d")
    n = data.draw(st.integers(2, 40), label="N")
    # distinct coordinates on a 0.01 grid: no two points closer than 0.01
    coords = data.draw(st.lists(st.integers(-400, 400), min_size=n * d,
                                max_size=n * d, unique=True), label="coords")
    pts = np.reshape(coords, (n, d)) / 100.0
    perm = list(data.draw(st.permutations(range(n)), label="perm"))
    spec = FAMILIES["morse"](d)
    moved = per_particle_sums(spec, pts[perm])
    for (got, kernel, divisor), (permuted, _, _) in zip(per_particle_sums(spec, pts), moved):
        assert_close_rows(permuted, got[perm], pts[perm], kernel, divisor)


def test_each_unordered_pair_is_evaluated_once():
    # N(N-1)/2 radial values for the potentials and for the energy, across
    # tiles too, and as many ball averages of 128 nodes plus their centre
    # values for one stationarity check in d = 2
    seen = []

    class Counting(pot.Morse):
        def radial(self, r):
            seen.append(np.size(r))
            return super().radial(r)

    n = 200
    spec = Counting(2, 1.0, 0.5, 1.0, 1.0)
    X = cfg.Configuration(spread_points(n, 2, 11))
    cfg.per_particle_potentials(spec, X)
    assert sum(seen) == n * (n - 1) // 2
    for m in (n, 1100):
        seen.clear()
        cfg.discrete_energy(spec, cfg.Configuration(spread_points(m, 2, 12)))
        assert sum(seen) == m * (m - 1) // 2
    seen.clear()
    diag.stationarity_check(spec, X, 1e-3 * cfg.min_pair_distance(X))
    assert sum(seen) == n * (n - 1) // 2 * 129


def test_energy_allocates_tiles_not_row_blocks():
    # a 512 x 3000 row block of differences and distances alone is 12 MiB per
    # array; the tiles of the energy stay within 16 MiB at N = 3000
    X = cfg.Configuration(spread_points(3000, 2, 13))
    tracemalloc.start()
    try:
        cfg.discrete_energy(FAMILIES["morse"](2), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_forces_above_the_solver_block_cap_are_refused_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a pair block was built")
    monkeypatch.setattr(pairs, "SelfBlock", never)
    X = cfg.Configuration(spread_points(2001, 2, 14))
    with pytest.raises(cfg.ConfigurationError,
                       match="a trial pair block of 2001 x 2001 cells is above the cap"):
        cfg.per_particle_forces(FAMILIES["morse"](2), X)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hessian_is_the_jacobian_of_the_forces(family, d):
    """H v against central differences of the forces along v, at an N = 30
    local minimum, where the solver takes its Newton steps."""
    spec, n = FAMILIES[family](d), 30
    opts = opt.OptimOpts(grad_tol=1e-6).resolved(spec)
    x0 = opt._sample_ball(np.random.default_rng(d), n, d, opts.init_radius)
    x = opt.minimize_local(spec, cfg.Configuration(x0), opts).best.points
    hess = pairs.SelfBlock(x).hessian(spec.radial_derivative, spec.radial_second)
    assert hess.shape == (n * d, n * d) and np.array_equal(hess, hess.T)
    h = 1e-6
    for v in np.random.default_rng(0).normal(size=(3, n, d)):
        plus, minus = (pairs.SelfBlock(x + t * v).forces(spec.radial_derivative)
                       for t in (h, -h))
        hv = hess @ v.ravel()
        fd = ((plus - minus) / (2 * h)).ravel()
        assert np.linalg.norm(hv - fd) <= 1e-8 * np.linalg.norm(hv)
