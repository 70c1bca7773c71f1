"""The torsion solver of drinfeldlab.roots, and the generic dense root
finder of tests/torsion_oracle.py that the torsion tests compare it with."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drinfeldlab import roots
from drinfeldlab.cinf import INF, CInfApprox, FieldConfig
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.errors import (GridTooCoarse, IndeterminateValuation,
                                NoConvergence)

from torsion_oracle import (all_nonzero_roots, assert_torsion_matches,
                            hensel_root, newton_iterate, newton_polygon,
                            poly_eval, torsion_polynomial)


def test_polygon_examples(cfg_small):
    th, one = cfg_small.theta(), cfg_small.one()
    zero = cfg_small.zero(INF)
    # x^2 - theta: one segment, 2 roots of valuation -e/2
    np1 = newton_polygon([-th, zero, one])
    assert np1.segments == [(Fraction(9), 2)]
    assert np1.root_valuations() == [(Fraction(-9), 2)]
    # x - theta: a single root of valuation -1 (theta units)
    np2 = newton_polygon([-th, one])
    assert np2.theta_slopes(cfg_small.e) == [(Fraction(1), 1)]
    # theta + Y + Y^4: the ultrametric balance admits only |Y|^4 = |theta|,
    # giving one segment with 4 roots of valuation -e/4
    np3 = newton_polygon([th, one, zero, zero, one])
    assert np3.segments == [(Fraction(9, 2), 4)]


def test_polygon_sum_rule(cfg_small):
    # sum of root valuations = v(a_0 / a_deg) on a mixed example
    th, one, zero = cfg_small.theta(), cfg_small.one(), cfg_small.zero(INF)
    coeffs = [th * th, th, zero, one]
    np = newton_polygon(coeffs)
    total = sum(-s * l for s, l in np.segments)
    assert total == (th * th).valuation() - 0


def test_polygon_indeterminate_coefficient(cfg_small):
    th, one = cfg_small.theta(), cfg_small.one()
    # a coefficient that is zero only to low precision blocks the hull
    fuzzy = cfg_small.zero(prec=-50)
    with pytest.raises(IndeterminateValuation):
        newton_polygon([-th, fuzzy, one])
    # but a deeply-known zero does not
    ok = cfg_small.zero(prec=10 ** 6)
    np = newton_polygon([-th, ok, one])
    assert np.segments == [(Fraction(9), 2)]


def test_hensel_linear_and_sqrt(cfg_small):
    one, zero = cfg_small.one(), cfg_small.zero(INF)
    r = hensel_root([-cfg_small.theta(-1), one], cfg_small.zero(240))
    assert r.terms == {18: 1}
    # sqrt(1 + theta^-2) from seed 1; oracle: square the output
    target = one + cfg_small.theta(-2)
    r2 = hensel_root([-target, zero, one], one)
    assert (r2 * r2 - target).is_zero_to(cfg_small.pass_threshold())
    assert r2.terms[0] == 1 and r2.terms[36] == 2  # 1 + 2 th^-2 + ...


def test_hensel_criterion_failure(cfg_small):
    one, zero = cfg_small.one(), cfg_small.zero(INF)
    th = cfg_small.theta()
    # x^2 - theta from seed 1: |f| = |theta| > |f'|^2 = 1
    with pytest.raises(NoConvergence):
        hensel_root([-th, zero, one], one)


def test_all_roots_carlitz_torsion(cfg_small):
    th, zero, one = cfg_small.theta(), cfg_small.zero(INF), cfg_small.one()
    coeffs = [th, zero, one]  # theta + x^2
    roots = all_nonzero_roots(coeffs)
    assert len(roots) == 2
    for r in roots:
        assert r.valuation() == -9
        assert poly_eval(coeffs, r).vbound() >= cfg_small.pass_threshold()
    # the two roots are negatives of each other
    assert (roots[0] + roots[1]).is_zero_to(cfg_small.pass_threshold())


def test_all_roots_rank2_q3(ctx3):
    cfg = ctx3.cfg
    coeffs = torsion_polynomial(ctx3.module)
    points = roots.all_nonzero_roots(ctx3.module)
    assert len(points) == 8
    assert all(r.valuation() == -cfg.e // 8 for r in points)
    # sum of root valuations equals v(theta) (the polygon bookkeeping)
    assert sum(r.valuation() for r in points) == -cfg.e
    thr = cfg.pass_threshold()
    for r in points:
        assert poly_eval(coeffs, r).vbound() >= thr


def test_cluster_descent_q5_tame(ctx5):
    # theta + x^4 + x^24 over F_625 splits completely on the e = 600 grid
    points = roots.all_nonzero_roots(ctx5.module)
    assert len(points) == 24
    assert sum(r.valuation() for r in points) == -ctx5.cfg.e


def test_wild_module_partial_roots(ctx5w):
    with pytest.raises(GridTooCoarse):
        roots.all_nonzero_roots(ctx5w.module)
    points, failures = roots.partial_nonzero_roots(ctx5w.module)
    # the valuation-0 line (4 roots) is representable; the 20 wild ones fail
    assert len(points) == 4
    assert all(r.valuation() == 0 for r in points)
    assert len(failures) == 1
    assert failures[0]["error"] == "GridTooCoarse"
    assert failures[0]["length"] == 20


def test_hensel_with_polygon_seed(ctx3):
    # a torsion point of the rank-2 module from hensel_root directly: the
    # seed from the polygon residual satisfies the strict criterion here
    cfg = ctx3.cfg
    coeffs = torsion_polynomial(ctx3.module)
    np = newton_polygon(coeffs)
    (slope, length), = np.segments
    lam = int(slope)
    z = cfg.field.poly_roots([1] + [0] * 7 + [1])[0][0]  # z^8 = -1
    seed = cfg.monomial(-lam, z)
    root = hensel_root(coeffs, seed)
    assert poly_eval(coeffs, root).vbound() >= cfg.pass_threshold()
    assert ctx3.module.skew()(root).is_zero_to(cfg.pass_threshold())


def test_newton_stall_raises():
    # over F_3, x^2 + 1 has no root and x^3 - x - theta none on the grid:
    # the first Newton step does not raise v(f), which certifies nothing
    cfg = FieldConfig(3, 1, 1, e=18, prec=60)
    one, zero, th = cfg.one(), cfg.zero(INF), cfg.theta()
    for coeffs, v in (([one, zero, one], 0), ([-th, -one, zero, one], -54)):
        with pytest.raises(NoConvergence, match="stalled") as info:
            newton_iterate(coeffs, one, check_criterion=False)
        assert info.value.residual_valuation == v


# -- the torsion solver against the generic finder ----------------------------

# rel_prec = N (not 4N) keeps the roots short: the generic finder's Newton
# steps on roots of 4N digits take up to seconds each
_Q3 = FieldConfig(3, 1, 4, e=72, prec=240, rel_prec=240)


@st.composite
def _coefficient(draw, v):
    """A value of valuation v with up to two more terms, 9k grid units
    above it (so the roots' expansions stay sparse), exact or known to a
    drawn precision; with v None, zero to a drawn precision.  Leading
    coefficients are mostly in F_3, whose residual equations split in
    F_81."""
    code = st.one_of(st.integers(1, 2), st.integers(1, _Q3.field.size - 1))
    if v is None:
        return _Q3.zero(draw(st.integers(-150, 400)))
    terms = {v: draw(code)}
    for _ in range(draw(st.integers(0, 2))):
        terms[v + 9 * draw(st.integers(1, 16))] = draw(code)
    prec = draw(st.one_of(st.just(INF), st.integers(700, 1500)))
    return CInfApprox(_Q3, terms, prec)


@st.composite
def _q3_module(draw):
    """Rank 1, or rank 2 over the q3 grid with valuations from one of three
    shapes: one segment from (1, -e) to (9, v(u)), two segments of integer
    slopes (so the cluster descent runs), or any.

    Finite precisions are at least 700, which every torsion point the
    polygon predicts needs to certify.  Below that the generic finder
    reports other failures: it checks certification at the top level
    only."""
    shape = draw(st.sampled_from(["rank1", "one", "two", "any"]))
    if shape == "rank1":
        return DrinfeldModule(_Q3, 1)
    if shape == "one":
        s = draw(st.integers(-20, 30))
        vu = -72 + 8 * s
        # (3, v(kappa)) on or above the segment, or kappa zero
        vk = draw(st.one_of(st.none(),
                            st.integers(-72 + 2 * s, -72 + 2 * s + 200)))
    elif shape == "two":
        s1 = draw(st.integers(-20, 30))
        s2 = s1 + draw(st.integers(1, 30))
        vk = -72 + 2 * s1
        vu = vk + 6 * s2
    else:
        vk = draw(st.one_of(st.none(), st.integers(-250, 150)))
        vu = draw(st.integers(-150, 150))
    kappa = draw(_coefficient(vk))
    if vk is None and draw(st.booleans()):
        kappa = _Q3.zero(INF)
    return DrinfeldModule(_Q3, 2, kappa, draw(_coefficient(vu)))


def _exact_monomial_torsion():
    # rho_t(x) = theta x + theta x^3 + (theta^(1/4) + 2) x^9 has the exact
    # torsion points c theta^(1/8), c^2 = -1, each the seed of a triple
    # cluster c theta^(1/8) + F_3 a with v(a) = 0
    return DrinfeldModule(_Q3, 2, _Q3.theta(),
                          CInfApprox(_Q3, {-18: 1, 0: 2}))


@settings(max_examples=100, deadline=None)
@given(_q3_module())
@example(_exact_monomial_torsion())
def test_torsion_matches_generic_finder(rho):
    assert_torsion_matches(rho)


def test_exact_seed_is_a_torsion_point():
    # the cluster descent from x0 = c theta^(1/8) meets rho_t(x0) = 0
    # exactly: x0 is a root, h = 0, beside the two h = +-a
    rho = _exact_monomial_torsion()
    points = rho.torsion_points()
    assert len(points) == 8
    for c, _ in _Q3.field.poly_roots([1, 0, 1]):
        x0 = _Q3.monomial(-9, c)
        assert sum(x.terms == x0.terms and x.prec == INF
                   for x in points) == 1
    rho_t = rho.skew()
    for x in points:
        assert rho_t(x).vbound() - x.valuation() >= _Q3.pass_threshold()


@pytest.mark.parametrize("k", [1, 2])
def test_tame_cluster_resolves_to_the_known_torsion(k):
    # the torsion F_3 + F_3 r, r = theta^k - sum_i theta^(-3^i), of
    # rho_t = theta P(x)/c0 with P(x) = (x^3 - x)^3 - y^2 (x^3 - x) =
    # x^9 + c1 x^3 + c0 x and y = r^3 - r = theta^(3k) - theta^k + theta^-1:
    # the six large roots form two clusters r + F_3, b = 1, 2, whose
    # descent resolves on the grid, as in the generic finder
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    th = cfg.theta()
    y = cfg.theta(3 * k) - cfg.theta(k) + cfg.theta(-1)
    c0 = y * y
    rho = DrinfeldModule(cfg, 2, -(th * (cfg.one() + c0)) / c0, th / c0)
    assert_torsion_matches(rho)
    points, failures = roots.partial_nonzero_roots(rho)
    assert failures == [] and len(points) == 8
    r = CInfApprox(cfg, {-72 * k: 1, **{72 * 3 ** i: 2 for i in range(6)}})
    want = [r.scale(b) + cfg.from_int(a)
            for a in range(3) for b in range(3) if a or b]
    for x in points:
        assert x.prec >= cfg.pass_threshold()
        assert sum((x - w).vbound() >= x.prec for w in want) == 1


def test_seed_zero_to_precision_is_a_torsion_point():
    # rho_t = theta P(x)/D, P(x) = (x^3 - x)^3 - D (x^3 - x), D =
    # (theta^3 - theta)^2, has the torsion F_3 + F_3 theta, but kappa and u
    # are quotients known to 888 and 1320 only: the descent from the seed
    # b theta meets rho_t(b theta) = 0 to precision P = 672, so b theta is a
    # root known to P + e = 744 beside the two roots b theta +- 1
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    th = cfg.theta()
    d = (cfg.theta(3) - th) ** 2
    rho = DrinfeldModule(cfg, 2, -(th * (cfg.one() + d)) / d, th / d)
    assert (rho.kappa.prec, rho.u.prec) == (888, 1320)
    points, failures = roots.partial_nonzero_roots(rho)
    assert failures == [] and len(points) == 8
    want = [cfg.from_int(a) + th.scale(b)
            for a in range(3) for b in range(3) if a or b]
    rho_t = rho.skew()
    for x in points:
        assert sum((x - w).vbound() >= x.prec for w in want) == 1
        assert rho_t(x).vbound() >= cfg.pass_threshold()
    assert sorted(x.prec for x in points) == [744] * 6 + [960] * 2
    assert_torsion_matches(rho)


def test_seed_precision_must_clear_the_extended_first_edge():
    # rho_t(x0) + rho_t(h) over q3 with kappa = u = 1: the hull is the one
    # edge (1, -72)-(9, 0) of slope 9, whose line meets index 0 at -81; a
    # rho_t(x0) known to -81 could put (0, v) on the hull, one known to -80
    # cannot
    cfg = _Q3
    coeffs = {1: cfg.theta(), 3: cfg.one(), 9: cfg.one()}
    assert roots._segments({0: cfg.zero(-80), **coeffs}) == \
        [((1, -72), (9, 0))]
    with pytest.raises(IndeterminateValuation, match=r"rho_t\(x0\) .* -81"):
        roots._segments({0: cfg.zero(-81), **coeffs})


def test_uncertified_roots_are_failure_records():
    # u known to 0 only: the torsion point of valuation -9 would be cut at
    # 0 + 9 * (-9) + 72 = -9, below its own leading term; it is recorded as
    # uncertified instead of raising from its valuation
    rho = DrinfeldModule(_Q3, 2, _Q3.theta(), CInfApprox(_Q3, {-18: 1}, 0))
    points, failures = roots.partial_nonzero_roots(rho)
    assert points == []
    assert [(f["slope"], f["error"]) for f in failures] == \
        [("0", "NoConvergence"), ("9", "NoConvergence")]
    assert all("did not certify" in f["message"] for f in failures)


def test_normalize_multi_term_u_is_the_sorted_first_root():
    # u = 1 + theta^-1: u X^8 = 1 has eight roots of valuation 0, one per
    # residual class; normalize takes the smallest-code one
    cfg = _Q3
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one() + cfg.theta(-1))
    nu, x = rho.normalize()
    n = cfg.q ** 2 - 1
    f = [-cfg.one()] + [cfg.zero(INF)] * (n - 1) + [rho.u]
    want = sorted(all_nonzero_roots(f),
                  key=lambda r: (r.valuation(), r.leading()[1]))[0]
    assert x.terms == want.terms and x.prec == want.prec
    assert nu.is_normalized()
    assert (rho.u * x ** n - cfg.one()).is_zero_to(cfg.pass_threshold())
