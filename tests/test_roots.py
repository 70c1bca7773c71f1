from fractions import Fraction

import pytest

from drinfeldlab.cinf import INF, FieldConfig
from drinfeldlab.errors import (GridTooCoarse, IndeterminateValuation,
                                NoConvergence)
from drinfeldlab.roots import (all_nonzero_roots, hensel_root,
                               newton_iterate, newton_polygon,
                               partial_nonzero_roots, poly_eval)


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
    coeffs = ctx3.module.torsion_polynomial()
    roots = all_nonzero_roots(coeffs)
    assert len(roots) == 8
    assert all(r.valuation() == -cfg.e // 8 for r in roots)
    # sum of root valuations equals v(theta) (the polygon bookkeeping)
    assert sum(r.valuation() for r in roots) == -cfg.e
    thr = cfg.pass_threshold()
    for r in roots:
        assert poly_eval(coeffs, r).vbound() >= thr


def test_cluster_descent_q5_tame(ctx5):
    # theta + x^4 + x^24 over F_625 splits completely on the e = 600 grid
    coeffs = ctx5.module.torsion_polynomial()
    roots = all_nonzero_roots(coeffs)
    assert len(roots) == 24
    assert sum(r.valuation() for r in roots) == -ctx5.cfg.e


def test_wild_module_partial_roots(ctx5w):
    coeffs = ctx5w.module.torsion_polynomial()
    with pytest.raises(GridTooCoarse):
        all_nonzero_roots(coeffs)
    roots, failures = partial_nonzero_roots(coeffs)
    # the valuation-0 line (4 roots) is representable; the 20 wild ones fail
    assert len(roots) == 4
    assert all(r.valuation() == 0 for r in roots)
    assert len(failures) == 1
    assert failures[0]["error"] == "GridTooCoarse"
    assert failures[0]["length"] == 20


def test_hensel_with_polygon_seed(ctx3):
    # a torsion point of the rank-2 module from hensel_root directly: the
    # seed from the polygon residual satisfies the strict criterion here
    cfg = ctx3.cfg
    coeffs = ctx3.module.torsion_polynomial()
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
