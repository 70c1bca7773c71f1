import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab.agf import AndersonGF, _pole_sum
from drinfeldlab.cinf import INF, CInfApprox, FieldConfig, dot
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.errors import PoleHit
from drinfeldlab.tseries import TSeries
from pole_count import with_pole_count


def _series_from_poles(f, T):
    """The truncated t-series out of the partial fractions: coefficient j
    is sum_i n_i theta^(-q^i (j+1)) over the I poles, with the floor of
    the dropped ones.  It sums the same products as AndersonGF.series, so
    comparing the two compares the two truncations (the dual-representation
    oracle)."""
    cfg = f.cfg
    vu = f.u.vbound()
    out = []
    for j in range(T):
        acc = dot(cfg, [(n, cfg.theta(-(j + 1)).frobenius(i))
                        for i, n in enumerate(f.numerators)])
        # dropped pole i contributes alpha_i (u / theta^(j+1))^(q^i)
        floor = f.module._tail_floors("exp", [vu + (j + 1) * cfg.e],
                                      f.I - 1)[0]
        out.append(acc.truncate(min(acc.prec, floor)))
    return TSeries(cfg, out, tail=None)


def _gf(module, u, I):
    """The generating function of u with I poles: over module's twin with
    pole_count I."""
    return AndersonGF(with_pole_count(module, I), u)


@pytest.fixture(scope="module")
def f_inv_theta(ctx3):
    return _gf(ctx3.module, ctx3.cfg.theta(-1), 10)


def test_first_numerator_is_u(ctx3, f_inv_theta):
    assert (f_inv_theta.numerators[0] - ctx3.cfg.theta(-1)).is_exact_zero()


def test_residues(ctx3, f_inv_theta):
    u = ctx3.cfg.theta(-1)
    # the residue at theta^(q^i) is -numerators[i] = -alpha_i u^(q^i)
    assert (-f_inv_theta.numerators[0] + u).is_exact_zero()
    al = ctx3.module.exp_coeffs(1)
    assert (-f_inv_theta.numerators[1]
            + al[1] * u.frobenius(1)).is_zero_to(600)


def test_residue_limit_consistency(ctx3, f_inv_theta):
    # (theta^{q^i} - t) f(t) -> -residue as t -> theta^{q^i}; check at i = 0
    # via the partial-fraction form minus the singular term
    cfg = ctx3.cfg
    th = cfg.theta()
    # evaluate f - n_0/(theta - t) at t = theta: remaining terms are regular
    acc = cfg.zero(INF)
    for i in range(1, f_inv_theta.I):
        pole = th.frobenius(i)
        acc = acc + f_inv_theta.numerators[i] / (pole - th)
    assert not acc.is_apparent_zero()


def test_carlitz_period_coefficient(cfg_small):
    # first series coefficient of f_{pi}(t) is exp(pi/theta), a torsion point
    C = DrinfeldModule(cfg_small, 1)
    lat = C.periods()
    f = _gf(C, lat.omega1, 8)
    c0 = C.exp_eval(lat.omega1.shift(cfg_small.e))
    assert (C.skew()(c0)).is_zero_to(cfg_small.pass_threshold())
    assert (-f.numerators[0] + lat.omega1).is_zero_to(600)


def test_dual_representation(ctx3, f_inv_theta):
    T = 12
    A = f_inv_theta.series(T)
    B = _series_from_poles(f_inv_theta, T)
    thr = ctx3.cfg.pass_threshold()
    for j in range(T):
        assert (A.coeff(j) - B.coeff(j)).is_zero_to(thr), j


def test_pole_hit(ctx3, f_inv_theta):
    with pytest.raises(PoleHit):
        f_inv_theta.eval_twisted(0, ctx3.cfg.theta())
    # twisting by one moves the first pole to theta^q; theta is legal
    f_inv_theta.eval_twisted(1, ctx3.cfg.theta())


def test_twist_compatibility(ctx3, f_inv_theta):
    # inside |t| <= 1 the twisted partial fractions match the twisted series
    cfg = ctx3.cfg
    t0 = cfg.theta(-1)
    direct = f_inv_theta.eval_twisted(1, t0)
    via_series = f_inv_theta.series(24).twist(1).specialize(t0)
    assert (direct - via_series).is_zero_to(cfg.pass_threshold())


def test_tail_bound_oracle(ctx3):
    # dropping the last pole changes the value by at least the declared tail
    cfg = ctx3.cfg
    u = cfg.theta(-1)
    f10 = _gf(ctx3.module, u, 10)
    f9 = _gf(ctx3.module, u, 9)
    v10 = f10.eval_twisted(1, cfg.theta())
    v9 = f9.eval_twisted(1, cfg.theta())
    assert (v10 - v9).vbound() >= v9.prec


def test_functional_equation_zero(ctx3):
    z = _gf(ctx3.module, ctx3.cfg.zero(INF), 6)
    assert z.functional_equation_residual(8).is_zero_to(10 ** 9)
    assert z.specialization_residual().is_zero_to(10 ** 9)


def test_exp_of_zero_to_precision(ctx3):
    # u zero only to P = 500: exp(u) is zero to 500, as exp_eval gives it,
    # not the exact zero; so is the alpha of a log point on that lambda
    from drinfeldlab.logext import make_log_point
    rho, cfg = ctx3.module, ctx3.cfg
    for u in (cfg.zero(500), cfg.zero(INF)):
        got = AndersonGF(rho, u)._exp_u()
        want = rho.exp_eval(u)
        assert (got.terms, got.prec) == (want.terms, want.prec) == \
            ({}, u.prec)
        alpha = make_log_point(rho, lam=u).alpha
        assert (alpha.terms, alpha.prec) == ({}, u.prec)


@pytest.mark.parametrize("uname", ["torsion", "theta^-1", "omega1"])
def test_functional_equation_samples(ctx3, uname):
    cfg = ctx3.cfg
    thr = cfg.pass_threshold()
    u = {
        "torsion": lambda: ctx3.module.torsion_points()[0],
        "theta^-1": lambda: cfg.theta(-1),
        "omega1": lambda: ctx3.lattice.omega1,
    }[uname]()
    f = AndersonGF(ctx3.module, u)
    assert f.functional_equation_residual(24).is_zero_to(thr)
    assert f.specialization_residual().is_zero_to(thr)


def test_functional_equation_random(ctx3):
    # ten random u per module: the identity is a theorem; this certifies
    # the implementation
    import random
    rng = random.Random(31)
    cfg = ctx3.cfg
    thr = cfg.pass_threshold()
    for _ in range(10):
        u = cfg.monomial(rng.randrange(-2, 3) * 9,
                         rng.randrange(1, cfg.field.size))
        f = AndersonGF(ctx3.module, u)
        assert f.functional_equation_residual(8).is_zero_to(thr)


def test_carlitz_functional_equation(cfg_small):
    # rank-1 specialization: f^(1) = (t - theta) f + exp(u)
    C = DrinfeldModule(cfg_small, 1)
    f = _gf(C, cfg_small.theta(-1), 10)
    assert f.functional_equation_residual(12).is_zero_to(
        cfg_small.pass_threshold())


def test_specialization_at_period(ctx3):
    # kappa f^(1)(theta) + f^(2)(theta) = -omega for u = omega
    cfg = ctx3.cfg
    lat = ctx3.lattice
    f = AndersonGF(ctx3.module, lat.omega1)
    th = cfg.theta()
    val = ctx3.module.kappa * f.eval_twisted(1, th) \
        + ctx3.module.u * f.eval_twisted(2, th)
    assert (val + lat.omega1).is_zero_to(cfg.pass_threshold())


def test_first_twist_at_theta_is_quasi_period(ctx3):
    cfg = ctx3.cfg
    lam = ctx3.module.log_eval(cfg.theta(-1))
    f = AndersonGF(ctx3.module, lam)
    lhs = f.eval_twisted(1, cfg.theta())
    rhs = ctx3.module.quasi_period_eval(lam)
    assert (lhs - rhs).is_zero_to(cfg.pass_threshold())


def test_residue_limit_oracle(ctx3, f_inv_theta):
    # (theta^{q^i} - t) f(t) tends to -residue = n_i as t -> theta^{q^i};
    # evaluate at t0 = pole + theta^{-6} and compare to first order
    cfg = ctx3.cfg
    for i in (0, 1):
        pole = cfg.theta(1).frobenius(i)
        t0 = pole + cfg.theta(-6)
        val = (pole - t0) * f_inv_theta.eval_twisted(0, t0)
        diff = val - f_inv_theta.numerators[i]
        # remaining partial fractions contribute O(theta^{-6} / gap)
        assert diff.valuation() >= 6 * cfg.e - abs(pole.valuation())


_ORACLE_SCAN = 200


@pytest.mark.parametrize("ctx_name", ["ctx3", "ctx5", "ctx5w"])
@pytest.mark.parametrize("uname", ["theta^-1", "theta^3", "torsion",
                                   "theta^30"])
@pytest.mark.parametrize("I", [4, 10, 12])
def test_tail_floor_oracle(request, ctx_name, uname, I):
    # the pole-form values against a partial-fraction sum built here and a
    # brute-force minimum over 200 dropped poles: terms and precision agree
    ctx = request.getfixturevalue(ctx_name)
    cfg, mod = ctx.cfg, ctx.module
    q, e = cfg.q, cfg.e
    u = {
        "theta^-1": lambda: cfg.theta(-1),
        "theta^3": lambda: cfg.theta(3),
        "torsion": lambda: mod.torsion_points(partial=True)[0][0],
        "theta^30": lambda: cfg.theta(30),
    }[uname]()
    f = _gf(mod, u, I)
    alphas = mod.exp_coeffs(I - 1)
    nums = [alphas[i] * u.frobenius(i) for i in range(I)]
    ab = mod._coeff_vbounds("exp", I + _ORACLE_SCAN)
    vu = u.vbound()

    def brute(n, w):
        return min(q ** n * (ab[i] + q ** i * (vu + w))
                   for i in range(I, I + _ORACLE_SCAN))

    def assert_cut(got, ref, floor):
        want = ref.truncate(min(ref.prec, floor))
        assert got.terms == want.terms
        assert got.prec == want.prec

    th = cfg.theta()
    for n in (1, 2):
        ref = cfg.zero(INF)
        for i in range(I):
            ref = ref + nums[i].frobenius(n) / (cfg.theta(q ** (i + n)) - th)
        assert_cut(f.eval_twisted(n, th), ref, brute(n, e))
    T = 6
    series = _series_from_poles(f, T)
    for j in range(T):
        ref = cfg.zero(INF)
        for i in range(I):
            ref = ref + nums[i] * cfg.theta(-(j + 1) * q ** i)
        assert_cut(series.coeff(j), ref, brute(0, (j + 1) * e))


def _eval_twisted_generic(f, n, t0):
    """eval_twisted's sum with every denominator inverted on the spot."""
    cfg = f.cfg
    pairs = [(f.numerators[i].frobenius(n),
              (cfg.theta(1).frobenius(i + n) - t0).inverse())
             for i in range(f.I)]
    acc = dot(cfg, pairs)
    floor = cfg.q ** n * f.module._tail_floors(
        "exp", [f.u.vbound() + cfg.e], f.I - 1)[0]
    return acc.truncate(min(acc.prec, floor))


@pytest.mark.parametrize("name", ["ctx3", "ctx5"])
def test_eval_twisted_at_theta_uses_pole_table(name, request):
    ctx = request.getfixturevalue(name)
    cfg = ctx.cfg
    th = cfg.theta()
    lat = ctx.lattice
    for u in (lat.omega1, lat.omega2, cfg.theta(-1) + cfg.theta(-3)):
        f = AndersonGF(ctx.module, u)
        for n in (1, 2, 3):
            got = f.eval_twisted(n, th)
            want = _eval_twisted_generic(f, n, th)
            assert got.terms == want.terms and got.prec == want.prec
        with pytest.raises(PoleHit):
            f.eval_twisted(0, th)


# The series against the per-coefficient loop it replaced


def _series_reference(f, T):
    """series(T) as one exp_eval per coefficient, with the same tail."""
    cfg = f.cfg
    coeffs = [f.module.exp_eval(f.u.shift((j + 1) * cfg.e))
              for j in range(T)]
    if f.u.is_exact_zero():
        return TSeries(cfg, coeffs, tail=INF)
    vw = f.u.vbound() + (T + 1) * cfg.e
    return TSeries(cfg, coeffs,
                   tail=f.module._tail_floors("exp", [vw], -1)[0])


@pytest.mark.parametrize("name", ["ctx3", "ctx5", "ctx5w"])
def test_series_matches_per_coefficient_loop(name, request):
    ctx = request.getfixturevalue(name)
    cfg, mod = ctx.cfg, ctx.module
    us = [cfg.theta(-1), cfg.theta(3), cfg.theta(-1) + cfg.theta(-3),
          cfg.from_int(2), cfg.zero(INF), cfg.zero(5 * cfg.e),
          mod.torsion_points(partial=True)[0][0]]
    if not ctx.wild:
        om = ctx.lattice.omega1
        us += [om, ctx.lattice.omega2, om.truncate(om.valuation() + cfg.e)]
    for u in us:
        f = AndersonGF(mod, u)
        for T in (1, 5, 16, 24):
            got, want = f.series(T), _series_reference(f, T)
            assert got.tail == want.tail, (u, T)
            assert [(c.terms, c.prec) for c in got.coeffs] == \
                [(c.terms, c.prec) for c in want.coeffs], (u, T)


# f_lambda for lambda = log(theta^-1) on theta + tau + tau^2, q = 3,
# N = 1920: sha256 of the tail and of every coefficient's terms and
# precision, recorded from the per-coefficient loop
_SERIES_LOG_POINT = {
    16: "9d1aee8e8e8cb2a5c2967a942a2957c4"
        "2c5a1c1c3beb7f0b9bafc4d456e6944f",
    32: "2b0efa5a2b518274e18daf42eeaace8f"
        "3eb120a513de7d5dba4cb121a7978dc9",
}


def test_series_bytes_pinned_log_point():
    cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    f = AndersonGF(rho, rho.log_eval(cfg.theta(-1)))
    for T, want in _SERIES_LOG_POINT.items():
        s = f.series(T)
        got = hashlib.sha256(repr((s.tail, [(c.sorted_terms(), c.prec)
                                            for c in s.coeffs])).encode())
        assert got.hexdigest() == want, T


# -- dividing by theta^(q^k) - theta as a running sum --------------------------

_POLE_CFG = FieldConfig(3, 1, 2, e=18, prec=120)


def test_pole_inverses_are_all_ones_geometric_series():
    """1/(theta^Q - theta) = sum_j theta^(-Q - j(Q - 1)), every coefficient
    1: the series _pole_sum sums along, below each written precision."""
    cfg = _POLE_CFG
    for k in (1, 2, 3):
        inv = cfg.pole_inverse(k)
        Q = cfg.q ** k
        want = {}
        ex = Q * cfg.e
        while ex < inv.prec:
            want[ex] = 1
            ex += (Q - 1) * cfg.e
        assert inv.terms == want


def _pole_values():
    cfg = _POLE_CFG
    sparse = st.dictionaries(st.integers(-60, 200), st.integers(1, 8),
                             max_size=8)
    dense = st.builds(
        lambda lo, step, codes: {lo + step * i: c
                                 for i, c in enumerate(codes)},
        st.integers(-60, 60), st.sampled_from([1, 2, 9, 18]),
        st.lists(st.integers(0, 8), min_size=1, max_size=40))
    # exact values, finite precisions, exact zeros and zeros to precision
    return st.builds(lambda terms, prec: CInfApprox(cfg, terms, prec),
                     st.one_of(sparse, dense, st.just({})),
                     st.one_of(st.just(INF), st.integers(-60, 400)))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(parts=st.lists(st.tuples(_pole_values(), st.integers(1, 3)),
                      min_size=1, max_size=4),
       n=st.integers(0, 2))
def test_pole_sum_matches_dot_with_pole_inverses(parts, n):
    """The running sums give the terms and precision of the products of
    the twisted values with the written pole inverses, summed by dot."""
    cfg = _POLE_CFG
    got = _pole_sum(cfg, parts, n)
    want = dot(cfg, [(x.frobenius(n), cfg.pole_inverse(k))
                     for x, k in parts])
    assert (got.terms, got.prec) == (want.terms, want.prec)


# -- alpha_i u^(q^i), the numerators -----------------------------------------


def test_numerators_feed_the_series_ladder(ctx3):
    """A generating function's numerators are alpha_i u^(q^i), and its
    series, whose ladder cuts them for its shared rows, is what a module
    that never saw u gives."""
    cfg = ctx3.cfg
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    u = cfg.theta(-2)
    f = AndersonGF(rho, u)
    alphas = rho.exp_coeffs(f.I - 1)
    assert len(f.numerators) == f.I
    for i, x in enumerate(f.numerators):
        want = alphas[i] * u.frobenius(i)
        assert (x.terms, x.prec) == (want.terms, want.prec)
    fresh = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    got = f.series(16)
    want = fresh._exp_levels("exp", u, [(j + 1) * cfg.e for j in range(16)])
    assert [(c.terms, c.prec) for c in got.coeffs] == \
        [(c.terms, c.prec) for c in want]
