import itertools
import json
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeldlab import roots
from drinfeldlab.agf import AndersonGF
from drinfeldlab.cinf import CInfApprox, FieldConfig, INF, dot
from drinfeldlab.drinfeld import (Biderivation, DrinfeldModule, Lattice,
                                  compose_qlinear, verify_morphism)
from drinfeldlab.encoding import decode_module, encode_cinf, encode_module
from drinfeldlab.errors import (ConfigError, DivergentEvaluation,
                                DrinfeldLabError, IndependenceFailure,
                                NoConvergence, ResidueFieldTooSmall)
from drinfeldlab.logext import make_log_point
from drinfeldlab.skew import SkewPoly

import qlinear_oracle
import torsion_oracle


@pytest.fixture(scope="module")
def carlitz(cfg_small):
    return DrinfeldModule(cfg_small, 1)


def test_exp_coefficient_recursion(carlitz, cfg_small):
    th = cfg_small.theta()
    al = carlitz.exp_coeffs(4)
    assert (al[0] - cfg_small.one()).is_exact_zero()
    a1 = cfg_small.one() / (th.frobenius(1) - th)
    assert (al[1] - a1).is_zero_to(600)


def test_coefficient_recursions_match_division_form(ctx3, ctx5):
    # the pole table replaces a division by theta^(q^i) - theta in each
    # recursion; the values are those of the division
    for ctx in (ctx3, ctx5):
        cfg = ctx.cfg
        th = cfg.theta()
        for rho in (ctx.module, DrinfeldModule(
                cfg, 2, CInfApprox(cfg, {-cfg.e: 1, 5: 2}, 400),
                cfg.theta(2) + cfg.one())):
            al, be = rho.exp_coeffs(8), rho.log_coeffs(8)
            qp = rho.quasi_period_coeffs(Biderivation.tau(cfg), 8)
            ra, rb, rq = [cfg.one()], [cfg.one()], [cfg.zero(INF)]
            for i in range(1, 9):
                den = th.frobenius(i) - th
                pa = [(rho.kappa, ra[i - 1].frobenius(1))]
                pb = [(rb[i - 1], rho.kappa.frobenius(i - 1))]
                if i >= 2:
                    pa.append((rho.u, ra[i - 2].frobenius(2)))
                    pb.append((rb[i - 2], rho.u.frobenius(i - 2)))
                ra.append(dot(cfg, pa) / den)
                rb.append(dot(cfg, pb) / (th - th.frobenius(i)))
                rq.append(ra[i - 1].frobenius(1) / den)
            for got, want in zip(al + be + qp, ra + rb + rq):
                assert got.terms == want.terms and got.prec == want.prec


def test_exp_functional_equation_series(ctx3, cfg_small):
    # alpha_i theta^{q^i} = theta alpha_i + kappa alpha_{i-1}^q + u alpha_{i-2}^{q^2}
    for module in (DrinfeldModule(cfg_small, 1), ctx3.module):
        cfg = module.cfg
        th = cfg.theta()
        al = module.exp_coeffs(6)
        for i in range(1, 7):
            rhs = th * al[i] + module.kappa * al[i - 1].frobenius(1)
            if i >= 2:
                rhs = rhs + module.u * al[i - 2].frobenius(2)
            assert (al[i] * th.frobenius(i) - rhs).is_zero_to(192), i


def test_exp_functional_equation_random_modules():
    # random rank-2 modules over q in {3, 5} with constant coefficients
    rng = random.Random(21)
    for p in (3, 5):
        cfg = FieldConfig(p, 1, 2, prec=240)
        for _ in range(3):
            kappa = cfg.from_coeff(rng.randrange(cfg.field.size))
            u = cfg.from_coeff(rng.randrange(1, cfg.field.size))
            rho = DrinfeldModule(cfg, 2, kappa, u)
            th = cfg.theta()
            al = rho.exp_coeffs(5)
            for i in range(1, 6):
                rhs = th * al[i] + rho.kappa * al[i - 1].frobenius(1)
                if i >= 2:
                    rhs = rhs + rho.u * al[i - 2].frobenius(2)
                assert (al[i] * th.frobenius(i) - rhs).is_zero_to(192)


def test_rank2_alpha2_formula(ctx3):
    cfg = ctx3.cfg
    al = ctx3.module.exp_coeffs(2)
    ref = (ctx3.module.kappa * al[1].frobenius(1) + ctx3.module.u) \
        / (cfg.theta().frobenius(2) - cfg.theta())
    assert (al[2] - ref).is_zero_to(600)


def test_log_coefficients(carlitz, cfg_small):
    al = carlitz.exp_coeffs(3)
    be = carlitz.log_coeffs(3)
    assert (be[0] - cfg_small.one()).is_exact_zero()
    assert (be[1] + al[1]).is_zero_to(600)
    # beta_2 certified by the composition oracle exp(log z) = z
    comp = compose_qlinear(al, be, 2)
    assert comp[2].is_zero_to(192)


def test_exp_log_round_trip(ctx3):
    cfg = ctx3.cfg
    rho = ctx3.module
    for z in (cfg.theta(-1), cfg.one() + cfg.theta(-2), cfg.from_int(2)):
        w = rho.exp_eval(z)
        assert (rho.log_eval(w) - z).is_zero_to(cfg.pass_threshold())


def test_exp_is_fq_linear(ctx3):
    cfg = ctx3.cfg
    rho = ctx3.module
    z1, z2 = cfg.theta(-1), cfg.one() + cfg.theta(-3)
    lhs = rho.exp_eval(z1 + z2)
    rhs = rho.exp_eval(z1) + rho.exp_eval(z2)
    assert (lhs - rhs).is_zero_to(cfg.pass_threshold())
    for c in cfg.field.base_field_elements():
        d = rho.exp_eval(z1.scale(c)) - rho.exp_eval(z1).scale(c)
        assert d.is_zero_to(cfg.pass_threshold())


def test_exp_eval_at_zero(ctx3):
    assert ctx3.module.exp_eval(ctx3.cfg.zero(INF)).is_exact_zero()


def test_log_divergence_outside_disc(carlitz, cfg_small):
    # the Carlitz period is a nonzero kernel element; exp is q-to-1 around
    # it and the logarithm certificate must refuse such arguments
    lat = carlitz.periods()
    with pytest.raises(DivergentEvaluation):
        carlitz.log_eval(cfg_small.theta(2))
    assert lat.omega1.valuation() == -27


def test_torsion_points_satisfy_action(ctx3):
    rho = ctx3.module
    pts = rho.torsion_points()
    assert len(pts) == 8
    thr = ctx3.cfg.pass_threshold()
    action = rho.skew()
    for x in pts:
        assert action(x).is_zero_to(thr)


def test_torsion_carlitz_sqrt(carlitz, cfg_small):
    pts = carlitz.torsion_points()
    assert len(pts) == 2
    # x = +-(-theta)^(1/2): squaring gives -theta
    for x in pts:
        assert (x * x + cfg_small.theta()).is_zero_to(600)


def test_periods_kernel_and_stability(ctx3):
    cfg = ctx3.cfg
    rho = ctx3.module
    lat = ctx3.lattice
    thr = cfg.pass_threshold()
    for om in lat.basis():
        assert rho.exp_eval(om).vbound() >= thr
    comb = lat.omega1 + cfg.theta() * lat.omega2
    assert rho.exp_eval(comb).vbound() >= thr
    # periodicity
    z = cfg.theta(-1)
    d = rho.exp_eval(z + lat.omega2) - rho.exp_eval(z)
    assert d.vbound() >= thr


def test_quasi_period_inner_biderivation(ctx3):
    rho = ctx3.module
    d1 = Biderivation.inner_one(rho)
    qp = rho.quasi_period_coeffs(d1, 6)
    al = rho.exp_coeffs(6)
    for i in range(1, 7):
        assert (qp[i] + al[i]).is_zero_to(192)
    # F_{delta^(1)}(omega) = omega for periods
    lat = ctx3.lattice
    v = rho.quasi_period_eval(lat.omega1, delta=d1, lattice=lat)
    assert (v - lat.omega1).is_zero_to(ctx3.cfg.pass_threshold())


def test_quasi_period_tau_first_coefficient(ctx3):
    cfg = ctx3.cfg
    c = ctx3.module.quasi_period_coeffs(Biderivation.tau(cfg), 1)
    ref = cfg.one() / (cfg.theta().frobenius(1) - cfg.theta())
    assert (c[1] - ref).is_zero_to(600)


def test_quasi_period_zero_delta(ctx3):
    cfg = ctx3.cfg
    zero_delta = Biderivation(SkewPoly(cfg, [cfg.zero(INF)]))
    assert zero_delta.is_zero()
    qp = ctx3.module.quasi_period_coeffs(zero_delta, 4)
    assert all(c.is_exact_zero() for c in qp)
    assert ctx3.module.quasi_period_eval(
        cfg.theta(-1), delta=zero_delta).is_exact_zero()


def test_quasi_period_functional_equation(ctx3):
    cfg = ctx3.cfg
    rho = ctx3.module
    dt = Biderivation.tau(cfg)
    for z in (cfg.theta(-1), cfg.one()):
        lhs = rho.quasi_period_eval(cfg.theta() * z) \
            - cfg.theta() * rho.quasi_period_eval(z)
        rhs = dt.delta_t(rho.exp_eval(z))
        assert (lhs - rhs).is_zero_to(cfg.pass_threshold())


def test_biderivation_requires_zero_constant(cfg_small):
    with pytest.raises(ConfigError):
        Biderivation(SkewPoly.from_list(cfg_small, [1, 1]))


def test_normalize_trivial(ctx3):
    nu, x = ctx3.module.normalize()
    assert nu is ctx3.module
    assert (x - ctx3.cfg.one()).is_exact_zero()


def test_normalize_constant_u(ctx3):
    # u = -1 over F_81: x^8 = -1 has eight roots there
    cfg = ctx3.cfg
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.from_int(-1))
    nu, x = rho.normalize()
    assert nu.is_normalized()
    assert (rho.u * x ** (cfg.q ** 2 - 1) - cfg.one()).is_zero_to(600)
    # kappa transforms by x^(q-1)
    assert (nu.kappa - rho.kappa * x ** (cfg.q - 1)).is_zero_to(600)


def test_normalize_theta_u(ctx3):
    # u = theta^8: x = theta^{-1} exactly (8 = q^2 - 1)
    cfg = ctx3.cfg
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.theta(8))
    nu, x = rho.normalize()
    assert (x - cfg.theta(-1)).is_exact_zero()
    # exp conjugation identity coefficientwise to depth 4:
    # alpha_i(nu) = alpha_i(rho) x^(q^i - 1)
    al_rho = rho.exp_coeffs(4)
    al_nu = nu.exp_coeffs(4)
    for i in range(5):
        ref = al_rho[i] * x ** (cfg.q ** i - 1)
        assert (al_nu[i] - ref).is_zero_to(cfg.pass_threshold()), i


def test_normalize_unrepresentable_root(cfg_small):
    # u = i in F_9: 1/u has multiplicative order 4, so x^8 = 1/u needs an
    # element of order 32, far beyond F_9
    cfg = cfg_small
    i9 = [z for z in range(9)
          if cfg.field.mul(z, z) == cfg.field.neg(1)][0]
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.from_coeff(i9))
    with pytest.raises(ResidueFieldTooSmall):
        rho.normalize()


def test_morphism_cm_example(cfg_small):
    cfg = cfg_small
    cm = DrinfeldModule(cfg, 2, 0, 1)
    c = next(code for code in range(2, 9)
             if not cfg.field.in_base_field(code))
    rep = verify_morphism(SkewPoly(cfg, [cfg.from_coeff(c)]), cm)
    assert rep["is_morphism"] and rep["adjoint_ok"]


def test_morphism_negative_and_identity(ctx3):
    rho = ctx3.module
    cfg = ctx3.cfg
    assert not verify_morphism(SkewPoly.from_list(cfg, [0, 1]),
                               rho)["is_morphism"]
    assert verify_morphism(SkewPoly.from_list(cfg, [1]),
                           rho)["is_morphism"]


def test_rank_validation(cfg_small):
    with pytest.raises(ConfigError):
        DrinfeldModule(cfg_small, 3)
    with pytest.raises(ConfigError):
        DrinfeldModule(cfg_small, 2, 1, 0)
    with pytest.raises(ConfigError):
        DrinfeldModule(cfg_small, 1, kappa=1)


def test_normalize_quasi_period_conjugation(ctx3):
    # F(z) = x^q F_nu(x^{-1} z) relates the quasi-periodic functions of a
    # module and its normalized form
    cfg = ctx3.cfg
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.theta(8))
    nu, x = rho.normalize()
    z = cfg.theta(-1)
    lhs = rho.quasi_period_eval(z)
    rhs = (x ** cfg.q) * nu.quasi_period_eval(z / x)
    assert (lhs - rhs).is_zero_to(cfg.pass_threshold())
    # and exp_rho(z) = x exp_nu(x^{-1} z) at the same point
    lhs2 = rho.exp_eval(z)
    rhs2 = x * nu.exp_eval(z / x)
    assert (lhs2 - rhs2).is_zero_to(cfg.pass_threshold())


def test_periods_reject_dependent_seeds(ctx3):
    from drinfeldlab.errors import IndependenceFailure
    pts = ctx3.module.torsion_points()
    x = pts[0]
    with pytest.raises(IndependenceFailure):
        ctx3.module.periods(seeds=[x, x.scale(2)])


def _run_in_threads(work, count=4):
    """work() in count threads at a tiny switch interval; their results."""
    results = []
    threads = [threading.Thread(target=lambda: results.append(work()))
               for _ in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == count
    return results


def test_coefficient_tables_thread_safe(ctx3):
    """Threads extending one module's lazy tables agree with a serial run."""
    cfg, kappa, u = ctx3.cfg, ctx3.module.kappa, ctx3.module.u
    serial = DrinfeldModule(cfg, 2, kappa, u)
    want = (serial.exp_coeffs(12), serial.log_coeffs(12))
    shared = DrinfeldModule(cfg, 2, kappa, u)
    results = _run_in_threads(
        lambda: (shared.exp_coeffs(12), shared.log_coeffs(12)))
    results.append((shared.exp_coeffs(12), shared.log_coeffs(12)))
    for got in results:
        for got_table, want_table in zip(got, want):
            assert [(c.terms, c.prec) for c in got_table] == \
                [(c.terms, c.prec) for c in want_table]


def _count_twisted_evals(monkeypatch):
    calls = []
    eval_twisted = AndersonGF.eval_twisted

    def counted(self, n, t0):
        calls.append(n)
        return eval_twisted(self, n, t0)

    monkeypatch.setattr(AndersonGF, "eval_twisted", counted)
    return calls


def test_twisted_pair_at_theta_memoized(ctx3, monkeypatch):
    """The pair at theta is evaluated once per generating function."""
    lam = ctx3.cfg.theta(-1)
    calls = _count_twisted_evals(monkeypatch)
    f = AndersonGF(ctx3.module, lam)
    first = f.twisted_pair_at_theta()
    assert calls == [1, 2]
    second = f.twisted_pair_at_theta()
    assert calls == [1, 2]
    # a fresh generating function evaluates it again, to the same values
    fresh = AndersonGF(ctx3.module, lam).twisted_pair_at_theta()
    assert calls == [1, 2, 1, 2]
    for pair in (second, fresh):
        assert [(x.terms, x.prec) for x in pair] == \
            [(x.terms, x.prec) for x in first]


def test_twisted_pair_at_theta_thread_safe(ctx3):
    """Threads reading one generating function's pair agree with a serial
    run."""
    lam = ctx3.cfg.theta(-2)
    want = AndersonGF(ctx3.module, lam).twisted_pair_at_theta()
    shared = AndersonGF(ctx3.module, lam)
    results = _run_in_threads(shared.twisted_pair_at_theta)
    for got in results:
        assert [(x.terms, x.prec) for x in got] == \
            [(x.terms, x.prec) for x in want]


def _fresh(ctx):
    rho = ctx.module
    return DrinfeldModule(ctx.cfg, rho.rank, rho.kappa, rho.u)


def _encoded(values):
    return [encode_cinf(x) for x in values]


def _count_exp_evals(monkeypatch):
    # every exp evaluation, exp_eval's and the quasi-period sum's included,
    # is planned by the shared ladder planner; the log and additive-step
    # sums it also plans are not counted
    calls = []
    plan = DrinfeldModule._ladder_plan

    def counted(self, kind, z, levels, precs):
        if kind == "exp":
            calls.append((z, levels))
        return plan(self, kind, z, levels, precs)

    monkeypatch.setattr(DrinfeldModule, "_ladder_plan", counted)
    return calls


def test_torsion_points_memoized(ctx3, ctx5w):
    rho = _fresh(ctx3)
    first = rho.torsion_points()
    want = _encoded(first)
    first.reverse()
    first.pop()
    assert _encoded(rho.torsion_points()) == want
    # the partial form is memoized separately; its failure records too
    wild = _fresh(ctx5w)
    pts, failures = wild.torsion_points(partial=True)
    want_pts, want_failures = _encoded(pts), [dict(f) for f in failures]
    assert want_failures
    pts.clear()
    failures[0]["slope"] = "changed"
    failures.append({})
    pts, failures = wild.torsion_points(partial=True)
    assert _encoded(pts) == want_pts and failures == want_failures


def test_periods_memoized(ctx3, monkeypatch):
    rho = _fresh(ctx3)
    lat = rho.periods()
    assert rho.periods() is lat
    assert _encoded(lat.basis()) == _encoded(ctx3.lattice.basis())
    # explicit seeds build a new lattice each time
    assert rho.periods(seeds=rho.lattice_seeds()) is not lat
    # a failed build is not cached
    failing = _fresh(ctx3)
    monkeypatch.setattr(DrinfeldModule, "legendre_bracket",
                        lambda self, lattice: self.cfg.zero(INF))
    with pytest.raises(IndependenceFailure):
        failing.periods()
    monkeypatch.undo()
    assert _encoded(failing.periods().basis()) == _encoded(lat.basis())


def test_quasi_period_memoized(ctx3, monkeypatch):
    cfg = ctx3.cfg
    rho = _fresh(ctx3)
    lat = rho.periods()
    # the reference towers have never been asked for F
    ref = _fresh(ctx3)
    towers = [ref.period_from_seed(s) for s in ref.lattice_seeds()]
    ref_lat = Lattice(towers[0].omega, towers[1].omega, towers)
    calls = _count_exp_evals(monkeypatch)
    for om, ref_om in zip(lat.basis(), ref_lat.basis()):
        got = rho.quasi_period_eval(om, lattice=lat)
        del calls[:]
        want = ref.quasi_period_eval(ref_om, lattice=ref_lat)
        assert calls and got.terms == want.terms and got.prec == want.prec
        del calls[:]
        assert rho.quasi_period_eval(om, lattice=lat) is got
        assert not calls
    # a scaled period and an explicit delta are computed, not served
    om = lat.omega1
    memo = rho.quasi_period_eval(om, lattice=lat)
    scaled = rho.quasi_period_eval(om.scale(2), lattice=lat)
    assert calls and scaled is not memo
    assert (scaled - memo.scale(2)).is_zero_to(cfg.pass_threshold())
    del calls[:]
    explicit = rho.quasi_period_eval(om, delta=Biderivation.tau(cfg),
                                     lattice=lat)
    assert calls and explicit is not memo
    assert explicit.terms == memo.terms and explicit.prec == memo.prec
    inner = rho.quasi_period_eval(om, delta=Biderivation.inner_one(rho),
                                  lattice=lat)
    assert (inner - om).is_zero_to(cfg.pass_threshold())
    assert rho.quasi_period_eval(om, lattice=lat) is memo


def test_memoized_values_thread_safe(ctx3):
    """Threads sharing one fresh module get the values of a serial run."""

    def derived(rho):
        lat = rho.periods()
        return (_encoded(rho.torsion_points()),
                _encoded(rho.torsion_points(partial=True)[0]),
                _encoded(lat.basis()),
                _encoded(rho.quasi_period_eval(om, lattice=lat)
                         for om in lat.basis()))

    want = derived(_fresh(ctx3))
    shared = _fresh(ctx3)
    assert all(got == want
               for got in _run_in_threads(lambda: derived(shared)))


def _uncapped_sum(module, kind, z):
    """The reference evaluation: every term of the truncated series in
    full, cut at the certified precision afterwards."""
    cfg = module.cfg
    depth = cfg.exp_depth
    table = module.exp_coeffs if kind == "exp" else module.log_coeffs
    acc = cfg.zero(INF)
    for i, c in enumerate(table(depth)):
        acc = acc + c * z.frobenius(i)
    floor = module._tail_floors(kind, [z.valuation()], depth)[0]
    return acc.truncate(min(acc.prec, floor))


def _eval_arguments(cfg, rng, count=12):
    """theta-monomials, small sums and seeded random values, some of them
    with finite precision."""
    size = cfg.field.size
    args = [cfg.theta(k) for k in (2, 1, 0, -1, -3)]
    args += [cfg.one() + cfg.theta(-2), cfg.from_int(2)]
    for _ in range(count):
        v = rng.randrange(-2 * cfg.e, 4 * cfg.e)
        terms = {v + rng.randrange(3 * cfg.e): rng.randrange(1, size)
                 for _ in range(rng.randrange(1, 6))}
        terms[v] = rng.randrange(1, size)
        prec = rng.choice([INF, v + 1 + rng.randrange(cfg.rel_prec)])
        args.append(CInfApprox(cfg, terms, prec))
    return args


def _assert_sums_match(module, args):
    """exp_eval/log_eval equal the uncapped sums in terms and precision;
    returns how many logarithms were compared."""
    logs = 0
    for z in args:
        for kind, evaluate in (("exp", module.exp_eval),
                               ("log", module.log_eval)):
            if kind == "log":
                if not module.log_certificate(z):
                    continue
                logs += 1
            got, want = evaluate(z), _uncapped_sum(module, kind, z)
            assert got.terms == want.terms, (kind, z)
            assert got.prec == want.prec, (kind, z)
    return logs


@pytest.mark.parametrize("sample", ["ctx3", "ctx5"])
def test_exp_log_sums_match_uncapped(sample, request):
    ctx = request.getfixturevalue(sample)
    cfg = ctx.cfg
    rng = random.Random(41)
    args = _eval_arguments(cfg, rng)
    # periods, their division towers and the quasi-period arguments
    for tower in ctx.lattice.towers:
        om = tower.omega
        args += [om, om.truncate(om.valuation() + cfg.prec)] + tower.chain
        args += [om / cfg.theta(j) for j in range(1, 4)]
    assert _assert_sums_match(ctx.module, args) >= 10
    assert _assert_sums_match(ctx.carlitz, _eval_arguments(cfg, rng)) >= 5


@pytest.mark.slow
def test_exp_log_sums_match_uncapped_deep():
    cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    args = _eval_arguments(cfg, random.Random(43), count=4)
    args.append(rho.torsion_points()[0])
    assert _assert_sums_match(rho, args) >= 3


def _vbounds_reference(module, kind, upto):
    """The valuation bound recursion of _coeff_vbounds, from scratch."""
    cfg = module.cfg
    q, e = cfg.q, cfg.e
    kappa, u = module.kappa, module.u
    vk = INF if kappa.is_apparent_zero() else kappa.valuation()
    vu = INF if u.is_apparent_zero() else u.valuation()
    out = [0]
    for i in range(1, upto + 1):
        if kind == "exp":
            c1 = vk + q * out[i - 1]
            c2 = vu + q * q * out[i - 2] if i >= 2 else INF
        else:
            c1 = out[i - 1] + q ** (i - 1) * vk
            c2 = out[i - 2] + q ** (i - 2) * vu if i >= 2 else INF
        out.append(min(c1, c2) + q ** i * e)
    return out


_VBOUND_LENGTHS = (0, 1, 5, 3, 40, 12, 76, 80)


def test_coeff_vbounds_cache(ctx3, ctx5w, cfg_small):
    modules = [_fresh(ctx3), _fresh(ctx5w), DrinfeldModule(cfg_small, 1),
               DrinfeldModule(cfg_small, 2, 0, cfg_small.theta(-1))]
    for rho in modules:
        for kind in ("exp", "log"):
            for upto in _VBOUND_LENGTHS:
                got = rho._coeff_vbounds(kind, upto)
                assert got == _vbounds_reference(rho, kind, upto)
                # a caller's copy does not reach the cache
                got.append(-1)
                got[0] = -1
            assert rho._coeff_vbounds(kind, 80) == \
                _vbounds_reference(rho, kind, 80)


def test_coeff_vbounds_cache_thread_safe(ctx3):
    shared = _fresh(ctx3)

    def grow():
        return [shared._coeff_vbounds(kind, upto)
                for upto in _VBOUND_LENGTHS for kind in ("exp", "log")]

    want = [_vbounds_reference(shared, kind, upto)
            for upto in _VBOUND_LENGTHS for kind in ("exp", "log")]
    results = _run_in_threads(grow)
    results.append(grow())
    assert all(got == want for got in results)


# Torsion from the additive step against the generic Newton solver


def _sample_module(cfg, kappa, u):
    """kappa and u given as None (meaning 1), an int or a function of cfg."""
    def value(c):
        if c is None:
            return cfg.one()
        return c(cfg) if callable(c) else c
    return DrinfeldModule(cfg, 2, value(kappa), value(u))


def _q3_module(prec, kappa=None, u=None):
    return _sample_module(FieldConfig(3, 1, 4, e=72, prec=prec), kappa, u)


def _q5_module(prec, kappa=None):
    return _sample_module(FieldConfig(5, 1, 4, e=600, prec=prec), kappa, None)


def _with_coeff_prec(rho, **precs):
    """rho decoded from its descriptor after giving kappa or u the stated
    finite precision, as a --module descriptor with a 'prec' field does."""
    data = encode_module(rho)
    for name, prec in precs.items():
        data[name]["prec"] = prec
    return decode_module(data)[1]


def _q5_wild_module():
    cfg = FieldConfig(5, 1, 2, e=100, prec=240)
    return DrinfeldModule(cfg, 2, cfg.theta(), cfg.one())


_TORSION_CASES = {
    "q3-240": lambda: _q3_module(240),
    "q3-960": lambda: _q3_module(960),
    "q3-1920": lambda: _q3_module(1920),
    "q3-3840": lambda: _q3_module(3840),
    "q5-tame-240": lambda: _q5_module(240),
    "q5-tame-960": lambda: _q5_module(960),
    "q5-wild": _q5_wild_module,
    "carlitz-q3": lambda: DrinfeldModule(FieldConfig(3, 1, 4, e=72), 1),
    "carlitz-q5": lambda: DrinfeldModule(FieldConfig(5, 1, 4, e=600), 1),
    "theta+tau^2": lambda: _q3_module(240, 0),
    "kappa=1+1/theta": lambda: _q3_module(
        240, lambda cfg: cfg.one() + cfg.theta(-1)),
    "u=2+1/theta": lambda: _q3_module(
        240, None, lambda cfg: cfg.from_int(2) + cfg.theta(-1)),
    "kappa=1/theta,u=1+theta^-2": lambda: _q3_module(
        240, lambda cfg: cfg.theta(-1), lambda cfg: cfg.one() + cfg.theta(-2)),
    "kappa=2,u=1/theta": lambda: _q3_module(
        240, 2, lambda cfg: cfg.theta(-1)),
    "u=theta": lambda: _q3_module(240, None, lambda cfg: cfg.theta()),
    "q5-kappa=1+1/theta-480": lambda: _q5_module(
        480, lambda cfg: cfg.one() + cfg.theta(-1)),
    # inexact coefficients: the roots are known only to the precision that
    # kappa and u carry
    "q3-240,kappa.prec=300": lambda: _with_coeff_prec(
        _q3_module(240), kappa=300),
    "q3-240,u.prec=300": lambda: _with_coeff_prec(_q3_module(240), u=300),
    "q5-tame-240,kappa.prec=2000,u.prec=3000": lambda: _with_coeff_prec(
        _q5_module(240), kappa=2000, u=3000),
    # rho_t(x0) is zero only to finite precision
    "theta+tau^2,prec=400": lambda: _with_coeff_prec(
        _q3_module(240, 0), kappa=400, u=400),
}


@pytest.mark.parametrize("case", [c for c in _TORSION_CASES
                                  if c != "q3-3840"])
def test_torsion_matches_newton_reference(case):
    full, partial = torsion_oracle.assert_torsion_matches(
        _TORSION_CASES[case]())
    if case == "q5-wild":
        assert full["error"] == "GridTooCoarse"
        assert len(partial[0]) == 4 and partial[1]
    else:
        assert partial == full and full[0]
    if case in ("theta+tau^2", "carlitz-q3", "carlitz-q5"):
        assert all(prec == INF for _, prec in full[0])
    if case == "theta+tau^2,prec=400":
        # the roots theta^{1/8} c are exact for the exact module, but kappa
        # and u known to 400 leave them known to min(400 - 27, 400 - 81) + 72
        assert all(prec == 391 for _, prec in full[0])


@pytest.mark.slow
def test_torsion_matches_newton_reference_deep():
    torsion_oracle.assert_torsion_matches(_TORSION_CASES["q3-3840"]())


def test_torsion_takes_no_newton_step(monkeypatch):
    # exact and inexact coefficients alike: every root is an additive step
    calls = []
    newton = roots.newton_iterate

    def counted(*args, **kwargs):
        calls.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(roots, "newton_iterate", counted)
    for case in ("q3-960", "q3-240,kappa.prec=300", "theta+tau^2,prec=400"):
        assert len(_TORSION_CASES[case]().torsion_points()) == 8
    assert not calls


def _data_module(name):
    return decode_module(json.loads(
        (Path(__file__).parent / "data" / name).read_text()))[1]


_ORBIT_CASES = {
    **{c: _TORSION_CASES[c] for c in ("q3-240", "q3-960", "q3-1920",
                                      "q5-tame-240", "q5-wild")},
    "cm_q3": lambda: _data_module("cm_q3.json"),
    "cm_q3_inexact": lambda: _data_module("cm_q3_inexact.json"),
}


def _roots_outcome(compute):
    """(points as (terms, prec) in the order given, failure records), or
    the error record when the computation raises."""
    try:
        points, failures = compute()
    except DrinfeldLabError as ex:
        return ex.record()
    return [(r.terms, r.prec) for r in points], failures


def _torsion_outcomes(rho):
    return [_roots_outcome(lambda: (roots.all_nonzero_roots(rho), [])),
            _roots_outcome(lambda: roots.partial_nonzero_roots(rho)),
            _roots_outcome(lambda: (rho.torsion_points(), [])),
            _roots_outcome(lambda: rho.torsion_points(partial=True))]


@pytest.mark.parametrize("case", sorted(_ORBIT_CASES))
def test_torsion_by_orbits_matches_every_root_refined(case, monkeypatch):
    # the top level refines one residual root per F_q^x orbit and scales it
    # to the others; _segment_roots told that every level lies one deeper
    # takes the descent's path and refines every residual root.  Terms,
    # precisions, order and failure records are the same
    got = _torsion_outcomes(_ORBIT_CASES[case]())
    segment_roots = roots._segment_roots
    monkeypatch.setattr(
        roots, "_segment_roots",
        lambda module, coeffs, edge, seed, depth:
            segment_roots(module, coeffs, edge, seed, depth + 1))
    assert _torsion_outcomes(_ORBIT_CASES[case]()) == got
    if case == "q5-wild":
        assert got[0]["error"] == "GridTooCoarse" and len(got[1][0]) == 4
    else:
        assert len(got[0][0]) == (24 if case == "q5-tame-240" else 8)


@pytest.mark.parametrize("case", ["q3-240", "q3-1920", "q5-tame-240",
                                  "cm_q3", "cm_q3_inexact"])
def test_full_torsion_refines_one_root_per_orbit(case, monkeypatch):
    # q^2 - 1 points from q + 1 refinements: 4 on q3, 6 on q5-tame
    calls = []
    refine = roots._refine

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(roots, "_refine", counted)
    rho = _ORBIT_CASES[case]()
    q = rho.cfg.q
    assert len(rho.torsion_points()) == q * q - 1
    assert len(calls) == q + 1


def _scan_seeds(rho):
    """The lattice seeds as a numeric scan picked them: the first torsion
    point, and the first that no mu in F_q^x maps it to within the pass
    threshold."""
    cfg = rho.cfg
    thr = cfg.pass_threshold()
    units = [mu for mu in range(1, cfg.field.size)
             if cfg.field.in_base_field(mu)]
    first, *rest = rho.torsion_points()
    for x in rest:
        if not any((x - first.scale(mu)).is_zero_to(thr) for mu in units):
            return [first, x]
    raise AssertionError("no second orbit")


def _cluster_module():
    # rho_t = theta x + theta x^3 + (theta^(1/4) + 2) x^9: the torsion
    # points c theta^(1/8) + F_3 a, c^2 = -1, v(a) = 0, share their leading
    # term three by three, so that ratio is 1 in different orbits
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    return DrinfeldModule(cfg, 2, cfg.theta(), CInfApprox(cfg, {-18: 1,
                                                                0: 2}))


_SEED_CASES = {c: make for c, make in {**_TORSION_CASES, **_ORBIT_CASES,
                                       "clusters": _cluster_module}.items()
               if c not in ("q5-wild", "carlitz-q3", "carlitz-q5", "q3-3840")}


@pytest.mark.parametrize("case", sorted(_SEED_CASES))
def test_lattice_seeds_match_the_numeric_scan(case):
    # the exact orbit test (leading-code ratio in F_q, then the scaled seed
    # equal to its precision) picks the seeds the threshold scan over F_q
    # picked; on the CM modules the second point is an F_9-multiple of the
    # first, outside its F_3-orbit, and on the clusters module it has the
    # first's leading term
    rho = _SEED_CASES[case]()
    got = [(x.terms, x.prec) for x in rho.lattice_seeds()]
    assert got == [(x.terms, x.prec) for x in _scan_seeds(rho)]


def test_additive_root_requires_contraction():
    rho = _q3_module(240)
    # the eight roots have valuation -9; a seed of valuation -10 lies
    # outside every root's disc, and d = -9 gives min(3d, 9d) + 72 = d
    with pytest.raises(NoConvergence, match="does not contract"):
        roots._refine(rho, rho.cfg.monomial(-10, 1), -9, 1)


# Division towers through the additive step


def test_cm_module_periods_and_logarithm():
    # theta + tau^2 has kappa = 0, so every odd log coefficient is exactly
    # zero; the certificate skips them instead of comparing with inf
    rho = _TORSION_CASES["theta+tau^2"]()
    cfg = rho.cfg
    thr = cfg.pass_threshold()
    z = cfg.theta(-5)
    assert (rho.exp_eval(rho.log_eval(z)) - z).is_zero_to(thr)
    assert not rho.log_certificate(cfg.theta(2))
    lat = rho.periods()
    assert [t.depth for t in lat.towers] == [1, 1]
    # complex multiplication by F_9: omega2 = c omega1, c in F_9 but not F_3
    field = cfg.field
    ratios = [c for c in range(1, field.size)
              if (lat.omega2 - lat.omega1.scale(c)).is_zero_to(thr)]
    assert len(ratios) == 1
    assert field.frob_q(ratios[0], 2) == ratios[0]
    assert not field.in_base_field(ratios[0])


def _forced_towers(monkeypatch, rho, seeds, k):
    """The towers of rho over the seeds, with log_certificate refusing the
    first k levels of each."""
    certificate = DrinfeldModule.log_certificate
    left = [0]

    def refusing(self, z):
        if left[0]:
            left[0] -= 1
            return False
        return certificate(self, z)

    monkeypatch.setattr(DrinfeldModule, "log_certificate", refusing)
    towers = []
    for seed in seeds:
        left[0] = k
        towers.append(rho.period_from_seed(seed))
    monkeypatch.undo()
    return towers


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("case", ["q3-240", "q3-1920", "q5-tame-240",
                                  "q3-240,kappa.prec=300", "theta+tau^2"])
def test_forced_deep_towers_match_depth_one(case, k, monkeypatch):
    # every refused level is one more additive division step; the period
    # does not change, and each chain value is exp(omega/theta^n)
    rho = _TORSION_CASES[case]()
    cfg = rho.cfg
    thr = cfg.pass_threshold()
    want = rho.periods()
    assert [t.depth for t in want.towers] == [1, 1]
    towers = _forced_towers(monkeypatch, rho, rho.lattice_seeds(), k)
    for tower, om in zip(towers, want.basis()):
        assert tower.depth == k + 1 and tower.omega.prec >= thr
        assert (tower.omega - om).vbound() >= min(tower.omega.prec, om.prec)
        for n, en in enumerate(tower.chain, 1):
            want_en = rho.exp_eval(tower.omega.shift(n * cfg.e))
            assert (en - want_en).is_zero_to(thr), (n, en, want_en)


@pytest.mark.parametrize("case", ["seed", "kappa", "u"])
def test_forced_tower_precision_covers_inexact_inputs(case, monkeypatch):
    # an input known to finite precision against an exact value that agrees
    # with it there: the tower steps agree to the precision they claim
    if case == "seed":
        rho = exact = _q3_module(240)
        cfg = rho.cfg
        full = rho.lattice_seeds()[0]
        seed = full.truncate(full.valuation() + 400)
        seeds = [seed, CInfApprox(cfg, {**seed.terms, seed.prec: 1}, INF)]
    else:
        # theta + tau^2 with kappa = 0 known to 400 or u = 1 known to 300,
        # where each sets the precision of the step
        cm = _TORSION_CASES["theta+tau^2"]()
        cfg = cm.cfg
        prec = {"kappa": 400, "u": 300}[case]
        coeffs = {"kappa": cm.kappa, "u": cm.u}
        terms = coeffs[case].terms
        coeffs[case] = CInfApprox(cfg, terms, prec)
        rho = DrinfeldModule(cfg, 2, coeffs["kappa"], coeffs["u"])
        coeffs[case] = CInfApprox(cfg, {**terms, prec: 1}, INF)
        exact = DrinfeldModule(cfg, 2, coeffs["kappa"], coeffs["u"])
        seeds = [cm.lattice_seeds()[0]] * 2
    got, want = (_forced_towers(monkeypatch, r, [s], 3)[0].chain
                 for r, s in zip((rho, exact), seeds))
    for x, y in zip(got, want):
        assert x.prec <= y.prec and (x - y).vbound() >= x.prec


def test_tower_seed_outside_contraction_disc():
    # e_1 = theta^2 is not log-certified; the step's seed theta has
    # valuation -72 and d0 = min(3, 9) * (-72) + 72 <= -72
    rho = _q3_module(240)
    with pytest.raises(NoConvergence, match="contraction disc"):
        rho.period_from_seed(rho.cfg.theta(2))


# Quasi-periods against the plain unrolled loop


def _exp_radius_reference(rho, scan=64):
    """The least rho >= 0 with b_i + (q^i - 1) rho >= 0 for i <= scan, b_i
    the valuation bounds of _vbounds_reference: the radius past which exp
    lowers no valuation, from a plain scan."""
    q = rho.cfg.q
    bounds = _vbounds_reference(rho, "exp", scan)
    return max([0] + [-(b // (q ** i - 1))
                      for i, b in enumerate(bounds) if i and b != INF])


def _quasi_period_reference(rho, lam, delta=None, extra=0):
    """F_delta(lam) by the plain unrolled loop: every level
    exp(lam/theta^{j+1}) at the full precision exp_eval gives it, summed,
    then cut at min(sum precision, floor).  The loop stops at the first
    level where the floor reaches its target and the next argument lies in
    exp's radius.  With extra > 0 it runs that many levels past its stop
    and returns the uncut sum."""
    cfg = rho.cfg
    if delta is None:
        delta = Biderivation.tau(cfg)
    e, q = cfg.e, cfg.q
    dmin = delta.min_coeff_valuation()
    vlam = lam.valuation()
    target = cfg.rel_prec + max(0, -vlam)
    radius = _exp_radius_reference(rho)
    acc, theta_pow, stop = cfg.zero(INF), cfg.one(), None
    for j in itertools.count():
        w = rho.exp_eval(lam / cfg.theta(j + 1))
        acc = acc + theta_pow * delta.delta_t(w)
        theta_pow = theta_pow * cfg.theta()
        if stop is None:
            floor = -(j + 1) * e + dmin + q * (vlam + (j + 2) * e)
            if floor >= target and vlam + (j + 2) * e >= radius:
                stop = j
        if stop is not None and j >= stop + extra:
            break
    return acc if extra else acc.truncate(min(acc.prec, floor))


def _quasi_period_arguments(rho):
    """(lam, lattice) pairs: the periods with and without their towers,
    their sum, monomials, a period cut short twice and a log point."""
    cfg = rho.cfg
    lat = rho.periods()
    om1, om2 = lat.omega1, lat.omega2
    point = make_log_point(rho, alpha=cfg.theta(-1))
    return [(om1, lat), (om2, lat), (om1, None), (om2, None),
            (om1 + om2, None), (cfg.theta(-1), None), (cfg.theta(2), None),
            (cfg.monomial(5), None),
            (om1.truncate(om1.valuation() + cfg.prec), None),
            (om1.truncate(om1.valuation() + cfg.e // 4), None),
            (point.lam, lat)]


@pytest.mark.parametrize("case", ["q3-240", "q3-960", "q3-1920",
                                  "q5-tame-240", "q5-tame-960",
                                  "q3-240,kappa.prec=300"])
def test_quasi_period_matches_unrolled_reference(case):
    # the inexact kappa makes inner_one's coefficient inexact, and the
    # short period leaves levels that are zero below their cut
    rho = _TORSION_CASES[case]()
    for lam, lat in _quasi_period_arguments(rho):
        for delta in (None, Biderivation.inner_one(rho)):
            got = rho.quasi_period_eval(lam, delta=delta, lattice=lat)
            want = _quasi_period_reference(rho, lam, delta)
            assert got.terms == want.terms, (case, lam, delta)
            assert got.prec == want.prec, (case, lam, delta)


def test_quasi_period_matches_unrolled_reference_short_arguments():
    # arguments known to few digits give small cuts; where
    # q^i c + v(alpha_i) < c for a large kappa, a cut argument would lose
    # digits inside exp_eval, so that level must stay uncut
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    for k in (6, 7, 8):
        rho = DrinfeldModule(cfg, 2, cfg.theta(k), cfg.one())
        for a in (1, 2, 3):
            for digits in (20, 60, 100, 140, 200):
                lam = CInfApprox(cfg, {-a * cfg.e: 1, 7 - a * cfg.e: 2},
                                 digits - a * cfg.e)
                for delta in (None, Biderivation.inner_one(rho)):
                    got = rho.quasi_period_eval(lam, delta=delta)
                    want = _quasi_period_reference(rho, lam, delta)
                    assert got.terms == want.terms, (k, a, digits, delta)
                    assert got.prec == want.prec, (k, a, digits, delta)


_FLOOR_GRID = [(FieldConfig(3, 1, 4, e=72, prec=240), range(-3, 8)),
               (FieldConfig(5, 1, 4, e=600, prec=240), (-1, 1, 3))]


def test_quasi_period_floor_oracle():
    # eight levels past the stop change nothing below the returned
    # precision: kappa = theta^k for k <= 12, where v(alpha_1) < 0 from
    # k = q + 1 on and exp's radius grows past 0, u in {1, theta^3},
    # lam = theta^a; q3 and q5-tame, where kappa = theta^10..12 at
    # lam = theta take one level more than the radius 0 would give
    for cfg, exps in _FLOOR_GRID:
        for k in range(13):
            for u in (cfg.one(), cfg.theta(3)):
                rho = DrinfeldModule(cfg, 2, cfg.theta(k), u)
                for a in exps:
                    lam = cfg.theta(a)
                    for delta in (None, Biderivation.inner_one(rho)):
                        got = rho.quasi_period_eval(lam, delta=delta)
                        full = _quasi_period_reference(rho, lam, delta,
                                                       extra=8)
                        assert full.prec >= got.prec, (k, u, a, delta)
                        assert (full - got).vbound() >= got.prec, (k, u, a)


def test_exp_radius_matches_scan():
    # the radius stops its scan at the first index the recursion carries;
    # a 64-index scan finds the same value, kappa = 0 (every odd bound
    # infinite) and the Carlitz module included; at valuation rho exp
    # lowers no valuation
    for cfg, _ in _FLOOR_GRID:
        modules = [DrinfeldModule(cfg, 1), DrinfeldModule(cfg, 2, 0, 1)]
        modules += [DrinfeldModule(cfg, 2, cfg.theta(k), u)
                    for k in range(-2, 13)
                    for u in (cfg.one(), cfg.theta(3), cfg.theta(-2))]
        radii = set()
        for rho in modules:
            radius = rho._exp_radius()
            assert radius == _exp_radius_reference(rho), rho
            z = cfg.monomial(radius)
            assert rho.exp_eval(z).vbound() >= radius, rho
            radii.add(radius)
        assert 0 in radii and max(radii) > cfg.e


def _exp_radius_loop(rho, lines=None):
    """(exp's radius, the index its scan stops at) by the scan that
    _exp_radius replaced: raise rho to meet each line
    b_i + (q^i - 1) rho >= 0 in turn, and stop at the first i where
    min(vk + (q - 1) rho, vu + (q^2 - 1) rho) + q^(i+1) e >= 0, from which
    the recursion carries the bound.  With lines given, scan exactly that
    many lines instead."""
    cfg = rho.cfg
    q, e = cfg.q, cfg.e
    vk, vu = rho._vk, rho._vu
    radius, i = 0, 0
    while True:
        i += 1
        b, qi = rho._bounds("exp", i)[i], q ** i
        if b != INF and b + (qi - 1) * radius < 0:
            radius = -(b // (qi - 1))
        reach = q * qi * e
        if i == lines or lines is None and (
                vk + (q - 1) * radius + reach >= 0
                and vu + (q * q - 1) * radius + reach >= 0):
            return radius, i


_RADIUS_GRIDS = (FieldConfig(3, 1, 4, e=72, prec=240),
                 FieldConfig(5, 1, 4, e=600, prec=240),
                 FieldConfig(5, 1, 2, e=100, prec=240))


def _radius_valuation(q, e):
    # -40e..6e, or about -q^j e for j = 60..70: b_i stays below
    # -(q^i - 1) rho for the first 2 <= i < j, so a scan that stopped at
    # the least i with q^(i+1) e >= max(-vk, -vu) would stop past 64
    return st.one_of(
        st.integers(-40 * e, 6 * e),
        st.builds(lambda j, r: -q ** j * e - r, st.integers(60, 70),
                  st.integers(0, e)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exp_radius_is_one_least_v(data):
    # _exp_radius, one _least_v over lines 1 and 2, equals the scan on the
    # q3, q5-tame and q5-wild grids with kappa = 0 or a monomial and u a
    # monomial, and a scan of 80 lines: the lines past 2 never raise it,
    # for valuations whose bound-carrying index q^(i+1) e >= max(-vk, -vu)
    # lies past 64 too
    cfg = data.draw(st.sampled_from(_RADIUS_GRIDS))
    q, e, size = cfg.q, cfg.e, cfg.field.size
    vk = data.draw(st.none() | _radius_valuation(q, e))
    vu = data.draw(_radius_valuation(q, e))
    code = st.integers(1, size - 1)
    kappa = (cfg.zero(INF) if vk is None
             else CInfApprox(cfg, {vk: data.draw(code)}))
    rho = DrinfeldModule(cfg, 2, kappa,
                         CInfApprox(cfg, {vu: data.draw(code)}))
    radius = rho._exp_radius()
    assert radius == _exp_radius_loop(rho)[0]
    assert radius == _exp_radius_loop(rho, lines=80)[0]


def test_exp_radius_scan_stops_by_index_two():
    # the scan stops at i <= 2 whatever v(kappa) and v(u) are: lines 1
    # and 2 lift rho until both terms of the recursion are carried; kappa
    # = 0 and v(u) = -3^70 e on q3 are the two ends the hypothesis test
    # reaches
    cfg = _RADIUS_GRIDS[0]
    for kappa in (cfg.zero(INF), cfg.one(), cfg.theta(3 ** 70)):
        for vu in (0, -40 * cfg.e, -3 ** 70 * cfg.e):
            rho = DrinfeldModule(cfg, 2, kappa, CInfApprox(cfg, {vu: 1}))
            radius, stop = _exp_radius_loop(rho)
            assert stop <= 2
            assert rho._exp_radius() == radius == \
                _exp_radius_loop(rho, lines=80)[0]


def test_quasi_period_level_count_reaches_target():
    # q = 3 over F_9 at e = 18 needs more levels than a scan of
    # 4 * tower_cap + 64 holds; the level count has no cap, so the floor
    # reaches rel_prec
    cfg = FieldConfig(3, 1, 2, e=18, prec=1200)
    lam = cfg.theta(-1)
    for rho in (DrinfeldModule(cfg, 1),
                DrinfeldModule(cfg, 2, cfg.one(), cfg.one())):
        got = rho.quasi_period_eval(lam)
        assert got.prec >= cfg.rel_prec
        want = _quasi_period_reference(rho, lam)
        assert got.terms == want.terms and got.prec == want.prec


def test_quasi_period_level_count_small_argument_condition():
    # delta_t = theta^-30 tau and lam = theta^a, a = 3, 4: the floor
    # reaches its target at level 0, but the dropped arguments are small
    # only from level a - 2 on, so that condition sets the level count
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    delta = Biderivation(SkewPoly(cfg, [cfg.zero(INF), cfg.theta(-30)]))
    for a in (3, 4):
        lam = cfg.theta(a)
        got = rho.quasi_period_eval(lam, delta=delta)
        want = _quasi_period_reference(rho, lam, delta)
        assert got.terms == want.terms and got.prec == want.prec, a


def _prec_scan(rho, kind, vz, zprec, cap=None):
    """The precision of kind's q-linear sum on a nonzero z of valuation vz
    and precision zprec by the row scan (qlinear_oracle): exp and log with
    the tail floor from the 64-line scan, None where that floor does not
    stabilize; the step (0, kappa, u) with its cap."""
    depth = rho.cfg.exp_depth
    if kind == "step":
        coeffs, floor = [rho.cfg.zero(INF), rho.kappa, rho.u], cap
    else:
        coeffs = rho.exp_coeffs(depth) if kind == "exp" \
            else rho.log_coeffs(depth)
        floor = _tail_floor_formula(rho, kind, vz, depth)
    if floor is None:
        return None
    return qlinear_oracle.qlinear_prec(
        rho.cfg, qlinear_oracle.known(coeffs), vz, zprec, floor)


def _quasi_period_levels(rho, lam, delta):
    """F_delta(lam) level by level: every level w_j = exp(lam/theta^{j+1})
    from one _exp_levels ladder cut at its c_j, with each R_j and P from
    every level, then the sum of theta^j d_k w_j^(q^k) cut at P, with P
    lowered for an inexact d_k by prec(d_k) + q^k v(w_j) - je.  This was
    the library's evaluation for every delta; the library keeps it for an
    inexact d_k only, and plans the sum over exact d_k at level 0."""
    cfg = rho.cfg
    e, q = cfg.e, cfg.q
    dmin = delta.min_coeff_valuation()
    vlam = lam.valuation()
    target = cfg.rel_prec + max(0, -vlam)
    step = (q - 1) * e
    base = -e + dmin + q * (vlam + 2 * e)
    J = max(0, -((vlam + 2 * e - _exp_radius_reference(rho)) // e),
            0 if dmin == INF else -((base - target) // step))
    floor = base + J * step
    ds = [(k, q ** k, d) for k, d in enumerate(delta.delta_t.coeffs)
          if not d.is_exact_zero()]
    shifts = [(j + 1) * e for j in range(J + 1)]
    rs = [_prec_scan(rho, "exp", vlam + k, lam.prec + k) for k in shifts]
    prec = min([floor] + [qk * r + d.vbound() - j * e
                          for j, r in enumerate(rs) for _, qk, d in ds])
    cuts = [min(r, max(-((d.vbound() - prec - j * e) // qk)
                       for _, qk, d in ds)) for j, r in enumerate(rs)]
    values = rho._exp_levels("exp", lam, shifts, cuts)
    prec = min([prec] + [d.prec + qk * w.vbound() - j * e
                         for j, w in enumerate(values)
                         for _, qk, d in ds if d.prec != INF])
    return dot(cfg, [(d.shift(-j * e), w.frobenius(k))
                     for j, w in enumerate(values) for k, _, d in ds], prec)


def _cm_module(prec):
    data = json.loads((Path(__file__).parent / "data" / "cm_q3.json")
                      .read_text())
    data["prec"] = dict(data["prec"], valuation_terms=prec,
                        rel_terms=4 * prec)
    return decode_module(data)[1]


_ONE_SUM_MODULES = {"q3": _q3_module, "q5-tame": _q5_module,
                    "cm_q3": _cm_module}


@pytest.mark.parametrize("prec", [240, 960, 1920])
@pytest.mark.parametrize("name", sorted(_ONE_SUM_MODULES))
def test_quasi_period_one_sum_matches_levels(name, prec, monkeypatch):
    # tau and inner_one have exact coefficients and take the one sum; a
    # tau-coefficient known to finite precision takes the level path.  Both
    # equal the level-by-level sum in terms and precision, on the periods
    # (the lattice's kept F_tau too) and a logarithm
    rho = _ONE_SUM_MODULES[name](prec)
    cfg = rho.cfg
    lat = rho.periods()
    point = make_log_point(rho, alpha=cfg.theta(-1))
    inexact = Biderivation(SkewPoly(cfg, [
        cfg.zero(INF), CInfApprox(cfg, {0: 1, cfg.e: 2}, cfg.rel_prec // 2),
        cfg.one()]))
    levels = []
    exp_levels = DrinfeldModule._exp_levels

    def counted(self, kind, z, shifts, precs=None):
        levels.append(z)
        return exp_levels(self, kind, z, shifts, precs)

    monkeypatch.setattr(DrinfeldModule, "_exp_levels", counted)
    for lam in (lat.omega1, lat.omega2, point.lam):
        cases = [(None, lat), (Biderivation.tau(cfg), None),
                 (Biderivation.inner_one(rho), None), (inexact, None)]
        for delta, lattice in cases:
            del levels[:]
            got = rho.quasi_period_eval(lam, delta=delta, lattice=lattice)
            assert bool(levels) == (delta is inexact)
            want = _quasi_period_levels(rho, lam,
                                        delta or Biderivation.tau(cfg))
            assert got.terms == want.terms, (name, prec, lam, delta)
            assert got.prec == want.prec, (name, prec, lam, delta)


# exp_depth = 2 leaves the tail floor, which no pair of the sum carries, to
# bind R_0 at the arguments drawn
_LEVEL_ZERO_CFGS = {(q, depth): FieldConfig(q, 1, 4, e=e, prec=240,
                                            exp_depth=depth)
                    for q, e in ((3, 72), (5, 600)) for depth in (2, 12)}
_level_zero_cache = {}


def _level_zero_module(q, depth, k, cube):
    key = (q, depth, k, cube)
    if key not in _level_zero_cache:
        cfg = _LEVEL_ZERO_CFGS[q, depth]
        _level_zero_cache[key] = DrinfeldModule(
            cfg, 2, cfg.theta(k), cfg.theta(3) if cube else cfg.one())
    return _level_zero_cache[key]


@st.composite
def _quasi_period_argument(draw, cfg):
    """lam with a drawn valuation and term set, exact or known to a
    precision that often sits close enough above v(lam) to bind R_0."""
    e, size = cfg.e, cfg.field.size
    v = draw(st.integers(-3 * e, 4 * e))
    terms = draw(st.dictionaries(st.integers(v, v + 3 * e),
                                 st.integers(1, size - 1), max_size=5))
    terms[v] = draw(st.integers(1, size - 1))
    prec = draw(st.one_of(st.just(INF), st.integers(v + 1, v + 2 * e),
                          st.integers(v + 1, v + 1 + cfg.rel_prec)))
    return CInfApprox(cfg, terms, prec)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(q=st.sampled_from([3, 5]), depth=st.sampled_from([12, 2]),
       k=st.integers(0, 8), cube=st.booleans(), inner=st.booleans(),
       data=st.data())
def test_quasi_period_level_zero_matches_levels(q, depth, k, cube, inner,
                                                data):
    # the sum planned at level 0 equals the level-by-level sum in terms
    # and precision: kappa = theta^k (v(alpha_1) < 0 from k = q + 1 on),
    # u in {1, theta^3}, delta in {tau, inner_one}; and so does the sum
    # that cuts lam's full numerators for its rows
    rho = _level_zero_module(q, depth, k, cube)
    cfg = rho.cfg
    lam = data.draw(_quasi_period_argument(cfg))
    delta = Biderivation.inner_one(rho) if inner else Biderivation.tau(cfg)
    want = _quasi_period_levels(rho, lam, delta)
    got = rho.quasi_period_eval(lam, delta=delta)
    assert (got.terms, got.prec) == (want.terms, want.prec)
    held = rho._quasi_period_sum(lam, delta, rho._numerators(lam))
    assert (held.terms, held.prec) == (want.terms, want.prec)


_NUMERATOR_MODULES = {}


def _numerator_module(name):
    """A named module with its periods, built once: cm_q3 (kappa = 0) has
    every odd alpha_i exactly zero, kappa-inexact every alpha_i inexact."""
    got = _NUMERATOR_MODULES.get(name)
    if got is None:
        rho = {"q3": lambda: _q3_module(240),
               "q5-tame": lambda: _q5_module(240),
               "cm_q3": lambda: _q3_module(
                   240, kappa=lambda cfg: cfg.zero(INF)),
               "kappa-inexact": lambda: _with_coeff_prec(
                   _q3_module(240), kappa=400)}[name]()
        got = _NUMERATOR_MODULES[name] = (rho, rho.periods())
    return got


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["q3", "q5-tame", "cm_q3", "kappa-inexact"]),
       count=st.sampled_from([1, 3, 12, 13, 20]),
       kind=st.sampled_from(["period", "exact", "inexact",
                             "zero-to-precision", "zero"]),
       data=st.data())
def test_numerators_match_full_products(name, count, kind, data):
    # each numerator, formed from z's digits below its precision, has the
    # terms and precision of the full product alpha_i * z^(q^i): counts
    # past exp_depth + 1 = 13 rows, exactly-zero rows (kappa = 0) and
    # inexact ones, arguments exact, inexact, zero to precision and zero
    rho, lat = _numerator_module(name)
    cfg = rho.cfg
    e, size = cfg.e, cfg.field.size
    if kind == "period":
        z = data.draw(st.sampled_from(lat.basis()))
    elif kind == "zero":
        z = cfg.zero(INF)
    elif kind == "zero-to-precision":
        z = cfg.zero(data.draw(st.integers(-2 * e, 4 * e)))
    else:
        terms = data.draw(st.dictionaries(
            st.integers(-2 * e, 4 * e), st.integers(1, size - 1),
            min_size=1, max_size=8))
        z = CInfApprox(cfg, terms, INF if kind == "exact" else data.draw(
            st.integers(min(terms) + 1, 6 * e)))
    got = rho._numerators(z, count)
    want = [alpha * z.frobenius(i)
            for i, alpha in enumerate(rho.exp_coeffs(count - 1))]
    assert [(x.terms, x.prec) for x in got] == \
        [(x.terms, x.prec) for x in want]


def test_quasi_period_plans_one_level(monkeypatch):
    # at N = 1920 every quasi-period with exact d_k, of a period (cutting
    # its tower's numerators) or of a logarithm, reads one exp precision
    # and plans one level, and forms no ladder level
    rho = _q3_module(1920)
    cfg = rho.cfg
    lat = rho.periods()
    point = make_log_point(rho, alpha=cfg.theta(-1))
    calls = []
    precs_of, ladder_plan = DrinfeldModule._precs, DrinfeldModule._ladder_plan

    def precs_spy(self, kind, vz, zprec, shifts):
        calls.append(("precs", kind, len(shifts)))
        return precs_of(self, kind, vz, zprec, shifts)

    def plan_spy(self, kind, z, shifts, precs):
        calls.append(("plan", kind, len(shifts)))
        return ladder_plan(self, kind, z, shifts, precs)

    def boom(*args, **kwargs):
        raise AssertionError("formed a ladder level")

    monkeypatch.setattr(DrinfeldModule, "_precs", precs_spy)
    monkeypatch.setattr(DrinfeldModule, "_ladder_plan", plan_spy)
    monkeypatch.setattr(DrinfeldModule, "_exp_levels", boom)
    for lam in (lat.omega1, lat.omega2, point.lam):
        for delta in (Biderivation.tau(cfg), Biderivation.inner_one(rho)):
            del calls[:]
            rho.quasi_period_eval(lam, delta=delta, lattice=lat)
            assert calls == [("precs", "exp", 1), ("plan", "exp", 1)], \
                (lam, delta)


def _planning_calls(monkeypatch, rho, u, T):
    """The Python calls that the plan of AndersonGF(rho, u).series(T)
    makes: inside _precs and _ladder_plan, counted by a profiler."""
    counts = []

    def counted(method):
        def spy(self, *args):
            calls = [0]

            def profile(frame, event, arg):
                if event == "call":
                    calls[0] += 1

            sys.setprofile(profile)
            try:
                return method(self, *args)
            finally:
                sys.setprofile(None)
                counts.append(calls[0])
        return spy

    for name in ("_precs", "_ladder_plan"):
        monkeypatch.setattr(DrinfeldModule, name,
                            counted(getattr(DrinfeldModule, name)))
    AndersonGF(rho, u).series(T)
    monkeypatch.undo()
    return counts


def test_ladder_planning_does_not_grow_with_levels(monkeypatch):
    # the rows' lines are kept per module as two lower envelopes and the
    # tail floor's as a third, so a series ladder's plan makes the same
    # calls for 24 levels as for 16: per level it bisects the envelopes
    # and tests one sum per row, and calls nothing
    rho = _q3_module(240)
    u = rho.log_eval(rho.cfg.theta(-1))
    AndersonGF(rho, u).series(16)
    sixteen = _planning_calls(monkeypatch, rho, u, 16)
    assert len(sixteen) == 2
    assert _planning_calls(monkeypatch, rho, u, 24) == sixteen


# The exp ladder against one exp_eval per level

_LADDER_MODULES = {
    "q3": lambda: _q3_module(240),
    "q3,kappa.prec=300": lambda: _with_coeff_prec(_q3_module(240),
                                                  kappa=300),
    "q3,kappa=theta^7": lambda: _q3_module(240, lambda cfg: cfg.theta(7)),
    "q5-tame": lambda: _q5_module(240),
}
_ladder_cache = {}


def _ladder_module(name, modules=_LADDER_MODULES):
    if name not in _ladder_cache:
        _ladder_cache[name] = modules[name]()
    return _ladder_cache[name]


@st.composite
def _ladder_argument(draw, cfg):
    """z exact, inexact or zero to precision (the exact zero too)."""
    e, size = cfg.e, cfg.field.size
    v = draw(st.integers(-3 * e, 4 * e))
    kind = draw(st.sampled_from(["exact", "inexact", "zero", "exact zero"]))
    if kind == "exact zero":
        return cfg.zero(INF)
    if kind == "zero":
        return cfg.zero(v)
    terms = draw(st.dictionaries(st.integers(v, v + 3 * e),
                                 st.integers(1, size - 1), max_size=5))
    terms[v] = draw(st.integers(1, size - 1))
    if kind == "exact":
        return CInfApprox(cfg, terms, INF)
    return CInfApprox(cfg, terms, v + 1 + draw(st.integers(0, cfg.rel_prec)))


def _exp_reference(rho, z):
    """exp_eval's value as the uncapped sum; a z without terms is returned
    as it is."""
    return _uncapped_sum(rho, "exp", z) if z.terms else z


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_LADDER_MODULES)), data=st.data())
def test_exp_levels_match_exp_eval(name, data):
    # each level equals exp_eval on z.shift(k) in terms and precision;
    # handed the precision exp_eval reaches on a cut argument
    # z.shift(k).truncate(c), it equals exp_eval on that argument, and
    # handed any lower precision, the value cut there.  Shifts start at 0;
    # cuts fall below, at and above the precision exp_eval reaches
    rho = _ladder_module(name)
    cfg = rho.cfg
    z = data.draw(_ladder_argument(cfg))
    ks = data.draw(st.lists(st.integers(0, 6 * cfg.e), min_size=1,
                            max_size=6))
    want = [_exp_reference(rho, z.shift(k)) for k in ks]
    assert _pairs(rho._exp_levels("exp", z, ks)) == _pairs(want)
    assert _pairs(rho.exp_eval(z.shift(k)) for k in ks) == _pairs(want)
    if not z.terms:
        return
    vz = z.valuation()
    cuts = [data.draw(st.one_of(
        st.just(INF), st.integers(vz + k - 2, vz + k + 2),
        st.integers(vz + k - cfg.e, vz + k + 2 * cfg.rel_prec)))
        for k in ks]
    args = [z.shift(k).truncate(c) for k, c in zip(ks, cuts)]
    assert _pairs(rho.exp_eval(a) for a in args) == \
        _pairs(_exp_reference(rho, a) for a in args)
    # exp_eval returns a cut argument without terms as it is
    kept = [(k, a) for k, a in zip(ks, args) if a.terms]
    if kept:
        precs = [rho._precs("exp", a.valuation(), a.prec, [0])[0]
                 for _, a in kept]
        assert _pairs(rho._exp_levels("exp", z, [k for k, _ in kept],
                                      precs)) == \
            _pairs(_exp_reference(rho, a) for _, a in kept)
    lower = [w.prec - data.draw(st.integers(0, cfg.rel_prec)) for w in want]
    assert _pairs(rho._exp_levels("exp", z, ks, lower)) == \
        _pairs(w.truncate(r) for w, r in zip(want, lower))


def _pairs(values):
    return [(w.terms, w.prec) for w in values]


def test_exp_levels_share_products(ctx3):
    # a deep ladder over a period: rows kept by several levels are formed
    # once, and the levels still equal exp_eval; shift 0 and an off-grid
    # shift too
    rho = _fresh(ctx3)
    om = ctx3.lattice.omega1
    e = ctx3.cfg.e
    ks = [0, e // 3] + [(j + 1) * e for j in range(20)]
    assert _pairs(rho._exp_levels("exp", om, ks)) == \
        _pairs(_exp_reference(rho, om.shift(k)) for k in ks)


def test_qlinear_sum_exact_argument_uncapped(ctx3):
    # the additive step's sum -(kappa z^q + u z^(q^2)) through the planner,
    # on the table (0, -kappa, -u): exact coefficients, exact z and no
    # cap, so nothing is cut
    rho = _fresh(ctx3)
    z = ctx3.cfg.theta(-1)
    r = rho._precs("step", z.valuation(), INF, [0], [INF])
    got = rho._exp_levels("step", z, [0], r)[0]
    want = ctx3.cfg.theta() * z - rho.skew()(z)
    assert got.terms == want.terms and got.prec == want.prec == INF


# log and the additive step through the planner against the row scan


def _cm_inexact_module():
    data = json.loads((Path(__file__).parent / "data" /
                       "cm_q3_inexact.json").read_text())
    return decode_module(data)[1]


_LOG_MODULES = dict(_LADDER_MODULES, cm_q3=lambda: _cm_module(240))
_STEP_MODULES = {name: _LOG_MODULES[name]
                 for name in ("q3", "q3,kappa.prec=300", "cm_q3")}
_STEP_MODULES["cm_q3_inexact"] = _cm_inexact_module


def _log_reference(rho, z):
    """log(z) by the row scan: qlinear_oracle's sum over the log table cut
    at the 64-line tail floor, z itself for a z without terms, and
    DivergentEvaluation outside the certified disc."""
    if not z.terms:
        return z
    depth = rho.cfg.exp_depth
    floor = _tail_floor_formula(rho, "log", z.valuation(), depth)
    if not rho.log_certificate(z) or floor is None:
        raise DivergentEvaluation("outside the certified disc")
    return qlinear_oracle.qlinear_sum(rho.cfg, rho.log_coeffs(depth), z,
                                      floor)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_LOG_MODULES)), data=st.data())
def test_log_eval_matches_row_scan(name, data):
    # log_eval, the one-level ladder on the log table, equals the row scan
    # in terms and precision on exact, inexact and zero z; cm_q3 (kappa =
    # 0) has every odd log row exactly zero.  Outside the log disc both
    # sides raise
    rho = _ladder_module(name, _LOG_MODULES)
    z = data.draw(_ladder_argument(rho.cfg))
    try:
        want = _log_reference(rho, z)
    except DivergentEvaluation:
        with pytest.raises(DivergentEvaluation):
            rho.log_eval(z)
        return
    assert _pairs([rho.log_eval(z)]) == _pairs([want])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_STEP_MODULES)), data=st.data())
def test_step_matches_row_scan(name, data):
    # the additive step's sum -(kappa z^q + u z^(q^2)), a one-level ladder
    # on the table (0, -kappa, -u) whose floor is its caller's cap, equals the
    # row scan in terms and precision: caps below, at and above the
    # precision R the rows alone allow, and no cap.  kappa and u are exact
    # (q3, cm_q3) or known to finite precision (q3,kappa.prec=300, and
    # cm_q3_inexact, whose kappa is zero to precision 400)
    rho = _ladder_module(name, _STEP_MODULES)
    cfg = rho.cfg
    z = data.draw(_ladder_argument(cfg))
    assume(z.terms)
    table = [cfg.zero(INF), -rho.kappa, -rho.u]
    vz = z.valuation()
    own = rho._precs("step", vz, z.prec, [0], [INF])[0]
    # R for an exact z and exact kappa, u is INF: cut around the lowest
    # row's lowest term instead
    base = own if own != INF else min(
        c.vbound() + cfg.q ** i * vz for i, c in enumerate(table) if c.terms)
    d = data.draw(st.integers(1, 3 * cfg.e))
    for cap in (INF, base, base - d, base + d):
        r = rho._precs("step", vz, z.prec, [0], [cap])
        got = rho._exp_levels("step", z, [0], r)[0]
        want = qlinear_oracle.qlinear_sum(cfg, table, z, cap)
        assert _pairs([got]) == _pairs([want]), cap


_LEVEL_MODULES = dict(_LOG_MODULES, cm_q3_inexact=_cm_inexact_module)


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_LEVEL_MODULES)), data=st.data())
def test_exp_levels_match_rows_then_sums(name, data):
    # every ladder, exp's, log's and the additive step's, with one level or
    # 2 to 16, with and without held numerators (exp), equals the ladder
    # that formed each kept row by its own capped dot and summed each level
    # in one more dot, in terms and precision; z exact, inexact and zero to
    # precision.  Precisions are the planner's, or given lower; the step's
    # are its caps'
    rho = _ladder_module(name, _LEVEL_MODULES)
    cfg = rho.cfg
    kind, held = data.draw(st.sampled_from(
        [("exp", False), ("exp", True), ("log", False), ("step", False)]))
    z = data.draw(_ladder_argument(cfg))
    count = data.draw(st.integers(1, 16))
    shifts = [0] if count == 1 and data.draw(st.booleans()) else \
        data.draw(st.lists(st.integers(0, 6 * cfg.e), min_size=count,
                           max_size=count))
    if not z.terms:
        want = qlinear_oracle.ladder_levels(rho, kind, z, shifts, None)
        assert _pairs(rho._exp_levels(kind, z, shifts)) == _pairs(want)
        return
    numerators = ()
    if held:
        count = data.draw(st.integers(1, cfg.pole_count or cfg.exp_depth))
        numerators = rho._numerators(z, count)
    given = None
    if kind == "step":
        # caps around the lowest line, q (v(z) + k) + v(kappa) for kappa = 1
        given = [data.draw(st.one_of(st.just(INF), st.integers(
            cfg.q * (z.valuation() + k) - 3 * cfg.e,
            cfg.q * (z.valuation() + k) + 6 * cfg.e))) for k in shifts]
    try:
        precs = rho._precs(kind, z.valuation(), z.prec, shifts, given)
    except DivergentEvaluation:
        assert kind == "log"
        with pytest.raises(DivergentEvaluation):
            rho._exp_levels(kind, z, shifts, None, numerators)
        return
    if kind != "step" and data.draw(st.booleans()):
        got = rho._exp_levels(kind, z, shifts, None, numerators)
    else:
        precs = [r if r == INF else r - data.draw(
            st.integers(0, cfg.rel_prec)) for r in precs]
        got = rho._exp_levels(kind, z, shifts, precs, numerators)
    want = qlinear_oracle.ladder_levels(rho, kind, z, shifts, precs,
                                        numerators)
    assert _pairs(got) == _pairs(want)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_LOG_MODULES)), data=st.data())
def test_log_certificate_matches_scan(name, data):
    # the certificate over the kept power table equals the scan with a
    # fresh q ** i per index, inside and outside the disc; cm_q3 (kappa =
    # 0) has every odd log bound infinite
    rho = _ladder_module(name, _LOG_MODULES)
    cfg = rho.cfg
    z = data.draw(st.one_of(_ladder_argument(cfg), st.builds(
        cfg.monomial, st.integers(-12 * cfg.e, 12 * cfg.e),
        st.integers(1, cfg.field.size - 1))))
    assert rho.log_certificate(z) == qlinear_oracle.log_certificate(rho, z)


def test_step_needs_its_cap(ctx3):
    # the step has no tail floor to fall back on: a missing cap is an
    # error, never a default
    rho = _fresh(ctx3)
    with pytest.raises(TypeError):
        rho._precs("step", 0, INF, [0])
    with pytest.raises(TypeError):
        rho._exp_levels("step", ctx3.cfg.theta(-1), [0])


def _tail_floor_formula(module, kind, vz, start):
    """The tail floor with every power q^i computed where it is used; None
    where the bound does not stabilize."""
    cfg = module.cfg
    q, e = cfg.q, cfg.e
    end = start + 64
    bounds = module._coeff_vbounds(kind, end)
    floor = min(bounds[i] + q ** i * vz for i in range(start + 1, end + 1))
    vk, vu = module._vk, module._vu
    if kind == "exp":
        ok = min(vk + q * floor, vu + q * q * floor) + q ** end * e >= floor
    else:
        ok = vk + (q - 1) * vz + q * e >= 0 and \
            vu + (q * q - 1) * vz + q * q * e >= 0
    return floor if ok else None


def test_tail_floor_power_table_matches_formula():
    # the grid of test_quasi_period_floor_oracle on q3 and q5: kappa =
    # theta^k, u in {1, theta^3}, z = theta^a / theta^(j+1)
    for cfg in (FieldConfig(3, 1, 4, e=72, prec=240),
                FieldConfig(5, 1, 4, e=600, prec=240)):
        for k in range(9):
            for u in (cfg.one(), cfg.theta(3)):
                rho = DrinfeldModule(cfg, 2, cfg.theta(k), u)
                for a in range(-3, 8):
                    for j in range(0, 6):
                        vz = (j + 1 - a) * cfg.e
                        for kind in ("exp", "log"):
                            for start in (-1, cfg.exp_depth):
                                want = _tail_floor_formula(rho, kind, vz,
                                                           start)
                                if want is None:
                                    with pytest.raises(DivergentEvaluation):
                                        rho._tail_floors(kind, [vz], start)
                                else:
                                    got = rho._tail_floors(kind, [vz], start)
                                    assert got == [want], (k, a, j, kind)
                                    # the second call reads the kept
                                    # envelope
                                    assert rho._tail_floors(
                                        kind, [vz], start) == [want]


_ENVELOPE_MODULES = dict(_LADDER_MODULES, **{
    "cm_q3": lambda: _cm_module(240),
    "carlitz-q3": _TORSION_CASES["carlitz-q3"],
    "q3,pole_count=5": lambda: DrinfeldModule(
        FieldConfig(3, 1, 4, e=72, pole_count=5), 2, 1, 1)})


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_ENVELOPE_MODULES)), data=st.data())
def test_tail_envelope_matches_scan(name, data):
    # the one-pass floors and the planner's precisions over increasing
    # shifts equal those of the 64-line scan and the row scan, for both
    # tail kinds and every start the library passes: exp_depth (exp and log
    # sums), -1 (the t-series tail) and I - 1 (a generating function's
    # dropped poles); a floor that does not stabilize raises on both sides.
    # The precisions cover the exp, log and step tables, the step with
    # caps drawn around its rows' lines.  cm_q3 (kappa = 0) and Carlitz
    # (u = 0) have lines with an infinite bound
    rho = _ladder_module(name, _ENVELOPE_MODULES)
    cfg = rho.cfg
    e, depth = cfg.e, cfg.exp_depth
    vz = data.draw(st.integers(-80 * e, 40 * e))
    zprec = data.draw(st.one_of(
        st.just(INF), st.integers(vz + 1, vz + 1 + 2 * cfg.rel_prec)))
    shifts = list(itertools.accumulate(data.draw(st.lists(
        st.integers(0, 3 * e), min_size=1, max_size=8))))
    vzs = [vz + k for k in shifts]
    for kind in ("exp", "log"):
        for start in (depth, -1, (cfg.pole_count or depth) - 1):
            want = [_tail_floor_formula(rho, kind, v, start) for v in vzs]
            if None in want:
                with pytest.raises(DivergentEvaluation):
                    rho._tail_floors(kind, vzs, start)
            else:
                assert rho._tail_floors(kind, vzs, start) == want
    for kind in ("exp", "log"):
        want = [_prec_scan(rho, kind, vz + k, zprec + k) for k in shifts]
        if None in want:
            with pytest.raises(DivergentEvaluation):
                rho._precs(kind, vz, zprec, shifts)
        else:
            assert rho._precs(kind, vz, zprec, shifts) == want
    lines = [sorted((cfg.q * v, cfg.q * cfg.q * v)) for v in vzs]
    caps = [data.draw(st.one_of(st.just(INF),
                                st.integers(lo - 3 * e, hi + 3 * e)))
            for lo, hi in lines]
    assert rho._precs("step", vz, zprec, shifts, caps) == \
        [_prec_scan(rho, "step", vz + k, zprec + k, c)
         for k, c in zip(shifts, caps)]


def _least_passing(ok):
    """The least integer v with ok(v), for ok false below some integer and
    true from it on: an outward search from 0, then a bisection."""
    step = 1
    if ok(0):
        while ok(-step):
            step *= 2
        lo, hi = -step, 0
    else:
        while not ok(step):
            step *= 2
        lo, hi = 0, step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("name", sorted(set(_ENVELOPE_MODULES)
                                        | set(_LOG_MODULES)))
def test_thresholds_at_their_boundary(name):
    # each threshold is found by the oracles' scans and the library
    # refuses one below it and accepts at it: the exp and log tail floors
    # at the starts the library passes (exp_depth, -1 and pole_count - 1),
    # with the lowest of several arguments deciding, and the logarithm's
    # certificate on theta-monomials
    rho = _ladder_module(name, {**_ENVELOPE_MODULES, **_LOG_MODULES})
    cfg = rho.cfg
    depth = cfg.exp_depth
    for kind in ("exp", "log"):
        for start in (depth, -1, (cfg.pole_count or depth) - 1):
            at = _least_passing(lambda v: _tail_floor_formula(
                rho, kind, v, start) is not None)
            with pytest.raises(DivergentEvaluation):
                rho._tail_floors(kind, [at - 1], start)
            with pytest.raises(DivergentEvaluation):
                rho._tail_floors(kind, [at + cfg.e, at - 1], start)
            assert rho._tail_floors(kind, [at + cfg.e, at], start) == \
                [_tail_floor_formula(rho, kind, v, start)
                 for v in (at + cfg.e, at)], (kind, start)
    at = _least_passing(lambda v: qlinear_oracle.log_certificate(
        rho, cfg.monomial(v)))
    assert not rho.log_certificate(cfg.monomial(at - 1))
    assert rho.log_certificate(cfg.monomial(at))
    assert rho.log_certificate(cfg.monomial(at, 2, at + 1))
