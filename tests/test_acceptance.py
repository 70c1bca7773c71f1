"""Acceptance criteria, one test per criterion (or named sub-criterion).

Every check runs at its stated tolerance (residuals zero to >= 0.8 x N,
N = 240 grid units, unless the criterion says otherwise) and prints one
PASS/FAIL line.  The q = 5 sample module theta + theta tau + tau^2 has
wildly ramified large torsion (verified: the descent slope denominators
acquire a factor of 5 at every level, on every grid refinement), so its
second period and everything built on the full basis do not exist in any
theta-power-grid field; those sub-criteria are implemented faithfully and
marked xfail(strict) with the blocking analysis.
"""

import random
import time

import pytest

from drinfeldlab.agf import AndersonGF
from drinfeldlab.cinf import INF
from drinfeldlab.drinfeld import (Biderivation, DrinfeldModule, Lattice,
                                  compose_qlinear, verify_morphism)
from drinfeldlab.encoding import canonical_dumps
from drinfeldlab.logext import ExtendedSystem, make_log_point, \
    relation_certificate
from drinfeldlab.motive import OmegaData
from drinfeldlab.skew import SkewPoly
from drinfeldlab.verify import run_suite

N = 240
THRESH = int(0.8 * N)

WILD_REASON = (
    "the q=5 sample module theta + theta*tau + tau^2 has wildly ramified "
    "large torsion: the Newton-polygon descent meets residual equations "
    "z^5 = c with multiplicity 5 at every level and the slope denominators "
    "gain a factor of 5 each time (machine-checked at e = 100, 500, 2500), "
    "so the second period exists in no F_{q^m}((theta^(-1/e))) at all -- "
    "the same obstruction as expanding a root of w^5 - w = theta in "
    "fractional theta-powers")


def _line(name, ok, detail=""):
    print("ACCEPTANCE %-38s %s %s" % (name, "PASS" if ok else "FAIL",
                                      detail))


# -- criterion 1: Carlitz difference relation for Omega ------------------------


@pytest.mark.parametrize("ctxname", ["ctx3", "ctx5"])
def test_c1_omega_difference(request, ctxname):
    ctx = request.getfixturevalue(ctxname)
    cfg = ctx.cfg
    assert cfg.prec == N
    start = time.monotonic()
    om = OmegaData(cfg)
    res = om.difference_residual(32)
    elapsed = time.monotonic() - start
    ok = res.is_zero_to(THRESH) and len(res.coeffs) == 32 and elapsed < 2.0
    _line("1 omega-difference[q=%d]" % cfg.q, ok,
          "(min residual v >= %s, %.2fs)" % (res.min_vbound(), elapsed))
    assert res.is_zero_to(THRESH)
    assert elapsed < 2.0


# -- criterion 2: generating-function identities -------------------------------


def _fu_battery(ctx, torsion_point, omega1):
    cfg = ctx.cfg
    results = []
    for name, u in [("torsion", torsion_point), ("theta^-1", cfg.theta(-1)),
                    ("omega1", omega1)]:
        f = AndersonGF(ctx.module, u)
        r1 = f.functional_equation_residual(24)
        r2 = f.specialization_residual()
        results.append((name, r1.min_vbound(), r2.vbound(),
                        r1.is_zero_to(THRESH) and r2.is_zero_to(THRESH)))
    return results


def test_c2_functional_equations_q3(ctx3):
    start = time.monotonic()
    results = _fu_battery(ctx3, ctx3.module.torsion_points()[0],
                          ctx3.lattice.omega1)
    elapsed = time.monotonic() - start
    ok = all(r[3] for r in results) and elapsed < 5.0
    _line("2 agf-identities[q=3]", ok,
          "(%s, %.2fs)" % (["%s: v>=%s/%s" % r[:3] for r in results],
                           elapsed))
    assert all(r[3] for r in results)
    assert elapsed < 5.0


def test_c2_functional_equations_q5(ctx5w):
    # the representable torsion line and the tame period serve as u-values;
    # the basis is ordered so that omega1 is the representable period
    start = time.monotonic()
    points, _ = ctx5w.module.torsion_points(partial=True)
    omega1 = ctx5w.tame_period_tower().omega
    results = _fu_battery(ctx5w, points[0], omega1)
    elapsed = time.monotonic() - start
    ok = all(r[3] for r in results) and elapsed < 5.0
    _line("2 agf-identities[q=5]", ok,
          "(%s, %.2fs)" % (["%s: v>=%s/%s" % r[:3] for r in results],
                           elapsed))
    assert all(r[3] for r in results)
    assert elapsed < 5.0


# -- criterion 3: periods -------------------------------------------------------


def test_c3_periods_q3(ctx3):
    rho = ctx3.module
    resid = [rho.exp_eval(om).vbound() for om in ctx3.lattice.basis()]
    ok = all(v >= THRESH for v in resid)
    _line("3 periods-kernel[q=3]", ok, "(residuals %s)" % resid)
    assert ok


@pytest.mark.parametrize("ctxname", ["ctx3", "ctx5"])
def test_c3_carlitz_period_match(request, ctxname):
    ctx = request.getfixturevalue(ctxname)
    cfg = ctx.cfg
    pi = OmegaData(cfg).pi_tilde()
    lat = ctx.carlitz.periods()
    ratio = pi / lat.omega1
    lead = ratio.terms.get(0, 0) if not ratio.is_apparent_zero() else 0
    tail = (ratio - cfg.from_coeff(lead)).vbound()
    ok = (ratio.valuation() == 0 and lead != 0
          and cfg.field.in_base_field(lead) and tail >= THRESH)
    _line("3 carlitz-period-match[q=%d]" % cfg.q, ok,
          "(ratio code %s in F_q, tail v >= %s)" % (lead, tail))
    assert ok


@pytest.mark.xfail(strict=True, reason=WILD_REASON)
def test_c3_periods_q5_spec_module(ctx5w):
    # faithful attempt: both periods of theta + theta*tau + tau^2 (q=5)
    try:
        lat = ctx5w.module.periods()
    except Exception as ex:
        _line("3 periods-kernel[q=5]", False,
              "(blocked: %s: %s)" % (type(ex).__name__, ex))
        raise
    resid = [ctx5w.module.exp_eval(om).vbound() for om in lat.basis()]
    assert all(v >= THRESH for v in resid)


# -- criterion 4: Legendre invariant --------------------------------------------


@pytest.mark.parametrize("ctxname", ["ctx3", "ctx5"])
def test_c4_legendre(request, ctxname):
    ctx = request.getfixturevalue(ctxname)
    cfg = ctx.cfg
    mot = ctx.motive(16)
    lat = ctx.lattice
    li = mot.legendre_invariant()
    ok = li["is_minus_one"] and li["unit_tail_valuation"] >= THRESH
    rescale_ok = True
    for c in cfg.field.base_field_elements():
        if c == 0:
            continue
        scaled = Lattice(lat.omega1.scale(c), lat.omega2.scale(c),
                         lat.towers)
        rescale_ok &= mot.legendre_invariant_for(scaled)["is_minus_one"]
    uni = Lattice(lat.omega1 + cfg.theta() * lat.omega2, lat.omega2,
                  lat.towers)
    uni_ok = mot.legendre_invariant_for(uni)["is_minus_one"]
    _line("4 legendre-invariant[q=%d]" % cfg.q,
          ok and rescale_ok and uni_ok,
          "(exact -1; rescale x%d ok; unimodular ok)"
          % (cfg.q - 1))
    assert ok and rescale_ok and uni_ok


# -- criterion 5: motive difference equations ------------------------------------


@pytest.mark.parametrize("ctxname", ["ctx3", "ctx5"])
def test_c5_motive_difference_equations(request, ctxname):
    ctx = request.getfixturevalue(ctxname)
    cfg = ctx.cfg
    mot = ctx.motive(16)
    r_psi = mot.difference_residual()
    r_tensor = mot.tensor_difference_residual()
    r_sigma, _ = mot.sigma_invariance_residual()
    spec = mot.specialization_residuals()
    P, M = mot.period_matrix()
    inv_resid = []
    for i in range(2):
        for j in range(2):
            prod = P[i][0] * M[0][j] + P[i][1] * M[1][j]
            want = cfg.one() if i == j else cfg.zero(INF)
            inv_resid.append((prod - want).vbound())
    ok = (r_psi.is_zero_to(THRESH) and r_tensor.is_zero_to(THRESH)
          and r_sigma.is_zero_to(THRESH)
          and all(spec[i][j].is_zero_to(THRESH)
                  for i in range(2) for j in range(2))
          and all(v >= THRESH for v in inv_resid))
    _line("5 motive-difference[q=%d]" % cfg.q, ok,
          "(psi %s, tensor %s, sigma %s, spec ok, inverse ok)"
          % (r_psi.min_vbound(), r_tensor.min_vbound(),
             r_sigma.min_vbound()))
    assert ok


# -- criterion 6: logarithm layer -------------------------------------------------


def test_c6_log_layer_q3(ctx3):
    cfg = ctx3.cfg
    mot = ctx3.motive(16)
    from drinfeldlab.logext import GVector
    P = make_log_point(ctx3.module, alpha=cfg.theta(-1))
    gv = GVector(mot, P)
    r1, r2 = gv.specialization_residuals()
    blocks_ok = True
    points = [P]
    for n in (1, 2):
        while len(points) < n:
            points.append(make_log_point(ctx3.module,
                                         lam=cfg.theta() * points[-1].lam))
        system = ExtendedSystem(mot, points[:n])
        blocks_ok &= system.difference_residual().is_zero_to(THRESH)
    one, zero = cfg.one(), cfg.zero(INF)
    Pom = make_log_point(ctx3.module, lam=ctx3.lattice.omega1)
    taut = relation_certificate(mot, [Pom],
                                {"l11": one, "l21": zero, "l": [one]})
    rng = random.Random(0xD21F)
    battery_ok = True
    bound = int(0.3 * N)
    for _ in range(20):
        def small():
            return cfg.from_int(rng.randrange(3)) \
                + cfg.theta() * cfg.from_int(rng.randrange(3))
        ell = {"l11": small(), "l21": small(), "l": [small()]}
        if all(x.is_apparent_zero()
               for x in [ell["l11"], ell["l21"]] + ell["l"]):
            ell["l"] = [one]
        rep = relation_certificate(mot, [P], ell)
        battery_ok &= (not rep["pass"]
                       and rep["residual_valuation"] < bound)
    ok = (r1.is_zero_to(THRESH) and r2.is_zero_to(THRESH) and blocks_ok
          and taut["pass"] and battery_ok)
    _line("6 log-layer[q=3]", ok,
          "(g1 %s, g2 %s, blocks ok, tautology ok, battery 20/20)"
          % (r1.vbound(), r2.vbound()))
    assert ok


def test_c6_g_specialization_q5(ctx5w):
    # lambda = log(theta^{-1}) exists for the q=5 sample module even though
    # its full period basis does not
    cfg = ctx5w.cfg
    mod = ctx5w.module
    lam = mod.log_eval(cfg.theta(-1))
    alpha = mod.exp_eval(lam)
    f = AndersonGF(mod, lam)
    th = cfg.theta()
    g1t = -(mod.kappa * f.eval_twisted(1, th) + mod.u * f.eval_twisted(2, th))
    g2t = -f.eval_twisted(1, th)
    r1 = g1t - (lam - alpha)
    r2 = g2t + mod.quasi_period_eval(lam)
    ok = r1.is_zero_to(THRESH) and r2.is_zero_to(THRESH)
    _line("6 log-g-specialization[q=5]", ok,
          "(residuals %s, %s)" % (r1.vbound(), r2.vbound()))
    assert ok


@pytest.mark.xfail(strict=True, reason=WILD_REASON)
def test_c6_blocks_q5_spec_module(ctx5w):
    try:
        mot = ctx5w.motive(16)
    except Exception as ex:
        _line("6 block-systems[q=5]", False,
              "(blocked: %s: %s)" % (type(ex).__name__, ex))
        raise
    P = make_log_point(ctx5w.module, alpha=ctx5w.cfg.theta(-1))
    system = ExtendedSystem(mot, [P])
    assert system.difference_residual().is_zero_to(THRESH)


# -- criterion 7: algebra suite ----------------------------------------------------


def test_c7_algebra(ctx3):
    cfg = ctx3.cfg
    rng = random.Random(0xD21F)
    scale = cfg.q ** 8
    adjoint_ok = True
    for _ in range(100):
        def rpoly():
            return SkewPoly(cfg, [
                cfg.from_coeff(rng.randrange(cfg.field.size))
                + cfg.monomial(scale * rng.randrange(-1, 2),
                               rng.randrange(cfg.field.size))
                for _ in range(rng.randrange(5))] or [cfg.one()])
        f, g = rpoly(), rpoly()
        adjoint_ok &= ((f * g).adjoint() == g.adjoint() * f.adjoint())
    # exp . log = id through z^(q^5)
    roundtrip_ok = True
    for mod in (ctx3.carlitz, ctx3.module):
        comp = compose_qlinear(mod.exp_coeffs(5), mod.log_coeffs(5), 5)
        roundtrip_ok &= (comp[0] - cfg.one()).is_zero_to(THRESH)
        roundtrip_ok &= all(comp[k].is_zero_to(THRESH) for k in range(1, 6))
    # quasi-period recursion reproduces z - exp(z) to depth 6
    qp_ok = True
    for mod in (ctx3.carlitz, ctx3.module):
        d1 = Biderivation.inner_one(mod)
        qp = mod.quasi_period_coeffs(d1, 6)
        al = mod.exp_coeffs(6)
        qp_ok &= all((qp[i] + al[i]).is_zero_to(THRESH)
                     for i in range(1, 7))
    # CM commutation, exact
    cm = DrinfeldModule(cfg, 2, 0, 1)
    c = next(code for code in range(2, cfg.field.size)
             if cfg.field.frob_q(code, 2) == code
             and not cfg.field.in_base_field(code))
    rep = verify_morphism(SkewPoly(cfg, [cfg.from_coeff(c)]), cm)
    cm_ok = rep["is_morphism"] and rep["adjoint_ok"] \
        and all(v == "inf" or v == INF for v in rep["residual_valuations"])
    ok = adjoint_ok and roundtrip_ok and qp_ok and cm_ok
    _line("7 algebra-suite", ok,
          "(adjoint 100/100, roundtrip ok, quasi-period ok, CM exact)")
    assert ok


# -- criterion 8: determinism and wall time ------------------------------------------


@pytest.mark.slow
def test_c8_determinism():
    start = time.monotonic()
    rep1 = run_suite()
    rep2 = run_suite()
    elapsed = time.monotonic() - start
    b1, b2 = canonical_dumps(rep1), canonical_dumps(rep2)
    ok = (b1 == b2) and rep1["pass"] and elapsed < 60.0
    _line("8 determinism", ok,
          "(byte-identical %s, all checks pass %s, 2 runs in %.1fs)"
          % (b1 == b2, rep1["pass"], elapsed))
    assert b1 == b2
    assert rep1["pass"]
    assert elapsed < 60.0
