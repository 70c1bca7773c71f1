"""The batch identity-verification suite.

Every explicit identity the theory provides is checked at configurable
precision on sample modules over q = 3 and q = 5, and each check emits a
JSON-able report {check, parameters, residual_valuations, threshold, pass}.
Residual valuations are lower bounds: "the residual is zero to valuation
v"; a check passes when every residual clears the pass threshold
(0.8 x working precision by default) and its side condition holds.  A
yes/no identity reports its residual as "inf" when it holds and "-inf"
when it fails.

The q = 5 sample with a theta-sized tau-coefficient has wildly ramified
large torsion (no theta-power grid contains it); its representable part is
checked for real and the unrepresentable remainder is reported with status
"blocked" rather than pass/fail.

The q3 sample and the two q5 samples share nothing, so when a second CPU
is usable the q5 group runs in a forked child while the caller runs q3;
the records are merged and sorted by check name either way, so the report
is the same bytes on both paths.
"""

import json
import os
import random
import signal
import threading
import time

from .agf import AndersonGF
from .cinf import INF, CInfApprox
from .drinfeld import (Biderivation, DrinfeldModule, Lattice,
                       compose_qlinear, verify_morphism)
from .encoding import encode_valuation
from .logext import ExtendedSystem, make_log_point, relation_certificate
from .motive import OmegaData
from .samples import context_q3, context_q5_tame, context_q5_wild
from .skew import SkewPoly

_BATTERY_SEED = 0xD21F


def _report(check, params, residuals, threshold, extra=None, require=True):
    """One suite record: it passes when ``require`` holds and every
    residual valuation clears ``threshold``."""
    rep = {
        "check": check,
        "parameters": params,
        "residual_valuations": [encode_valuation(r) for r in residuals],
        "threshold": threshold,
        "pass": bool(require and all(r >= threshold for r in residuals)),
    }
    if extra:
        rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# individual checks


def check_omega_difference(ctx, T=32):
    cfg = ctx.cfg
    om = OmegaData(cfg)
    res = om.difference_residual(T)
    return _report("omega-difference[%s]" % ctx.label,
                   {"q": cfg.q, "T": T, "I": om.I},
                   res.vbounds(), cfg.pass_threshold())


def check_carlitz_period(ctx):
    cfg = ctx.cfg
    om = OmegaData(cfg)
    pi = om.pi_tilde()
    lat = ctx.carlitz.periods()
    ratio = pi / lat.omega1
    ok_unit = not ratio.is_apparent_zero() and ratio.valuation() == 0
    lead = ratio.terms.get(0, 0) if ok_unit else 0
    in_fq = cfg.field.in_base_field(lead) and lead != 0
    resid = [(ratio - cfg.from_coeff(lead)).vbound()]
    return _report("carlitz-period-match[%s]" % ctx.label,
                   {"q": cfg.q}, resid, cfg.pass_threshold(),
                   {"ratio_leading_code": lead, "ratio_in_Fq": bool(in_fq)},
                   require=in_fq)


def _agf_values(ctx):
    """The generating functions of the three u-arguments of the
    generating-function checks: the period's is the one its tower keeps."""
    mod = ctx.module
    if ctx.wild:
        pts, _ = mod.torsion_points(partial=True)
        f_omega = ctx.tame_period_tower().gf
    else:
        pts = mod.torsion_points()
        lat = ctx.lattice
        f_omega = lat.gf_of(lat.omega1, mod)
    return [("torsion", AndersonGF(mod, pts[0])),
            ("theta^-1", AndersonGF(mod, ctx.cfg.theta(-1))),
            ("omega1", f_omega)]


def check_agf(ctx, T=24):
    cfg = ctx.cfg
    out = []
    for name, f in _agf_values(ctx):
        res = f.functional_equation_residual(T)
        out.append(_report("agf-difference[%s,u=%s]" % (ctx.label, name),
                           {"q": cfg.q, "T": T},
                           res.vbounds(), cfg.pass_threshold()))
        spec = f.specialization_residual()
        out.append(_report("agf-specialization[%s,u=%s]" % (ctx.label, name),
                           {"q": cfg.q}, [spec.vbound()],
                           cfg.pass_threshold()))
    return out


def check_periods_kernel(ctx):
    cfg = ctx.cfg
    if ctx.wild:
        tower = ctx.tame_period_tower()
        res = [ctx.module.exp_eval(tower.omega).vbound()]
        _, failures = ctx.module.torsion_points(partial=True)
        return _report("periods-kernel[%s]" % ctx.label,
                       {"q": cfg.q, "periods": 1}, res, cfg.pass_threshold(),
                       {"blocked": failures,
                        "note": "second basis period is wildly ramified; "
                                "not representable on any theta-power grid"})
    lat = ctx.lattice
    res = [ctx.module.exp_eval(om).vbound() for om in lat.basis()]
    return _report("periods-kernel[%s]" % ctx.label,
                   {"q": cfg.q, "periods": len(lat.basis())},
                   res, cfg.pass_threshold())


def check_psi(ctx, T=16):
    cfg = ctx.cfg
    mot = ctx.motive(T)
    out = [_report("psi-difference[%s]" % ctx.label, {"q": cfg.q, "T": T},
                   [mot.difference_residual().min_vbound()],
                   cfg.pass_threshold())]
    out.append(_report("psi-tensor[%s]" % ctx.label, {"q": cfg.q, "T": T},
                       [mot.tensor_difference_residual().min_vbound()],
                       cfg.pass_threshold()))
    out.append(_report("psi-wedge[%s]" % ctx.label, {"q": cfg.q, "T": T},
                       [mot.wedge_residual().min_vbound()],
                       cfg.pass_threshold()))
    sres, x0 = mot.sigma_invariance_residual()
    lead = x0.terms.get(0, 0)
    out.append(_report("det-psi-sigma-invariance[%s]" % ctx.label,
                       {"q": cfg.q, "T": T},
                       [sres.min_vbound()], cfg.pass_threshold(),
                       {"ratio_constant_code": lead,
                        "ratio_constant_in_Fq":
                            bool(cfg.field.in_base_field(lead))}))
    spec = mot.specialization_residuals()
    out.append(_report("psi-specialization[%s]" % ctx.label, {"q": cfg.q},
                       [spec[i][j].vbound() for i in range(2)
                        for j in range(2)],
                       cfg.pass_threshold()))
    P, M = mot.period_matrix()
    resid = []
    for i in range(2):
        for j in range(2):
            prod = P[i][0] * M[0][j] + P[i][1] * M[1][j]
            want = cfg.one() if i == j else cfg.zero(INF)
            resid.append((prod - want).vbound())
    out.append(_report("period-matrix-inverse[%s]" % ctx.label,
                       {"q": cfg.q}, resid, cfg.pass_threshold()))
    return out


def check_legendre(ctx):
    cfg = ctx.cfg
    mot = ctx.motive()
    out = []
    li = mot.legendre_invariant()
    out.append(_report("legendre[%s]" % ctx.label, {"q": cfg.q},
                       [li["unit_tail_valuation"]], cfg.pass_threshold(),
                       {"invariant_code": li["invariant_code"],
                        "is_minus_one": li["is_minus_one"]},
                       require=li["is_minus_one"]))
    # rescaling invariance for every c in F_q^x
    lat = ctx.lattice
    codes = []
    for c in cfg.field.base_field_elements():
        if c in (0,):
            continue
        scaled = Lattice(lat.omega1.scale(c), lat.omega2.scale(c),
                         lat.towers)
        li_c = mot.legendre_invariant_for(scaled)
        codes.append(li_c["invariant_code"])
    out.append(_report("legendre-rescale[%s]" % ctx.label,
                       {"q": cfg.q, "scalars": len(codes)},
                       [INF if all(c == cfg.field.neg(1) for c in codes)
                        else -INF],
                       cfg.pass_threshold(),
                       {"invariant_codes": codes}))
    # one unimodular basis change: (omega1 + theta omega2, omega2)
    uni = Lattice(lat.omega1 + cfg.theta() * lat.omega2, lat.omega2,
                  lat.towers)
    li_u = mot.legendre_invariant_for(uni)
    out.append(_report("legendre-unimodular[%s]" % ctx.label, {"q": cfg.q},
                       [li_u["unit_tail_valuation"]], cfg.pass_threshold(),
                       {"invariant_code": li_u["invariant_code"],
                        "is_minus_one": li_u["is_minus_one"]},
                       require=li_u["is_minus_one"]))
    return out


def check_log_layer(ctx, ns=(1, 2)):
    cfg = ctx.cfg
    out = []
    if ctx.wild:
        # only the g-vector specializations exist for this module
        # the point lambda = log(theta^-1), alpha = exp(lambda), read off
        # the generating function its check built
        mod = ctx.module
        P = make_log_point(mod, lam=mod.log_eval(cfg.theta(-1)))
        a, b = P.gf.twisted_pair_at_theta()
        r1 = -a - (P.lam - P.alpha)
        r2 = -b + P.gf.quasi_period()
        return [_report("log-g-specialization[%s]" % ctx.label, {"q": cfg.q},
                        [r1.vbound(), r2.vbound()], cfg.pass_threshold(),
                        {"note": "block systems need the full period basis, "
                                 "which is wildly ramified for this module"})]
    mot = ctx.motive()
    P = make_log_point(ctx.module, alpha=cfg.theta(-1))
    gv = P.g_vector(mot)
    r1, r2 = gv.specialization_residuals()
    out.append(_report("log-g-specialization[%s]" % ctx.label, {"q": cfg.q},
                       [r1.vbound(), r2.vbound()], cfg.pass_threshold()))
    out.append(_report("log-fneq[%s]" % ctx.label,
                       {"q": cfg.q, "T": mot.T},
                       [gv.functional_equation_residual().min_vbound()],
                       cfg.pass_threshold()))
    points = [P]
    for n in ns:
        while len(points) < n:
            points.append(make_log_point(
                ctx.module, lam=cfg.theta() * points[-1].lam))
        system = ExtendedSystem(mot, points[:n])
        out.append(_report("block-difference[%s,n=%d]" % (ctx.label, n),
                           {"q": cfg.q, "T": mot.T},
                           [system.difference_residual().min_vbound()],
                           cfg.pass_threshold()))
        if n == max(ns):
            rec = system.reconstruction_residuals()
            out.append(_report("block-reconstruction[%s,n=%d]"
                               % (ctx.label, n), {"q": cfg.q},
                               [v.vbound() for row in rec for v in row],
                               cfg.pass_threshold()))
    # relation certificates
    lat = ctx.lattice
    one, zero = cfg.one(), cfg.zero(INF)
    Pom = make_log_point(ctx.module, lam=lat.omega1)
    taut = relation_certificate(mot, [Pom],
                                {"l11": one, "l21": zero, "l": [one]})
    out.append(_report("relation-tautology[%s]" % ctx.label, {"q": cfg.q},
                       [taut["residual_valuation"]], cfg.pass_threshold()))
    rng = random.Random(_BATTERY_SEED)
    decisive = 0
    battery = 20
    worst = INF
    for _ in range(battery):
        def small():
            return cfg.from_int(rng.randrange(cfg.q)) \
                + cfg.theta() * cfg.from_int(rng.randrange(cfg.q))
        ell = {"l11": small(), "l21": small(), "l": [small()]}
        if all(x.is_apparent_zero()
               for x in [ell["l11"], ell["l21"]] + ell["l"]):
            ell["l"] = [one]
        rep = relation_certificate(mot, [P], ell)
        if not rep["pass"] and \
                rep["residual_valuation"] < int(0.3 * cfg.prec):
            decisive += 1
            worst = min(worst, rep["residual_valuation"])
    out.append({
        "check": "relation-battery[%s]" % ctx.label,
        "parameters": {"q": cfg.q, "battery": battery,
                       "refutation_bound": int(0.3 * cfg.prec)},
        "residual_valuations": [encode_valuation(worst)],
        "threshold": int(0.3 * cfg.prec),
        "pass": bool(decisive == battery),
        "decisive_failures": decisive,
    })
    return out


def check_algebra(ctx):
    cfg = ctx.cfg
    thr = cfg.pass_threshold()
    out = []
    # Ore adjoint anti-homomorphism on 100 random pairs of degree <= 4
    rng = random.Random(_BATTERY_SEED)
    safe = cfg.q ** 8
    F = cfg.field
    def rpoly():
        # each coefficient c0 + c1 theta^(-x) from the draws c0, x, c1
        coeffs = []
        for _ in range(rng.randrange(1, 5) + 1):
            c0 = rng.randrange(F.size)
            x = safe * rng.randrange(-1, 2)
            c1 = rng.randrange(F.size)
            terms = {0: F.add(c0, c1)} if x == 0 else {0: c0, x: c1}
            coeffs.append(CInfApprox(cfg, terms))
        return SkewPoly(cfg, coeffs)
    worst = INF
    for _ in range(100):
        f, g = rpoly(), rpoly()
        d = (f * g).adjoint() - (g.adjoint() * f.adjoint())
        for i in range(d.degree() + 1):
            c = d.coeff(i)
            if not c.is_exact_zero():
                worst = min(worst, c.vbound())
    out.append(_report("ore-adjoint[%s]" % ctx.label,
                       {"q": cfg.q, "pairs": 100, "max_degree": 4},
                       [worst], thr))
    for mod, name in [(ctx.carlitz, "carlitz"), (ctx.module, "rank2")]:
        # exp(log z) = z through z^(q^5)
        comp = compose_qlinear(mod.exp_coeffs(5), mod.log_coeffs(5), 5)
        resid = [(comp[0] - cfg.one()).vbound()] + \
            [comp[k].vbound() for k in range(1, 6)]
        out.append(_report("exp-log-roundtrip[%s,%s]" % (ctx.label, name),
                           {"q": cfg.q, "depth": 5}, resid, thr))
        # quasi-period recursion reproduces z - exp(z) for
        # delta = theta - rho_t
        d1 = Biderivation.inner_one(mod)
        qp = mod.quasi_period_coeffs(d1, 6)
        al = mod.exp_coeffs(6)
        resid = [(qp[i] + al[i]).vbound() for i in range(1, 7)]
        out.append(_report("quasi-period-inner[%s,%s]" % (ctx.label, name),
                           {"q": cfg.q, "depth": 6}, resid, thr))
    # CM commutation c rho_t = rho_t c for rho_t = theta + tau^2 (q = 3)
    if cfg.q == 3:
        cm = DrinfeldModule(cfg, 2, 0, 1)
        c = None
        for code in range(2, cfg.field.size):
            if cfg.field.frob_q(code, 2) == code \
                    and not cfg.field.in_base_field(code):
                c = code
                break
        rep = verify_morphism(SkewPoly(cfg, [cfg.from_coeff(c)]), cm)
        out.append(_report("cm-commutation[%s]" % ctx.label,
                           {"q": cfg.q, "module": "theta+tau^2",
                            "scalar_code": c},
                           [INF if rep["is_morphism"] else -INF], thr,
                           require=rep.get("adjoint_ok")))
    return out


# ---------------------------------------------------------------------------


def _groups():
    """The suite's jobs, each a sample context builder and the checks run
    on it in order, in two groups: q3, and q5-tame then q5-wild.  The table
    is read from this module's names on each run, so a wrapped or patched
    check is the one that runs.  Warm, in process under taskset -c 0 on a
    2-core shared box (median of 54 runs: 6 processes of 9), the jobs take
    33, 32 and 4.3 ms, so the groups take 33 and 36 ms; q5-wild beside q3
    would give 37 and 32.  A group in a forked child takes about 3-4 ms
    more than in process (median of 20, three processes): the fork, the
    pipe and the child's exit, about 2.5 ms of it with no job at all."""
    full = (check_omega_difference, check_carlitz_period, check_agf,
            check_periods_kernel, check_psi, check_legendre, check_log_layer,
            check_algebra)
    return (((context_q3, full),),
            ((context_q5_tame, full),
             (context_q5_wild, (check_agf, check_periods_kernel,
                                check_log_layer))))


def _run_group(group, timings):
    """The records of one group's jobs, in order; with timings, each one's
    wall_time is the seconds since the previous record of the group (a
    group runs in one process)."""
    records = []
    t0 = time.monotonic()
    for build, checks in group:
        ctx = build()
        for check in checks:
            reps = check(ctx)
            for rep in [reps] if isinstance(reps, dict) else reps:
                if timings:
                    now = time.monotonic()
                    rep["wall_time"] = round(now - t0, 3)
                    t0 = now
                records.append(rep)
    return records


def _can_fork():
    """True when a group may run in a forked child: the platform forks,
    the process has one thread (a forked thread-holding process may
    deadlock) and at least two CPUs are usable."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _run_side_by_side(local, remote, timings):
    """(local records, remote records), remote run in a forked child while
    this process runs local.  The child sends its records as JSON over a
    pipe and leaves through os._exit, so it runs no exit handler and
    flushes no inherited buffer.  The pipe is read to EOF before waitpid,
    so a payload larger than the pipe buffer cannot deadlock.  A child that
    raised or died leaves remote to run here, where its error comes out as
    in a sequential run; when local raises, the child is killed and reaped
    first.  No child outlives the call."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return _run_group(local, timings), _run_group(remote, timings)
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pipe.write(json.dumps(_run_group(remote, timings)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with open(rfd, "rb") as pipe:
        try:
            records = _run_group(local, timings)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    if os.waitpid(pid, 0)[1] == 0:
        return records, json.loads(data)
    return records, _run_group(remote, timings)


def run_suite(timings=False):
    """Run every check; returns the canonical suite report.

    The two job groups run side by side when _can_fork allows, else one
    after the other here; the records are sorted by check name, so the
    report does not depend on the path or on which group ends first.
    With timings a record's wall_time counts from the previous record of
    its group."""
    if _can_fork():
        local, remote = _run_side_by_side(*_groups(), timings)
    else:
        local, remote = [_run_group(group, timings) for group in _groups()]
    checks = local + remote
    checks.sort(key=lambda r: r["check"])
    return {
        "suite": "drinfeldlab-verify",
        "checks": checks,
        "pass": all(r["pass"] for r in checks),
    }
