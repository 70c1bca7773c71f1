import random
import sys
import threading
from types import SimpleNamespace

import pytest

from drinfeldlab.agf import AndersonGF
from drinfeldlab.cinf import INF, CInfApprox, FieldConfig
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.errors import ConfigError
from drinfeldlab.logext import (ExtendedSystem, GVector, make_log_point,
                                relation_certificate)
from drinfeldlab.motive import MotiveMatrices


@pytest.fixture(scope="module")
def mot(ctx3):
    return ctx3.motive(16)


@pytest.fixture(scope="module")
def point(ctx3):
    return make_log_point(ctx3.module, alpha=ctx3.cfg.theta(-1))


def test_log_point_round_trip(ctx3, point):
    thr = ctx3.cfg.pass_threshold()
    assert (ctx3.module.exp_eval(point.lam) - point.alpha).is_zero_to(thr)
    assert point.provenance == "lifted-from-alpha"


def test_log_point_from_lambda(ctx3):
    lam = ctx3.cfg.theta(-1)
    P = make_log_point(ctx3.module, lam=lam)
    assert P.provenance == "given-lambda"
    assert P.alpha.terms == ctx3.module.exp_eval(lam).terms


def test_readers_keep_their_holders_generating_functions():
    # MotiveMatrices reads the generating function each period's tower
    # keeps, and a g-vector the one its point keeps: the objects whose
    # exp(u) the residual checks read, over the module that built them
    from drinfeldlab.samples import context_q3
    ctx = context_q3()
    rho, lat = ctx.module, ctx.lattice
    mot = MotiveMatrices(rho, lat, T=4)
    assert [mot.agf1, mot.agf2] == [tw.gf for tw in lat.towers]
    assert all(tw.gf.module is rho and tw.gf.u is tw.omega
               for tw in lat.towers)
    point = make_log_point(rho, alpha=ctx.cfg.theta(-1))
    assert point.gf.module is rho and point.gf.u is point.lam
    assert GVector(mot, point).agf is point.gf
    assert point.generating_function(rho) is point.gf
    # F(omega_i) over the lattice is the tower's generating function's
    # quasi-period, computed once
    assert all(rho.quasi_period_eval(tw.omega, lattice=lat)
               is tw.gf.quasi_period() for tw in lat.towers)


def test_holders_free_their_module_by_reference_counting():
    # the towers of a module's memoized lattice keep generating functions
    # over that module, which refer to it weakly: the module, its lattice,
    # a motive and a log point are freed as soon as their last reader
    # drops them, without the cyclic collector; a lattice that outlives
    # its module keeps its towers' numerators but no module
    import gc
    import weakref
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    enabled = gc.isenabled()
    gc.disable()
    try:
        rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
        lat = rho.periods()
        mot = MotiveMatrices(rho, lat, T=4)
        point = make_log_point(rho, alpha=cfg.theta(-1))
        GVector(mot, point).specialization_residuals()
        gone = weakref.ref(rho)
        del rho, mot, point
        assert gone() is None
        gf = lat.towers[0].gf
        assert gf.module is None and gf.numerators
        other = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
        assert lat.gf_of(lat.omega1, other) is None
    finally:
        if enabled:
            gc.enable()


def _two_q3_modules():
    """rho1 = theta + tau + tau^2 and rho2 = theta + theta tau + tau^2 on
    the q3 grid at N = 240, fresh."""
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    return (DrinfeldModule(cfg, 2, cfg.one(), cfg.one()),
            DrinfeldModule(cfg, 2, cfg.theta(), cfg.one()))


def test_quasi_period_ignores_a_foreign_lattice():
    # the lattice of rho1 holds omega1 with rho1's generating function: F
    # over rho2 of that very value is rho2's own sum, not rho1's memo
    rho1, rho2 = _two_q3_modules()
    lat = rho1.periods()
    om = lat.omega1
    got = rho2.quasi_period_eval(om, lattice=lat)
    want = rho2.quasi_period_eval(om)
    assert (got.terms, got.prec) == (want.terms, want.prec)
    # the same holds for a lattice other than the module's own, built by
    # rho1 from rho1's default seeds, for MotiveMatrices over rho2
    mot = MotiveMatrices(rho2, lat, T=4)
    assert mot.agf1.module is rho2 and mot.agf1 is not lat.towers[0].gf


def test_log_point_generating_function_over_another_module():
    # a point checked over rho1 keeps rho1's generating function; over
    # rho2 its generating function is rho2's own, with rho2's numerators
    rho1, rho2 = _two_q3_modules()
    om = rho1.periods().omega1
    point = make_log_point(rho1, lam=om)
    gf = point.generating_function(rho2)
    assert gf.module is rho2
    want = AndersonGF(rho2, om).twisted_pair_at_theta()
    got = gf.twisted_pair_at_theta()
    assert [(x.terms, x.prec) for x in got] == \
        [(x.terms, x.prec) for x in want]


def test_log_point_period_maps_to_zero(ctx3):
    P = make_log_point(ctx3.module, lam=ctx3.lattice.omega1)
    assert P.alpha.is_zero_to(ctx3.cfg.pass_threshold())


def test_log_point_periodicity(ctx3, point):
    thr = ctx3.cfg.pass_threshold()
    shifted = make_log_point(ctx3.module,
                             lam=point.lam + ctx3.lattice.omega1)
    assert (shifted.alpha - point.alpha).is_zero_to(thr)


def test_log_point_validation(ctx3):
    # neither or both coordinates is a usage error, not a failed check
    with pytest.raises(ConfigError):
        make_log_point(ctx3.module)
    with pytest.raises(ConfigError):
        make_log_point(ctx3.module, lam=ctx3.cfg.one(),
                       alpha=ctx3.cfg.one())


def test_g_vector_specializations(ctx3, mot, point):
    gv = GVector(mot, point)
    r1, r2 = gv.specialization_residuals()
    thr = ctx3.cfg.pass_threshold()
    assert r1.is_zero_to(thr)
    assert r2.is_zero_to(thr)


def _series_pair(gv):
    return [[(c.terms, c.prec) for c in g.coeffs] + [g.tail]
            for g in (gv.g1, gv.g2)]


def test_g_vector_series_on_first_read(ctx3, mot, point, monkeypatch):
    # the specialization reads the poles alone; g1 and g2, read afterwards,
    # are the former eager pair -(kappa f^(1) + f^(2)), -f^(1), built once
    calls = []
    series = AndersonGF.series

    def counted(self, T=None):
        calls.append(T)
        return series(self, T)

    monkeypatch.setattr(AndersonGF, "series", counted)
    gv = GVector(mot, point)
    r1, r2 = gv.specialization_residuals()
    thr = ctx3.cfg.pass_threshold()
    assert r1.is_zero_to(thr) and r2.is_zero_to(thr)
    assert not calls
    g1, g2 = gv.g1, gv.g2
    assert calls == [mot.T]
    assert gv.g1 is g1 and gv.g2 is g2 and calls == [mot.T]
    monkeypatch.undo()
    a, b = AndersonGF(mot.module, point.lam).twisted_pair(mot.T)
    for got, want in ((g1, -a), (g2, -b)):
        assert got.T == want.T == mot.T and got.tail == want.tail
        assert [(c.terms, c.prec) for c in got.coeffs] == \
            [(c.terms, c.prec) for c in want.coeffs]
    # a module that is not normalized is refused at construction, as before
    raw = DrinfeldModule(ctx3.cfg, 2, ctx3.cfg.one(), ctx3.cfg.theta(-1))
    with pytest.raises(ConfigError):
        GVector(SimpleNamespace(module=raw, cfg=ctx3.cfg, T=4), point)


def _run_in_threads(work, count):
    """work() in count threads at a tiny switch interval, restored
    afterwards; their results."""
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


def test_g_vector_series_thread_safe(mot, point):
    # threads reading one fresh g-vector's series get the serial pair
    want = _series_pair(GVector(mot, point))
    shared = GVector(mot, point)
    results = _run_in_threads(lambda: _series_pair(shared), 4)
    assert all(got == want for got in results)


def _chain(rho):
    """periods, Psi, F(omega_i), a log point and its g-vector residuals on
    rho, encoded; the towers' and the point's kept numerators too."""
    cfg = rho.cfg
    lat = rho.periods()
    mot = MotiveMatrices(rho, lat, T=8)
    point = make_log_point(rho, alpha=cfg.theta(-1))
    gv = GVector(mot, point)
    values = lat.basis() + [rho.quasi_period_eval(om, lattice=lat)
                            for om in lat.basis()]
    values += [point.lam, point.alpha, *gv.specialization_residuals()]
    values += [x for tw in lat.towers for x in tw.gf.numerators]
    values += point.gf.numerators
    values += [c for r in mot.psi.rows for a in r for c in a.coeffs]
    values += [r[0] for r in gv.functional_equation_residual().rows]
    return [(x.terms, x.prec) if hasattr(x, "terms")
            else [(c.terms, c.prec) for c in x.coeffs] for x in values]


def _blocks(mot, points):
    """The block systems n = 1 and n = 2 on points, encoded: Psi_n, its
    difference residual and reconstruction, and the series pair the first
    point's generating function keeps."""
    out = []
    for n in (1, 2):
        system = ExtendedSystem(mot, points[:n])
        out += [a for r in system.psi_n.rows for a in r]
        out += [r[0] for r in system.difference_residual().rows]
        out += [x for r in system.reconstruction_residuals() for x in r]
    gf = points[0].generating_function(mot.module)
    out += list(gf.twisted_pair(mot.T)) + list(gf.twisted_pair_at_theta())
    return [(x.terms, x.prec) if hasattr(x, "terms")
            else (x.tail, [(c.terms, c.prec) for c in x.coeffs])
            for x in out]


def test_shared_module_thread_safe():
    # six threads through one cold module at N = 480: the lattice, Psi,
    # F(omega_i), a log point and its g-vector, the numerators the towers
    # and the point keep, all as a serial run on a fresh module gives them;
    # then six threads through the block systems n = 1 and n = 2 on one
    # shared pair of cold points, whose first point's generating function
    # and series pair every system shares
    cfg = FieldConfig(3, 1, 4, e=72, prec=480)

    def module():
        return DrinfeldModule(cfg, 2, cfg.one(), cfg.one())

    want = _chain(module())
    shared = module()
    results = _run_in_threads(lambda: _chain(shared), 6)
    assert all(got == want for got in results)

    def setup():
        rho = module()
        mot = MotiveMatrices(rho, rho.periods(), T=8)
        point = make_log_point(rho, alpha=cfg.theta(-1))
        return mot, [point, make_log_point(rho, lam=cfg.theta() * point.lam)]

    want = _blocks(*setup())
    mot, points = setup()
    results = _run_in_threads(lambda: _blocks(mot, points), 6)
    assert all(got == want for got in results)


def test_log_layer_builds_each_series_once(monkeypatch):
    # check_log_layer on a fresh q3 context reads the g-vector of its point
    # P alone, in the n = 1 and in the n = 2 block system: P keeps its
    # generating function and that its series pair, so the series of each
    # log point (P and the second point of n = 2) is built once
    from drinfeldlab.samples import context_q3
    from drinfeldlab.verify import check_log_layer

    built = []
    series = AndersonGF.series

    def spy(self, T=None):
        built.append(self.u)
        return series(self, T)

    ctx = context_q3()
    monkeypatch.setattr(AndersonGF, "series", spy)
    reports = check_log_layer(ctx)
    monkeypatch.undo()
    assert all(r["pass"] for r in reports)
    assert len(built) == 2 and built[0] is not built[1]


def test_psi_and_g_vector_form_no_products(monkeypatch):
    # at N = 1920 the generating functions of the periods and of a log
    # point, and F(lambda), cut the numerators that the towers' and the
    # point's residual checks formed: MotiveMatrices and GVector form no
    # product alpha_i u^(q^i), neither a full nor a capped one
    cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    lat = rho.periods()
    point = make_log_point(rho, alpha=cfg.theta(-2))
    formed = []
    pair = DrinfeldModule._ladder_pair

    def numerators(self, z, count=None):
        raise AssertionError("formed the numerators again")

    # every row a ladder forms is cut through _ladder_pair; the products
    # alpha_i u^(q^i) are the exp table's rows
    def pair_spy(self, kind, z, i, cap):
        if kind == "exp":
            formed.append(i)
        return pair(self, kind, z, i, cap)

    monkeypatch.setattr(DrinfeldModule, "_numerators", numerators)
    monkeypatch.setattr(DrinfeldModule, "_ladder_pair", pair_spy)
    mot = MotiveMatrices(rho, lat, T=16)
    gv = GVector(mot, point)
    r1, r2 = gv.specialization_residuals()
    gv.g1
    assert formed == []
    thr = cfg.pass_threshold()
    assert r1.is_zero_to(thr) and r2.is_zero_to(thr)


def test_numerators_twist_only_the_digits_they_keep(monkeypatch):
    # at N = 1920 the numerators of the two periods and of a log point
    # are formed from the argument's digits below each row's precision:
    # rows past the first keep a few low digits, and only those are
    # twisted (the full arguments, twisted for every row, are 4,325 terms)
    cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    frob, numerators = CInfApprox.frob_p, DrinfeldModule._numerators
    inside, twisted, sets = [], [], []

    def frob_spy(self, k):
        if inside and k:
            twisted.append(len(self.terms))
        return frob(self, k)

    def numerators_spy(self, z, count=None):
        inside.append(z)
        try:
            got = numerators(self, z, count)
        finally:
            inside.pop()
        sets.append(got)
        return got

    monkeypatch.setattr(CInfApprox, "frob_p", frob_spy)
    monkeypatch.setattr(DrinfeldModule, "_numerators", numerators_spy)
    lat = rho.periods()
    point = make_log_point(rho, alpha=cfg.theta(-2))
    monkeypatch.undo()
    assert len(sets) == 3 and sum(twisted) <= 600
    thr = cfg.pass_threshold()
    assert all(rho.exp_eval(om).is_zero_to(thr) for om in lat.basis())
    assert (rho.exp_eval(point.lam) - point.alpha).is_zero_to(thr)


def test_every_ladder_row_read_once(monkeypatch):
    # one deep-q3 op at N = 1920, and exp(lambda), whose one level keeps
    # rows that no caller holds: inside every ladder (_level_pairs, which
    # every _exp_levels level and every additive step reads, and the
    # quasi-period sum that plans at level 0), each row that _ladder_plan
    # keeps is read exactly once, either through _ladder_pair, capped at
    # its largest cut, or as a numerator the caller holds.  The count is
    # of exp ladders; the log and additive-step ladders of the torsion and
    # the towers keep the same rule
    cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    frames, ladders = [], []
    plan, pair = DrinfeldModule._ladder_plan, DrinfeldModule._ladder_pair
    numerators = DrinfeldModule._numerators

    class Held(list):
        # a numerator list that records its reads inside a ladder
        def __getitem__(self, i):
            if frames:
                frames[-1][2].append((i, None))
            return list.__getitem__(self, i)

    def ladder(method, kind=None):
        def spy(self, *args, **kwargs):
            frames.append((kind or args[0], [], []))
            try:
                return method(self, *args, **kwargs)
            finally:
                ladders.append(frames.pop())
        return spy

    def plan_spy(self, kind, z, shifts, precs):
        plans, caps = plan(self, kind, z, shifts, precs)
        frames[-1][1].append({i: max(cs) for i, cs in caps.items()})
        return plans, caps

    def pair_spy(self, kind, z, i, cap):
        if frames:
            frames[-1][2].append((i, cap))
        return pair(self, kind, z, i, cap)

    monkeypatch.setattr(DrinfeldModule, "_level_pairs",
                        ladder(DrinfeldModule._level_pairs))
    monkeypatch.setattr(DrinfeldModule, "_quasi_period_sum",
                        ladder(DrinfeldModule._quasi_period_sum, "exp"))
    monkeypatch.setattr(DrinfeldModule, "_ladder_plan", plan_spy)
    monkeypatch.setattr(DrinfeldModule, "_ladder_pair", pair_spy)
    monkeypatch.setattr(DrinfeldModule, "_numerators",
                        lambda self, *a: Held(numerators(self, *a)))
    lat = rho.periods()
    mot = MotiveMatrices(rho, lat, T=16)
    mot.difference_residual()
    mot.specialization_residuals()
    mot.legendre_invariant()
    point = make_log_point(rho, alpha=cfg.theta(-2))
    GVector(mot, point).specialization_residuals()
    for om in lat.basis():
        rho.quasi_period_eval(om, lattice=lat)
    rho.exp_eval(point.lam)
    monkeypatch.undo()
    assert sum(1 for kind, plans, _ in ladders
               if kind == "exp" and plans) >= 9
    assert {kind for kind, _, _ in ladders} == {"exp", "log", "step"}
    held = pairs = 0
    for _, plans, reads in ladders:
        # a ladder over zero plans nothing and reads no row
        assert len(plans) == (1 if plans or reads else 0)
        caps = plans[0] if plans else {}
        assert sorted(i for i, _ in reads) == sorted(caps)
        for i, cap in reads:
            assert cap in (None, caps[i])
        held += sum(1 for _, cap in reads if cap is None)
        pairs += sum(1 for _, cap in reads if cap is not None)
    # both ways occur: the towers' and the point's numerators are read in
    # place, and the other rows are cut through _ladder_pair
    assert held and pairs


def test_one_level_ladders_take_one_dot(ctx3, monkeypatch):
    # exp_eval, log_eval and one step of the additive solver are each one
    # dot over the rows they keep (and, for the step, b): no row is formed
    # by a dot of its own
    from drinfeldlab import drinfeld
    rho = ctx3.module
    cfg = ctx3.cfg
    z = cfg.theta(-1) + cfg.theta(-3)
    rho.exp_eval(z), rho.log_eval(z)  # the tables, built once
    calls = []
    dot = drinfeld.dot

    def spy(*args, **kwargs):
        calls.append(len(args[1]))
        return dot(*args, **kwargs)

    monkeypatch.setattr(drinfeld, "dot", spy)
    want = rho.exp_eval(z.shift(1))
    assert len(calls) == 1 and calls[0] > 1
    del calls[:]
    rho.log_eval(z.shift(1))
    assert len(calls) == 1 and calls[0] > 1
    del calls[:]
    # one step from x0 = b/theta: d0 is the distance it proves, and prec
    # stops the loop after it
    b = want
    x0 = CInfApprox(cfg, b.shift(cfg.e).terms, INF)
    v0 = x0.valuation()
    d0 = min(rho._vk + cfg.q * v0, rho._vu + cfg.q ** 2 * v0) + cfg.e
    step = rho._contract(b, x0, d0, d0 + 1)
    assert len(calls) == 1
    monkeypatch.undo()
    r = step.prec
    want = (b - rho.kappa * x0.frobenius(1) - rho.u * x0.frobenius(2))
    assert step.terms == want.shift(cfg.e).truncate(r).terms


def test_g_vector_zero_point(ctx3, mot):
    P0 = make_log_point(ctx3.module, lam=ctx3.cfg.zero(INF))
    gv = GVector(mot, P0)
    assert gv.g1.is_zero_to(10 ** 9)
    assert gv.g2.is_zero_to(10 ** 9)


def test_log_functional_equation(ctx3, mot, point):
    thr = ctx3.cfg.pass_threshold()
    gv = GVector(mot, point)
    assert gv.functional_equation_residual().is_zero_to(thr)
    # the homogeneous case: a period gives h = (0, 0), consistent with the
    # trivialization's own difference equation
    Pom = make_log_point(ctx3.module, lam=ctx3.lattice.omega1)
    gv0 = GVector(mot, Pom)
    assert gv0.functional_equation_residual().is_zero_to(thr)


def test_g_vector_linearity(ctx3, mot, point):
    thr = ctx3.cfg.pass_threshold()
    P2 = make_log_point(ctx3.module, lam=ctx3.cfg.theta() * point.lam)
    Psum = make_log_point(ctx3.module, lam=point.lam + P2.lam)
    g_sum = GVector(mot, Psum)
    g1 = GVector(mot, point)
    g2 = GVector(mot, P2)
    for j in range(10):
        d1 = g_sum.g1.coeff(j) - (g1.g1.coeff(j) + g2.g1.coeff(j))
        d2 = g_sum.g2.coeff(j) - (g1.g2.coeff(j) + g2.g2.coeff(j))
        assert d1.is_zero_to(thr) and d2.is_zero_to(thr)


def test_extended_system_n1_n2(ctx3, mot, point):
    thr = ctx3.cfg.pass_threshold()
    sys1 = ExtendedSystem(mot, [point])
    assert sys1.phi_n.shape == (3, 3)
    assert sys1.difference_residual().is_zero_to(thr)
    # n = 2 with a dependent second point: linear dependence is allowed
    P2 = make_log_point(ctx3.module, lam=ctx3.cfg.theta() * point.lam)
    sys2 = ExtendedSystem(mot, [point, P2])
    assert sys2.difference_residual().is_zero_to(thr)


def test_extended_system_reconstruction(ctx3, mot, point):
    thr = ctx3.cfg.pass_threshold()
    system = ExtendedSystem(mot, [point])
    for row in system.reconstruction_residuals():
        for v in row:
            assert v.is_zero_to(thr)
    names = [n for n, _ in system.generators()]
    assert names == ["omega1", "omega2", "F(omega1)", "F(omega2)",
                     "lambda1", "F(lambda1)"]


def _reconstruction_reference(system):
    """reconstruction_residuals entry by entry, from the generator list
    and the reference R of Psi(theta): lower entry j is
    (g1 Psi_0j + g2 Psi_1j) - ((lambda - alpha) R_0j - F(lambda) R_1j)."""
    motive = system.motive
    gens = dict(system.generators())
    ref = motive.reference_psi_at_theta()
    psi = motive.psi_at_theta()
    out = [[psi[i][j] - ref[i][j] for j in range(2)] for i in range(2)]
    for i, gv in enumerate(system.gvectors, start=1):
        g1t = gens["lambda%d" % i] - system.points[i - 1].alpha
        g2t = -gens["F(lambda%d)" % i]
        d1, d2 = gv.at_theta()
        out.append([(d1 * psi[0][j] + d2 * psi[1][j])
                    - (g1t * ref[0][j] + g2t * ref[1][j])
                    for j in range(2)])
    return out


@pytest.mark.parametrize("q,e,prec", [(3, 72, 240), (3, 72, 1920),
                                      (5, 600, 240)])
def test_reconstruction_matches_entrywise_reference(q, e, prec):
    # one dot per lower entry equals the entry-by-entry formula in terms
    # and precision: dot sums the products exactly and cuts at the lowest
    # product precision, as the sums of products do
    cfg = FieldConfig(q, 1, 4, e=e, prec=prec)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    mot = MotiveMatrices(rho, rho.periods(), T=16)
    p1 = make_log_point(rho, alpha=cfg.theta(-1))
    p2 = make_log_point(rho, lam=cfg.theta() * p1.lam)
    for points in ([p1], [p1, p2]):
        system = ExtendedSystem(mot, points)
        got = system.reconstruction_residuals()
        want = _reconstruction_reference(system)
        assert len(got) == len(want) == 2 + len(points)
        for rg, rw in zip(got, want):
            assert [(v.sorted_terms(), v.prec) for v in rg] == \
                [(v.sorted_terms(), v.prec) for v in rw]


def test_relation_tautologies(ctx3, mot):
    cfg = ctx3.cfg
    one, zero = cfg.one(), cfg.zero(INF)
    Pom = make_log_point(ctx3.module, lam=ctx3.lattice.omega1)
    rep = relation_certificate(mot, [Pom],
                               {"l11": one, "l21": zero, "l": [one]})
    assert rep["pass"]
    rep0 = relation_certificate(mot, [Pom],
                                {"l11": zero, "l21": zero, "l": [zero]})
    assert rep0["pass"]


def test_relation_battery_refutes_random(ctx3, mot, point):
    cfg = ctx3.cfg
    rng = random.Random(0xD21F)
    bound = int(0.3 * cfg.prec)
    for _ in range(20):
        def small():
            return cfg.from_int(rng.randrange(3)) \
                + cfg.theta() * cfg.from_int(rng.randrange(3))
        ell = {"l11": small(), "l21": small(), "l": [small()]}
        if all(x.is_apparent_zero()
               for x in [ell["l11"], ell["l21"]] + ell["l"]):
            ell["l"] = [cfg.one()]
        rep = relation_certificate(mot, [point], ell)
        assert not rep["pass"]
        assert rep["residual_valuation"] < bound


def test_relation_specialized_identities(ctx3, mot):
    cfg = ctx3.cfg
    one, zero = cfg.one(), cfg.zero(INF)
    Pom = make_log_point(ctx3.module, lam=ctx3.lattice.omega1)
    rep = relation_certificate(mot, [Pom],
                               {"l11": one, "l21": zero, "l": [one]},
                               AB=(zero, zero))
    thr = cfg.pass_threshold()
    assert all(v >= thr for v in rep["specialized_residuals"])
    assert rep["A_residual"] >= thr


def test_extended_system_n0_reduces_to_motive(ctx3, mot):
    system = ExtendedSystem(mot, [])
    assert system.phi_n.shape == (2, 2)
    base = mot.difference_residual()
    blocked = system.difference_residual()
    for i in range(2):
        for j in range(2):
            a = base.entry(i, j)
            b = blocked.entry(i, j)
            for k in range(min(a.T, b.T)):
                assert (a.coeff(k) - b.coeff(k)).is_apparent_zero() or \
                    (a.coeff(k) - b.coeff(k)).is_exact_zero()


def test_extended_system_n3(ctx3, point):
    # n = 3 block system at a smaller truncation
    mot8 = ctx3.motive(8)
    pts = [point]
    for _ in range(2):
        pts.append(make_log_point(ctx3.module,
                                  lam=ctx3.cfg.theta() * pts[-1].lam))
    system = ExtendedSystem(mot8, pts)
    assert system.phi_n.shape == (5, 5)
    assert system.difference_residual().is_zero_to(
        ctx3.cfg.pass_threshold())
