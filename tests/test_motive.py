import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab.agf import AndersonGF
from drinfeldlab.cinf import CInfApprox, FieldConfig, INF, dot
from drinfeldlab.drinfeld import DrinfeldModule, Lattice
from drinfeldlab.encoding import decode_module
from drinfeldlab.errors import (ConfigError, PrecisionExhausted,
                                ResidueFieldTooSmall)
from drinfeldlab.motive import (MotiveMatrices, OmegaData, phi_matrix,
                                xi_constant)
from drinfeldlab.tseries import TSeries

from omega_oracle import factor_step_column, omega_times, omega_value
from pole_count import with_pole_count


def test_omega_difference_relation(ctx3):
    cfg = ctx3.cfg
    om = OmegaData(cfg)
    res = om.difference_residual(32)
    assert res.is_zero_to(cfg.pass_threshold())


def test_omega_value_and_pi(ctx3):
    cfg = ctx3.cfg
    om = OmegaData(cfg)
    val = omega_value(om, cfg.theta())
    pi = om.pi_tilde()
    # Omega(theta) * pi = -1 and v(pi) = -q e/(q-1)
    assert (val * pi + cfg.one()).is_zero_to(cfg.pass_threshold())
    assert pi.valuation() == -cfg.q * cfg.e // (cfg.q - 1)
    assert not val.is_apparent_zero()


def test_pi_vs_carlitz_period(ctx3):
    cfg = ctx3.cfg
    pi = OmegaData(cfg).pi_tilde()
    lat = ctx3.carlitz.periods()
    ratio = pi / lat.omega1
    assert ratio.valuation() == 0
    lead = ratio.terms[0]
    assert cfg.field.in_base_field(lead) and lead != 0
    assert (ratio - cfg.from_coeff(lead)).is_zero_to(cfg.pass_threshold())


def test_xi_constant(ctx3):
    cfg = ctx3.cfg
    xi = xi_constant(cfg)
    code = xi.terms[0]
    assert cfg.field.pow(code, cfg.q - 1) == cfg.field.neg(1)
    # xi^(-1-twist) = -xi
    assert (xi.frobenius(-1) + xi).is_exact_zero()
    # q = 3: xi^2 = -1 and xi generates F_9 over F_3
    assert cfg.field.mul(code, code) == cfg.field.neg(1)
    assert not cfg.field.in_base_field(code)


def test_xi_needs_even_extension():
    cfg = FieldConfig(3, 1, 1, e=18, prec=120)
    with pytest.raises(ResidueFieldTooSmall):
        xi_constant(cfg)


def test_phi_matrix_forms(ctx3, cfg_small):
    cfg = ctx3.cfg
    phi = phi_matrix(ctx3.module)
    # normalized: [[0, 1], [t - theta, -kappa^(-1)]]
    assert phi.entry(0, 0).coeff(0).is_exact_zero()
    assert (phi.entry(1, 0).coeff(1) - cfg.one()).is_exact_zero()
    assert (phi.entry(1, 0).coeff(0) + cfg.theta()).is_exact_zero()
    d = phi.det()
    ref = -phi.entry(1, 0)
    for i in range(2):
        assert (d.coeff(i) - ref.coeff(i)).is_exact_zero()
    # Carlitz analogue is the 1x1 matrix (t - theta)
    phiC = phi_matrix(DrinfeldModule(cfg_small, 1))
    assert phiC.shape == (1, 1)
    assert (phiC.entry(0, 0).coeff(0) + cfg_small.theta()).is_exact_zero()


def test_phi_matrix_general_u(ctx3):
    cfg = ctx3.cfg
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.from_int(-1))
    phi = phi_matrix(rho)
    u2 = rho.u.frobenius(-2)
    ref = cfg.one() / u2
    assert (phi.entry(1, 0).coeff(1) - ref).is_zero_to(600)


def test_psi_difference_equation(ctx3):
    mot = ctx3.motive(16)
    assert mot.difference_residual().is_zero_to(ctx3.cfg.pass_threshold())


def test_psi_swap_basis(ctx3):
    # swapping (omega1, omega2) permutes the generating functions; the
    # difference equation still holds
    lat = ctx3.lattice
    swapped = Lattice(lat.omega2, lat.omega1, lat.towers)
    mot = MotiveMatrices(ctx3.module, swapped, T=8)
    assert mot.difference_residual().is_zero_to(ctx3.cfg.pass_threshold())


def test_sigma_invariance(ctx3):
    mot = ctx3.motive(16)
    res, x0 = mot.sigma_invariance_residual()
    assert res.is_zero_to(ctx3.cfg.pass_threshold())
    # observed constant behaviour of det Psi/(xi Omega) is reported, and
    # its leading coefficient lies in F_q
    lead = x0.terms.get(0, 0)
    assert ctx3.cfg.field.in_base_field(lead)


def test_specialization_cross_check(ctx3):
    mot = ctx3.motive(16)
    thr = ctx3.cfg.pass_threshold()
    S = mot.specialization_residuals()
    for i in range(2):
        for j in range(2):
            assert S[i][j].is_zero_to(thr), (i, j)


def test_period_matrix_inverse_and_entries(ctx3):
    cfg = ctx3.cfg
    thr = cfg.pass_threshold()
    mot = ctx3.motive(16)
    P, M = mot.period_matrix()
    for i in range(2):
        for j in range(2):
            prod = P[i][0] * M[0][j] + P[i][1] * M[1][j]
            want = cfg.one() if i == j else cfg.zero(INF)
            assert (prod - want).is_zero_to(thr)
    # P equals [[omega1, -F(omega1)], [omega2, -F(omega2)]]
    lat = ctx3.lattice
    mod = ctx3.module
    F1 = mod.quasi_period_eval(lat.omega1, lattice=lat)
    F2 = mod.quasi_period_eval(lat.omega2, lattice=lat)
    ref = [[lat.omega1, -F1], [lat.omega2, -F2]]
    for i in range(2):
        for j in range(2):
            assert (P[i][j] - ref[i][j]).is_zero_to(thr), (i, j)


def test_psi_theta_entries(ctx3):
    # entry (2,1) of (pi/xi) Psi(theta) is omega2; entry (1,1) is F(omega2)
    cfg = ctx3.cfg
    thr = cfg.pass_threshold()
    mot = ctx3.motive(16)
    M = mot.psi_at_theta()
    s = mot.omega.pi_tilde() / mot.xi
    lat = ctx3.lattice
    assert (s * M[1][0] - lat.omega2).is_zero_to(thr)
    F2 = ctx3.module.quasi_period_eval(lat.omega2, lattice=lat)
    assert (s * M[0][0] - F2).is_zero_to(thr)


def _reference_module(name):
    if name == "cm_q3.json":
        return _file_module(name)
    q, e, N = {"q3": (3, 72, 240), "q3-1920": (3, 72, 1920),
               "q5-tame": (5, 600, 240)}[name]
    cfg = FieldConfig(q, 1, 4, e=e, prec=N)
    return DrinfeldModule(cfg, 2, cfg.one(), cfg.one())


@pytest.mark.parametrize("name", ["q3", "q3-1920", "q5-tame", "cm_q3.json"])
def test_reference_psi_scale_read_off_omega(name):
    # xi/pi_tilde read as -(xi Omega(theta)) has the digits of the quotient
    # xi/pi_tilde below the quotient's precision, and a precision at least
    # as high: the two inverses' rel_prec cap is gone
    rho = _reference_module(name)
    lat = rho.periods()
    mot = MotiveMatrices(rho, lat, T=4)
    got = mot.reference_psi_at_theta()
    F1 = rho.quasi_period_eval(lat.omega1, lattice=lat)
    F2 = rho.quasi_period_eval(lat.omega2, lattice=lat)
    s = mot.xi / mot.omega.pi_tilde()
    want = [[s * F2, -(s * F1)], [s * lat.omega2, -(s * lat.omega1)]]
    for g, w in zip(sum(got, []), sum(want, [])):
        assert g.prec >= w.prec
        assert (g - w).is_apparent_zero()
    if name == "q3-1920":
        assert [[x.prec for x in r] for r in want] == [[7761] * 2, [7707] * 2]
        assert [[x.prec for x in r] for r in got] == [[8001] * 2, [7761] * 2]


_SCALE_CASES = {}


def _scale_case(name):
    """(OmegaData, Omega(theta) from the expanded product, omega_value) of
    a reference module's config, built once."""
    got = _SCALE_CASES.get(name)
    if got is None:
        cfg = _reference_module(name).cfg
        om = OmegaData(cfg)
        got = _SCALE_CASES[name] = (om, omega_value(om, cfg.theta()))
    return got


def _scale_operand(om, kind, data):
    """A value of the drawn kind: exact, inexact (sparse, or dense like a
    pole inverse), zero to precision or exactly zero, spread past the
    tail error so that both terms of the precision rule can bind."""
    cfg = om.cfg
    e, size = cfg.e, cfg.field.size
    reach = om.tail_error() + 4 * e
    if kind == "zero":
        return cfg.zero(INF)
    if kind == "zero-to-precision":
        return cfg.zero(data.draw(st.integers(-2 * e, reach)))
    if kind == "dense":
        k = data.draw(st.integers(1, 2))
        return cfg.pole_inverse(k).shift(data.draw(st.integers(-3 * e, e)))
    terms = data.draw(st.dictionaries(
        st.integers(-2 * e, reach), st.integers(1, size - 1),
        min_size=1, max_size=24))
    if kind == "exact":
        return CInfApprox(cfg, terms)
    return CInfApprox(cfg, terms, data.draw(
        st.integers(min(terms) + 1, reach + e)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["q3", "q3-1920", "q5-tame", "cm_q3.json"]),
       kind=st.sampled_from(["exact", "inexact", "dense",
                             "zero-to-precision", "zero"]),
       data=st.data())
def test_scale_at_theta_matches_product_by_value(name, kind, data):
    """OmegaData.scale_at_theta, one factor of Omega_I(theta) at a time,
    against the product by c Omega(theta) expanded (omega_value), in terms
    and precision: I = 2 and 4 on q3 (N = 240, 1920), one factor on
    q5-tame and cm_q3's two, for c in {1, xi, -xi}."""
    om, val = _scale_case(name)
    cfg = om.cfg
    assert om.I == {"q3": 2, "q3-1920": 4, "q5-tame": 1,
                    "cm_q3.json": 2}[name]
    xi = xi_constant(cfg).terms[0]
    c = data.draw(st.sampled_from([1, xi, cfg.field.neg(xi)]))
    x = _scale_operand(om, kind, data)
    got = om.scale_at_theta(x, c)
    want = dot(cfg, [(val.scale(c), x)])
    assert got.terms == want.terms and got.prec == want.prec


_DEEP_Q3 = []


def _deep_q3_motive():
    """MotiveMatrices(T=16) of the q3 chain at N = 1920, built once."""
    if not _DEEP_Q3:
        cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
        rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
        _DEEP_Q3.append(MotiveMatrices(rho, rho.periods(), T=16))
    return _DEEP_Q3[0]


def test_specialization_expands_no_omega_value(monkeypatch):
    # at N = 1920, Psi(theta), its reference and the Legendre bracket
    # multiply by Omega_I(theta) one factor at a time: none of them
    # expands Omega_I(theta) by specializing Omega's product
    mot = _deep_q3_motive()
    specialize = TSeries.specialize

    def guarded(self, t0):
        if self is mot.omega.product:
            raise AssertionError("expanded Omega(theta)")
        return specialize(self, t0)

    monkeypatch.setattr(TSeries, "specialize", guarded)
    res = mot.specialization_residuals()
    li = mot.legendre_invariant()
    monkeypatch.undo()
    thr = mot.cfg.pass_threshold()
    assert all(x.is_zero_to(thr) for r in res for x in r)
    assert li["is_minus_one"] and li["unit_tail_valuation"] >= thr


def test_legendre_invariant(ctx3):
    mot = ctx3.motive(16)
    li = mot.legendre_invariant()
    assert li["is_minus_one"]
    assert li["unit_tail_valuation"] >= ctx3.cfg.pass_threshold()


def test_legendre_invariances(ctx3):
    cfg = ctx3.cfg
    mot = ctx3.motive(16)
    lat = ctx3.lattice
    # rescaling by each c in F_q^x
    for c in cfg.field.base_field_elements():
        if c == 0:
            continue
        scaled = Lattice(lat.omega1.scale(c), lat.omega2.scale(c),
                         lat.towers)
        assert mot.legendre_invariant_for(scaled)["is_minus_one"]
    # one unimodular change of basis
    uni = Lattice(lat.omega1 + cfg.theta() * lat.omega2, lat.omega2,
                  lat.towers)
    assert mot.legendre_invariant_for(uni)["is_minus_one"]


def test_tensor_constructions(ctx3):
    cfg = ctx3.cfg
    thr = cfg.pass_threshold()
    mot = ctx3.motive(16)
    assert mot.tensor_difference_residual().is_zero_to(thr)
    assert mot.wedge_residual().is_zero_to(thr)
    # det(Phi x Phi) = det(Phi)^4 and the wedge multiplier is det Phi
    pp = mot.phi.kronecker(mot.phi)
    d4 = pp.det()
    dphi = mot.phi.det()
    ref = dphi * dphi * dphi * dphi
    for i in range(min(d4.T, ref.T)):
        assert (d4.coeff(i) - ref.coeff(i)).is_exact_zero()


def test_motive_requires_normalized(ctx3):
    cfg = ctx3.cfg
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.from_int(-1))
    with pytest.raises(ConfigError):
        MotiveMatrices(rho, ctx3.lattice, T=8)


def test_q5_tame_motive(ctx5):
    thr = ctx5.cfg.pass_threshold()
    mot = ctx5.motive(16)
    assert mot.difference_residual().is_zero_to(thr)
    assert mot.legendre_invariant()["is_minus_one"]


def test_carlitz_exponential_kills_pi(ctx3):
    # exp_C(pi) = 0: the product-series period generates the Carlitz lattice
    cfg = ctx3.cfg
    pi = OmegaData(cfg).pi_tilde()
    resid = ctx3.carlitz.exp_eval(pi)
    assert resid.vbound() >= cfg.pass_threshold()


@pytest.mark.parametrize("q,kappas", [(3, ("one", "two", "theta_inv")),
                                      (5, ("one", "two", "theta_inv"))])
def test_psi_difference_three_modules_per_q(request, q, kappas):
    # the difference equation must hold for several modules per q, not
    # just the headline sample
    ctx = request.getfixturevalue("ctx3" if q == 3 else "ctx5")
    cfg = ctx.cfg
    thr = cfg.pass_threshold()
    for name in kappas:
        kappa = {"one": cfg.one(), "two": cfg.from_int(2),
                 "theta_inv": cfg.theta(-1)}[name]
        rho = DrinfeldModule(cfg, 2, kappa, cfg.one())
        lat = rho.periods()
        mot = MotiveMatrices(rho, lat, T=8)
        assert mot.difference_residual().is_zero_to(thr), (q, name)


@pytest.mark.slow
def test_precision_scaling():
    # nothing is tuned to N = 240: the battery holds at doubled precision
    cfg = FieldConfig(3, 1, 4, e=72, prec=480)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    lat = rho.periods()
    thr = cfg.pass_threshold()  # now 384
    assert rho.exp_eval(lat.omega1).vbound() >= thr
    mot = MotiveMatrices(rho, lat, T=8)
    assert mot.difference_residual().is_zero_to(thr)
    assert mot.legendre_invariant()["is_minus_one"]
    om = OmegaData(cfg)
    assert om.difference_residual(8).is_zero_to(thr)


# -- Omega below its degree, and Psi through Omega's product form ----------


def test_omega_cut_below_its_degree():
    # I = 2 at N = 240: the product has degree 2, so its T = 2 cut has
    # dropped a nonzero coefficient and must say so
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    om = OmegaData(cfg)
    assert om.I == 2 and om.product.T == 3
    cut = om.product.truncate(2)
    with pytest.raises(PrecisionExhausted):
        cut.coeff(2)
    assert cut.tail == om.product.coeff(2).vbound()


def test_legendre_tail_independent_of_t_truncation(ctx3):
    # Omega(theta) used to be read off the cut series when T <= I
    lat = ctx3.lattice
    tails = {MotiveMatrices(ctx3.module, lat, T=T).legendre_invariant()
             ["unit_tail_valuation"] for T in (1, 2, 16)}
    assert len(tails) == 1


def _series_digest(entries):
    """sha256 over the tail and the terms and precision of every
    coefficient of each series, in order."""
    h = hashlib.sha256()
    for s in entries:
        h.update(repr((s.tail, [(c.sorted_terms(), c.prec)
                                for c in s.coeffs])).encode())
    return h.hexdigest()


def _psi_digest(mot):
    return _series_digest(a for r in mot.psi.rows for a in r)


# Psi as the product with the expanded xi Omega series built it; at T = 1
# the second row's tails are 243, the valuation of its t^1 coefficients
_PSI_Q3 = {
    (240, 1): "2eb27232c4abbcf3ddc6d480ebb33c7a"
              "8752d03881097d59011eab6cc777a715",
    (240, 2): "032181ff8b69d2de56d74ff86861221a"
              "c3049dc5ea1af4f53888e2ec44a09b62",
    (240, 16): "a6a11c2c54edec0e96750e1e48ce762d"
               "ed9f3e2b435732d9891e2bdeaa63ebb7",
    (960, 16): "710999c27ed3f02fd21b1f772dda423a"
               "f2504c30dc07cb4b6db70fb451be98f8",
    (1920, 16): "0e1d2005a6103c056400f3419cfb9e17"
                "b348d35833b722f901109ccc6b93f5c1",
}
_PSI_Q5_TAME = ("33003b06ea3798c9ef91484d7b22d930"
                "5c4ad9e24da232b321275367728edc45")


@pytest.mark.parametrize("N,T", sorted(_PSI_Q3))
def test_psi_bytes_pinned_q3(N, T):
    cfg = FieldConfig(3, 1, 4, e=72, prec=N)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    mot = MotiveMatrices(rho, rho.periods(), T=T)
    assert _psi_digest(mot) == _PSI_Q3[N, T]


def test_psi_bytes_pinned_q5_tame(ctx5):
    mot = MotiveMatrices(ctx5.module, ctx5.lattice, T=16)
    assert _psi_digest(mot) == _PSI_Q5_TAME


_DATA = os.path.join(os.path.dirname(__file__), "data")

# Psi at T = 16 as the factor steps built it, before it was formed from the
# generating functions' poles: the CM module theta + tau^2 (kappa = 0, no
# kappa f^(1) in the a column), the q3 module at N = 960, and q3 at N = 240
# with kappa = 1 + theta^-1 known to 400 only, whose a column takes its
# precision from kappa's
_PSI_MODULES = {
    "cm_q3.json": "2bb3205a9b773b524032d211787b414c"
                  "8607091a756652f690722a8fdbd42054",
    "q3_n960.json": "710999c27ed3f02fd21b1f772dda423a"
                    "f2504c30dc07cb4b6db70fb451be98f8",
    "kappa-inexact": "76a4285e6aa204ccf9477c71b14b8f1b"
                     "fd4bd1f8f07b170f06bda7d5936559b7",
}


def _file_module(name):
    with open(os.path.join(_DATA, name)) as fh:
        return decode_module(json.load(fh))[1]


def _inexact_kappa_module(N=240, known=400):
    cfg = FieldConfig(3, 1, 4, e=72, prec=N)
    return DrinfeldModule(cfg, 2, CInfApprox(cfg, {0: 1, 72: 1}, known),
                          cfg.one())


@pytest.mark.parametrize("name", sorted(_PSI_MODULES))
def test_psi_bytes_pinned_modules(name):
    rho = (_inexact_kappa_module() if name == "kappa-inexact"
           else _file_module(name))
    mot = MotiveMatrices(rho, rho.periods(), T=16)
    assert _psi_digest(mot) == _PSI_MODULES[name]


# -- Psi from the poles against Omega's factor steps ------------------------

_POLE_CASES = {}


def _pole_case(name, N):
    """(module, lattice, OmegaData) for a named module at N, built once;
    q3_n960.json keeps its own N."""
    key = (name, N)
    got = _POLE_CASES.get(key)
    if got is None:
        if name == "q3_n960.json":
            rho = _file_module(name)
        elif name == "kappa-inexact":
            rho = _inexact_kappa_module(N, N + 160)
        else:
            q, e = (5, 600) if name == "q5-tame" else (3, 72)
            cfg = FieldConfig(q, 1, 4, e=e, prec=N)
            # cm_q3 is the module of cm_q3.json, theta + tau^2, at any N
            kappa = {"q3": cfg.one(), "q5-tame": cfg.one(),
                     "cm_q3": cfg.zero(INF),
                     "kappa-exact": CInfApprox(cfg, {0: 1, 72: 1})}[name]
            rho = DrinfeldModule(cfg, 2, kappa, cfg.one())
        got = _POLE_CASES[key] = (rho, rho.periods(), OmegaData(rho.cfg))
    return got


def _same_series(got, want):
    assert got.T == want.T and got.tail == want.tail
    assert [(x.terms, x.prec) for x in got.coeffs] == \
        [(x.terms, x.prec) for x in want.coeffs]


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["q3", "q5-tame", "cm_q3", "q3_n960.json",
                             "kappa-inexact", "kappa-exact"]),
       N=st.sampled_from([240, 480, 960]),
       T=st.sampled_from([1, 2, 3, 8, 16]),
       pole_count=st.sampled_from([None, 1, 3, 12, 13, 20]),
       data=st.data())
def test_psi_poles_match_factor_steps(name, N, T, pole_count, data):
    """OmegaData.column against the factor steps over the twisted pair, in
    terms, precision, length and tail: Psi's generating functions (the
    periods) and other arguments, pole counts below, at and above the
    ladder's exp_depth + 1 = 13 rows, and both signs of c."""
    rho, lat, om = _pole_case(name, N)
    cfg = rho.cfg
    size, e = cfg.field.size, cfg.e
    u = data.draw(st.one_of(
        st.sampled_from(lat.basis()),
        st.builds(lambda t: CInfApprox(cfg, t), st.dictionaries(
            st.integers(-2 * e, 2 * e), st.integers(1, size - 1),
            min_size=1, max_size=3))))
    xi = xi_constant(cfg)
    c = data.draw(st.sampled_from([xi, -xi]))
    gf = AndersonGF(with_pole_count(rho, pole_count), u)
    for got, want in zip(om.column(gf, c.terms[0], T),
                         factor_step_column(om, gf, c, T)):
        _same_series(got, want)


def test_psi_poles_inexact_kappa_cancelled_level():
    """An inexact kappa reads v(f_j) into the precision of the a column.
    For u = c theta^(153/72) with c^8 = -1, rows 0 and 2 of f_0 =
    exp(u/theta) both start at theta^(81/72) and cancel there."""
    rho = _inexact_kappa_module()
    cfg = rho.cfg
    F = cfg.field
    c = next(x for x in range(1, F.size) if F.pow(x, 8) == F.neg(1))
    gf = AndersonGF(rho, CInfApprox(cfg, {-153: c, -100: 1}))
    om = OmegaData(cfg)
    xi = xi_constant(cfg)
    for g, w in zip(om.column(gf, xi.terms[0], 4),
                    factor_step_column(om, gf, xi, 4)):
        _same_series(g, w)


@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_psi_poles_cancelled_last_level(T):
    """The tails read the last levels f_j only below a bound, and the a
    column's bound is q^2 times theirs when kappa = 0.  Here rows 0 and 2
    of f_(T-1) cancel at their lowest term, so that level starts above the
    b column's bound: cut there, it would lower the a column's tail."""
    cfg = FieldConfig(3, 1, 4, e=72, prec=240)
    F = cfg.field
    rho = DrinfeldModule(cfg, 2, cfg.zero(INF), cfg.one())
    alpha = rho.exp_coeffs(cfg.exp_depth)[2]
    v = alpha.vbound()
    # alpha_2 u^9 theta^(-9T) and u theta^(-T) share their lowest term
    assert v % 8 == 0
    c = next(x for x in range(1, F.size)
             if F.add(F.mul(alpha.terms[v], F.pow(x, 9)), x) == 0)
    gf = AndersonGF(rho, CInfApprox(cfg, {-v // 8 - T * cfg.e: c}))
    om = OmegaData(cfg)
    xi = xi_constant(cfg)
    for g, w in zip(om.column(gf, xi.terms[0], T),
                    factor_step_column(om, gf, xi, T)):
        _same_series(g, w)


def test_psi_at_depth_forms_no_series(monkeypatch):
    """At N = 1920 Psi is formed from the poles: no twisted pair and no
    series, and of the series ladder only the last I levels, which the
    tails read, cut where they can no longer lower them."""
    cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    lat = rho.periods()
    calls = []
    ladder = DrinfeldModule._exp_levels

    # the series ladder is exp's; log and the additive step plan none here
    def spy(self, kind, z, shifts, precs=None, numerators=()):
        if kind == "exp":
            calls.append((list(shifts), list(precs)))
        return ladder(self, kind, z, shifts, precs, numerators)

    def boom(*args, **kwargs):
        raise AssertionError("formed a series")

    monkeypatch.setattr(DrinfeldModule, "_exp_levels", spy)
    for owner, name in ((AndersonGF, "series"),
                        (AndersonGF, "twisted_pair"),
                        (TSeries, "twist")):
        monkeypatch.setattr(owner, name, boom)
    mot = MotiveMatrices(rho, lat, T=16)
    monkeypatch.undo()
    assert _psi_digest(mot) == _PSI_Q3[1920, 16]
    I, e = mot.omega.I, cfg.e
    ends = [(j + 1) * e for j in range(16 - I, 16)]
    assert [x for x, _ in calls] == [ends, ends]
    # the full levels hold their terms to R_j > 7700; the tails read the
    # digits below 1100
    assert all(r < 1100 for _, precs in calls for r in precs)


_CFG9 = FieldConfig(3, 1, 2, e=18, prec=240)
_TERMS = st.dictionaries(st.integers(-40, 300), st.integers(1, 8),
                         min_size=1, max_size=6)
_COEFFS = st.one_of(
    st.just(_CFG9.zero(INF)),
    st.builds(_CFG9.zero, st.integers(-40, 400)),
    st.builds(lambda t, p: CInfApprox(_CFG9, t, p), _TERMS,
              st.one_of(st.just(INF), st.integers(-40, 400))))
_SERIES = st.builds(
    lambda cs, tail: TSeries(_CFG9, cs, tail),
    st.lists(_COEFFS, max_size=6),
    st.one_of(st.none(), st.just(INF), st.integers(-40, 400)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(a=_SERIES, I=st.integers(1, 4), c_exp=st.integers(-40, 40),
       c_code=st.integers(1, 8), data=st.data())
def test_omega_times_matches_expanded_product(a, I, c_exp, c_code, data):
    T = data.draw(st.integers(1, I + 3))
    om = OmegaData(_CFG9, I=I)
    for c in (xi_constant(_CFG9), _CFG9.monomial(c_exp, c_code)):
        got = omega_times(om, a, c, T)
        want = (om.product.scale(c) * a).truncate(T)
        assert got.T == want.T and got.tail == want.tail
        for x, y in zip(got.coeffs, want.coeffs):
            assert x.terms == y.terms and x.prec == y.prec


# -- the Legendre bracket is certified once per lattice --------------------


def test_lattice_carries_its_certified_bracket(ctx3, monkeypatch):
    rho, lat = ctx3.module, ctx3.lattice
    want = rho.legendre_bracket(lat)
    assert lat.bracket.terms == want.terms and lat.bracket.prec == want.prec
    # a basis built by hand has none and computes its own
    swapped = Lattice(lat.omega2, lat.omega1, lat.towers)
    assert swapped.bracket is None
    mot = ctx3.motive()
    assert mot.legendre_invariant_for(swapped)["is_minus_one"]
    # the invariant of the module's own lattice reads the stored bracket
    li = mot.legendre_invariant()

    def recomputed(self, lattice):
        raise AssertionError("bracket recomputed")

    monkeypatch.setattr(DrinfeldModule, "legendre_bracket", recomputed)
    assert mot.legendre_invariant() == li


# -- Omega's factor steps, kept as discrete logs, against the stepwise dots --

_TIMES_CFGS = {3: FieldConfig(3, 1, 2, prec=60),
               5: FieldConfig(5, 1, 2, prec=40)}
_TIMES_OMEGAS = {}


def _times_stepwise(om, a, c, T):
    """(c Omega) * a as omega_times formed it one dot per coefficient
    and factor step, each converted back to codes."""
    cfg = om.cfg
    one = cfg.one()
    g = list(a.coeffs)
    if a.tail == INF:
        g += [cfg.zero(INF)] * om.I
    for r in om.roots:
        g = g[:1] + [dot(cfg, ((one, x), (r, y))) for x, y in zip(g[1:], g)]
    scale = c * om.prefactor
    _, tail, _ = om.product.scale(c)._product(a)
    return TSeries(cfg, [scale * x for x in g], tail).truncate(T)


def _series_case(p):
    cfg = _TIMES_CFGS[p]
    size = cfg.field.size
    e = cfg.e
    terms = st.dictionaries(st.integers(-2 * e, 6 * e),
                            st.integers(1, size - 1), max_size=12)
    # exact values, finite precisions and zeros to precision
    coeff = st.builds(lambda t, prec: CInfApprox(cfg, t, prec), terms,
                      st.one_of(st.just(INF), st.integers(-e, 8 * e)))
    tail = st.one_of(st.none(), st.just(INF), st.integers(-e, 8 * e))
    series = st.builds(lambda cs, t: TSeries(cfg, cs, t),
                       st.lists(coeff, max_size=8), tail)
    xi = xi_constant(cfg)
    scalar = st.one_of(st.sampled_from([xi, -xi]), st.builds(
        lambda k, c: cfg.monomial(k, c), st.integers(-2 * e, 2 * e),
        st.integers(1, size - 1)))
    return st.tuples(st.just(cfg), st.integers(1, 4), series, scalar,
                     st.integers(1, 10))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=st.one_of(_series_case(3), _series_case(5)))
def test_omega_times_matches_stepwise_dot(case):
    """omega_times keeps every coefficient as discrete logs through the I
    factor steps, each step cut at dot's own precision rule, and converts
    once: the terms, precisions, length and tail are the stepwise dots'."""
    cfg, I, a, c, T = case
    om = _TIMES_OMEGAS.get((cfg.p, I))
    if om is None:
        om = _TIMES_OMEGAS[cfg.p, I] = OmegaData(cfg, I=I)
    got = omega_times(om, a, c, T)
    want = _times_stepwise(om, a, c, T)
    assert got.tail == want.tail and got.T == want.T
    assert [(x.terms, x.prec) for x in got.coeffs] == \
        [(x.terms, x.prec) for x in want.coeffs]
