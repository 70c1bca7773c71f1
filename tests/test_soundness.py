"""Budget independence: a digit certified at precision N is the same digit
at 2N.

Every value carries the precision below which its terms are claimed.  Two
builds of the same module at N = 240 and N = 480 must therefore agree on
every term below the lower of their two precisions.  This compares exp
and log at drawn literals, the periods, their quasi-periods and bracket,
Psi(theta), a log point's lambda and F(lambda), and the t-coefficients of
the periods' generating functions and of Psi at T = 8, on q3 and q5-tame.  A comparison is never widened to pass:
a mismatch is a certified digit that is wrong.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeldlab.agf import AndersonGF
from drinfeldlab.cinf import CInfApprox, FieldConfig
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.logext import make_log_point
from drinfeldlab.motive import MotiveMatrices

_GRIDS = {"q3": (3, 72), "q5-tame": (5, 600)}
_BUDGETS = (240, 480)
_T = 8
_BUILT = {}


def _build(name, N):
    """(module, values by name, Psi's t-coefficients by name) for the
    sample module theta + tau + tau^2 of name at N, built once."""
    key = (name, N)
    got = _BUILT.get(key)
    if got is None:
        q, e = _GRIDS[name]
        cfg = FieldConfig(q, 1, 4, e=e, prec=N)
        rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
        lat = rho.periods()
        values = {"bracket": lat.bracket}
        for i, om in enumerate(lat.basis(), start=1):
            values["omega%d" % i] = om
            values["F(omega%d)" % i] = rho.quasi_period_eval(om, lattice=lat)
            for k, c in enumerate(AndersonGF(rho, om).series(_T).coeffs):
                values["f_omega%d t^%d" % (i, k)] = c
        mot = MotiveMatrices(rho, lat, T=_T)
        for i, row in enumerate(mot.psi_at_theta()):
            for j, x in enumerate(row):
                values["Psi(theta)[%d][%d]" % (i, j)] = x
        point = make_log_point(rho, alpha=cfg.theta(-1))
        values["lambda"] = point.lam
        values["F(lambda)"] = rho.quasi_period_eval(point.lam)
        coeffs = {"Psi[%d][%d] t^%d" % (i, j, k): c
                  for i, row in enumerate(mot.psi.rows)
                  for j, entry in enumerate(row)
                  for k, c in enumerate(entry.coeffs[:_T])}
        got = _BUILT[key] = (rho, values, coeffs)
    return got


def _disagreements(a, b):
    """{name: lowest exponent where the terms differ, below the lower
    precision} over the names of a and b."""
    out = {}
    for name, x in a.items():
        y = b[name]
        prec = min(x.prec, y.prec)
        tx = {k: c for k, c in x.terms.items() if k < prec}
        ty = {k: c for k, c in y.terms.items() if k < prec}
        if tx != ty:
            out[name] = min(k for k in tx.keys() | ty.keys()
                            if tx.get(k) != ty.get(k))
    return out


def _both(name):
    return [_build(name, N) for N in _BUDGETS]


@pytest.mark.parametrize("name", sorted(_GRIDS))
def test_values_independent_of_budget(name):
    (_, low, _), (_, high, _) = _both(name)
    assert _disagreements(low, high) == {}


@pytest.mark.parametrize("name", [
    pytest.param("q3", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "Psi's coefficients take Omega_I's as Omega's: I = 2 at "
            "N = 240, and the dropped factors move every t^k, k >= 1, from "
            "2052 on; the Omega_I truncation floor of ROADMAP item 1"))),
    "q5-tame"])
def test_psi_coefficients_independent_of_budget(name):
    (_, _, low), (_, _, high) = _both(name)
    assert _disagreements(low, high) == {}


def _literal(name, terms):
    """The value sum c theta^(-k/e) of terms {k: c} at both budgets."""
    return [CInfApprox(rho.cfg, terms) for rho, _, _ in _both(name)]


def _terms(name, low, high):
    size = _GRIDS[name][0] ** 4
    return st.dictionaries(st.integers(low, high), st.integers(1, size - 1),
                           min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(_GRIDS)), data=st.data())
def test_exp_and_log_independent_of_budget(name, data):
    e = _GRIDS[name][1]
    (rho_low, _, _), (rho_high, _, _) = _both(name)
    z_low, z_high = _literal(name, data.draw(_terms(name, -8 * e, 4 * e)))
    assert _disagreements({"exp": rho_low.exp_eval(z_low)},
                          {"exp": rho_high.exp_eval(z_high)}) == {}
    z_low, z_high = _literal(name, data.draw(_terms(name, 0, 4 * e)))
    # the certified disc depends on v(z) alone, not on the budget
    assume(rho_low.log_certificate(z_low))
    assert _disagreements({"log": rho_low.log_eval(z_low)},
                          {"log": rho_high.log_eval(z_high)}) == {}
