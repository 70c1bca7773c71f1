"""The twisted pair and the block system against the formulas they replace.

Psi, Psi(theta), every g-vector and Psi_n used to be written out from the
twisted generating functions f^(1), f^(2) at each use; the reference
functions below keep those inline formulas, and every value is compared in
terms, precision, length and tail.
"""

import pytest

from drinfeldlab.agf import AndersonGF
from drinfeldlab.cinf import INF, FieldConfig
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.errors import ConfigError
from drinfeldlab.logext import ExtendedSystem, GVector, make_log_point
from drinfeldlab.motive import MotiveMatrices
from drinfeldlab.tseries import TSeries

from omega_oracle import omega_times, omega_value


def _ref_psi(mot):
    T, k = mot.T, mot.module.kappa
    f1, f2 = mot.agf1.series(T), mot.agf2.series(T)
    f1_1, f1_2 = f1.twist(1), f1.twist(2)
    f2_1, f2_2 = f2.twist(1), f2.twist(2)
    rows = [
        [-f2_1, f1_1],
        [f2_1.scale(k) + f2_2, -(f1_1.scale(k) + f1_2)],
    ]
    return [[omega_times(mot.omega, a, mot.xi, T) for a in r] for r in rows]


def _ref_psi_at_theta(mot):
    th = mot.cfg.theta()
    k = mot.module.kappa
    f1_1 = mot.agf1.eval_twisted(1, th)
    f1_2 = mot.agf1.eval_twisted(2, th)
    f2_1 = mot.agf2.eval_twisted(1, th)
    f2_2 = mot.agf2.eval_twisted(2, th)
    s = mot.xi * omega_value(mot.omega, th)
    return [
        [-s * f2_1, s * f1_1],
        [s * (k * f2_1 + f2_2), -s * (k * f1_1 + f1_2)],
    ]


def _ref_g(mot, point):
    """(g1, g2) as series and at theta."""
    k = mot.module.kappa
    agf = AndersonGF(mot.module, point.lam)
    f = agf.series(mot.T)
    f1, f2 = f.twist(1), f.twist(2)
    th = mot.cfg.theta()
    e1, e2 = agf.eval_twisted(1, th), agf.eval_twisted(2, th)
    return (-(f1.scale(k) + f2), -f1), (-(k * e1 + e2), -e1)


def _ref_blocks(mot, points):
    """Phi_n and Psi_n entry by entry, the lower block of Psi_n as the sum
    g1 Psi_0j + g2 Psi_1j."""
    cfg, T, n = mot.cfg, mot.T, len(points)
    psi = _ref_psi(mot)

    def zero():
        return TSeries.constant(cfg, cfg.zero(INF))

    def one():
        return TSeries.constant(cfg, cfg.one())

    phi_rows = [list(mot.phi.rows[i]) + [zero()] * n for i in range(2)]
    psi_rows = [[a.truncate(T) for a in psi[i]] + [zero()] * n
                for i in range(2)]
    for i, p in enumerate(points):
        ident = [one() if j == i else zero() for j in range(n)]
        phi_rows.append([TSeries.constant(cfg, p.alpha), zero()] + ident)
        (g1, g2), _ = _ref_g(mot, p)
        psi_rows.append([(g1 * psi[0][j] + g2 * psi[1][j]).truncate(T)
                         for j in range(2)] + ident)
    return phi_rows, psi_rows


def _same_value(x, y):
    assert x.terms == y.terms and x.prec == y.prec


def _same_series(a, b):
    assert a.T == b.T and a.tail == b.tail
    for x, y in zip(a.coeffs, b.coeffs):
        _same_value(x, y)


def _same_rows(got, want):
    assert len(got) == len(want)
    for r, s in zip(got, want):
        assert len(r) == len(s)
        for a, b in zip(r, s):
            _same_series(a, b)


def _q3_motive(N):
    cfg = FieldConfig(3, 1, 4, e=72, prec=N)
    rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    return MotiveMatrices(rho, rho.periods(), T=16)


@pytest.fixture(scope="module", params=["q3-240", "q3-1920", "q5-tame"])
def mot(request):
    if request.param == "q5-tame":
        return request.getfixturevalue("ctx5").motive()
    return _q3_motive(int(request.param[3:]))


@pytest.fixture(scope="module")
def points(mot):
    """alpha = theta^-1 lifted, then lambda -> theta lambda twice."""
    cfg = mot.cfg
    pts = [make_log_point(mot.module, alpha=cfg.theta(-1))]
    while len(pts) < 3:
        pts.append(make_log_point(mot.module, lam=cfg.theta() * pts[-1].lam))
    return pts


def test_psi_matches_inline_formula(mot):
    _same_rows(mot.psi.rows, _ref_psi(mot))
    got, want = mot.psi_at_theta(), _ref_psi_at_theta(mot)
    for i in range(2):
        for j in range(2):
            _same_value(got[i][j], want[i][j])


def test_g_vector_matches_inline_formula(mot, points):
    for p in points:
        gv = GVector(mot, p)
        (g1, g2), (t1, t2) = _ref_g(mot, p)
        _same_series(gv.g1, g1)
        _same_series(gv.g2, g2)
        a1, a2 = gv.at_theta()
        _same_value(a1, t1)
        _same_value(a2, t2)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_block_system_matches_inline_formula(mot, points, n):
    system = ExtendedSystem(mot, points[:n])
    phi_rows, psi_rows = _ref_blocks(mot, points[:n])
    assert system.phi_n.shape == system.psi_n.shape == (2 + n, 2 + n)
    _same_rows(system.phi_n.rows, phi_rows)
    _same_rows(system.psi_n.rows, psi_rows)


def test_pair_needs_normalized_rank2(ctx3):
    cfg = ctx3.cfg
    lam = cfg.theta(-1)
    # u = theta^-1 is the q3 module before normalization
    raw = DrinfeldModule(cfg, 2, cfg.one(), cfg.theta(-1))
    for module in (raw, ctx3.carlitz):
        f = AndersonGF(module, lam)
        with pytest.raises(ConfigError):
            f.twisted_pair(4)
        with pytest.raises(ConfigError):
            f.twisted_pair_at_theta()
    a, b = AndersonGF(ctx3.module, lam).twisted_pair(4)
    assert a.T == b.T == 4
