"""(c Omega) * a through Omega's factor steps: the oracle the pole form of
Psi (OmegaData.column) is compared against.

The library once built every entry of Psi this way, from the twisted pair
(a, b) of a generating function as a truncated t-series; it is kept here
as an independent reference for the value, precision and tail of the
product with the truncated Carlitz trivialization Omega_I.  omega_value
keeps the library's old specialization of Omega_I at a point, which
OmegaData.scale_at_theta replaced.
"""

from drinfeldlab.cinf import INF, CInfApprox, _merge_logs
from drinfeldlab.tseries import TSeries


def omega_value(om, t0):
    """Omega_I(t0) by expanding the finite product: its specialization at
    t0, the dropped factors folded in as a relative error, so cut at its
    valuation plus tail_error()."""
    val = om.product.specialize(t0)
    if val.is_apparent_zero():
        return val
    return val.truncate(min(val.prec, val.valuation() + om.tail_error()))


def omega_times(om, a, c, T):
    """(c Omega) * a through T coefficients, for an OmegaData om and an
    exact scalar c.

    Applies the linear factors one at a time, g_k <- g_k + r_i g_(k-1),
    and then the monomial c * prefactor: the same value, length and tail
    as the product with the expanded series of c Omega, but the
    cancellation among the factors happens as early as it can.  Every
    coefficient stays a dict of discrete logs through all I steps and is
    converted to codes once, then multiplied by c * prefactor (dot's
    monomial pass when that is one term).

    Each step is dot's sum over the pairs (1, g_k) and (r_i, g_(k-1)),
    formed as dot forms it: its precision is dot's rule for those pairs,
    P = min(prec g_k, prec g_(k-1) + v(r_i)), and only the terms below P
    are merged, by one _merge_logs pass.  Keeping dot's rule at every step
    keeps the value and precision of the stepwise dots, and those compose
    to the dense rule, min over j of prec(a_(k-j)) + v(c * prefactor) +
    (q + ... + q^j) e, because the j-th elementary symmetric function of
    the roots has a unique lowest term.  The tail is read from that
    product's pair lists, which are not summed.
    """
    cfg = om.cfg
    F = cfg.field
    log, exp = F._log, F._exp
    # (exponent -> discrete log, precision) of each coefficient
    g = [({e: log[x] for e, x in y.terms.items()}, y.prec)
         for y in a.coeffs]
    if a.tail == INF:
        g += [({}, INF) for _ in range(om.I)]
    # every root is -theta^(-q^i): a shift and the log of -1
    minus = log[F._neg[1]]
    for r in om.roots:
        s = r.vbound()
        # downwards, so that g_(k-1) is still the old one when g_k takes
        # it, and each g_k is merged into in place
        for k in range(len(g) - 1, 0, -1):
            (acc, xp), (yt, yp) = g[k], g[k - 1]
            P = min(xp, yp + s)
            if P < xp:
                acc = {e: l for e, l in acc.items() if e < P}
            _merge_logs(F, acc, yt.items(), s, minus, P - s)
            g[k] = (acc, P)
    scale = c * om.prefactor
    _, tail, _ = om.product.scale(c)._product(a)
    coeffs = [scale * CInfApprox._raw(cfg, {e: exp[k] for e, k in
                                            t.items()}, P)
              for t, P in g]
    return TSeries(cfg, coeffs, tail).truncate(T)


def factor_step_column(om, gf, c, T):
    """(c Omega b, -c Omega a) for the twisted pair (a, b) of gf, as the
    factor steps formed Psi's columns."""
    a, b = gf.twisted_pair(T)
    return omega_times(om, b, c, T), omega_times(om, a, -c, T)
