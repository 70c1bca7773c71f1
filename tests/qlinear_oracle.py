"""The row scan of a q-linear sum sum_i c_i z^{q^i}: the oracle the
planner's tests compare drinfeldlab.drinfeld against.

The library once planned log(z) and each step of the additive solver
rho_t(x) = b with these functions; it now reads the same precision and rows
off the lower envelopes of each coefficient table's lines
(DrinfeldModule._precs and _ladder_plan).  Here every row is compared, one
at a time, on every call.
"""

from drinfeldlab.cinf import INF, dot


def known(coeffs):
    """(precision, lowest term or INF when it has none) of each value: all
    that qlinear_prec and qlinear_rows read of a coefficient."""
    return [(c.prec, c.vbound() if c.terms else INF) for c in coeffs]


def qlinear_prec(cfg, table, vz, zprec, prec):
    """Certified precision R of sum_i coeffs[i] * z^{q^i} for z of
    valuation vz and precision zprec, from table = known(coeffs): prec (a
    tail floor, say) or the precision of a computed term, whichever is
    lowest.  A coefficient without terms bounds R by its precision plus
    q^i vz alone: z has a term below its precision, so q^i zprec + prec(c)
    lies above that."""
    qs = cfg.q_powers(len(table))
    for (cp, cv), qi in zip(table, qs):
        if cp + qi * vz < prec:
            prec = cp + qi * vz
        if qi * zprec + cv < prec:
            prec = qi * zprec + cv
    return prec


def qlinear_rows(cfg, table, vz, prec):
    """The rows of sum_i coeffs[i] * z^{q^i} that reach below prec, for z
    of valuation vz and table = known(coeffs), as (i, digits): a row
    without known terms, or whose lowest term lands at or above prec, is
    skipped; the others need z only below digits, the lowest exponent of z
    whose term can land below prec.  An infinite prec cuts nothing."""
    rows = []
    qs = cfg.q_powers(len(table))
    for i, ((_, vc), qi) in enumerate(zip(table, qs)):
        if vc + qi * vz < prec:
            rows.append((i, INF if prec == INF else -((vc - prec) // qi)))
    return rows


def qlinear_sum(cfg, coeffs, z, prec):
    """sum_i coeffs[i] * z^{q^i} for nonzero z, cut at the certified
    precision R of qlinear_prec and computed only below it: the rows of
    qlinear_rows are the only ones formed, each with z cut to its digits
    before the Frobenius, all in one dot capped at R."""
    table = known(coeffs)
    vz = z.valuation()
    prec = qlinear_prec(cfg, table, vz, z.prec, prec)
    return dot(cfg, [(coeffs[i], z.truncate(digits).frobenius(i))
                     for i, digits in qlinear_rows(cfg, table, vz, prec)],
               prec)
