"""The row scan of a q-linear sum sum_i c_i z^{q^i}: the oracle the
planner's tests compare drinfeldlab.drinfeld against.

The library once planned log(z) and each step of the additive solver
rho_t(x) = b with these functions; it now reads the same precision and rows
off the lower envelopes of each coefficient table's lines
(DrinfeldModule._precs and _ladder_plan).  Here every row is compared, one
at a time, on every call.

Two more oracles keep earlier forms of the library: log_certificate, the
certificate scan with a fresh q ** i per index, and ladder_levels, the
ladder that formed every kept row by its own capped dot and then summed
the rows of each level in one more dot.
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


def log_certificate(module, z):
    """DrinfeldModule.log_certificate as a scan with a fresh q ** i per
    index: computed log term valuations rise by at least e per step over
    the exp_depth + 64 bounds, a bound of inf (a coefficient exactly zero)
    skipped and the next finite one compared with the last, e per index
    step between them."""
    if z.is_apparent_zero():
        return True
    cfg = module.cfg
    e, q = cfg.e, cfg.q
    end = cfg.exp_depth + 64
    vz = z.valuation()
    bounds = module._coeff_vbounds("log", end)
    prev, at = vz, 0
    for i in range(1, end + 1):
        if bounds[i] == INF:
            continue
        cur = bounds[i] + q ** i * vz
        if cur < prev + (i - at) * e:
            return False
        prev, at = cur, i
    return True


def ladder_levels(module, kind, z, shifts, precs, numerators=()):
    """[sum_i c_i z.shift(k)^{q^i} for k in shifts] cut at the R of precs,
    c_i kind's table through exp_depth (exp's alpha_i, log's beta_i, or
    the additive step's (0, -kappa, -u)), by rows then sums: row i is kept
    at level k when v(c_i) + q^i (v(z) + k) < R, formed once by its own
    dot capped at C_i = max(R - q^i k) over the levels that keep it
    (numerators[i] cut at C_i when the caller holds it), and each level is
    one more dot over the pairs (row, theta^{-q^i k}) capped at R.  A z
    without terms gives z.shift(k)."""
    if z.is_apparent_zero():
        return [z.shift(k) for k in shifts]
    cfg = module.cfg
    if kind == "step":
        coeffs = [cfg.zero(INF), -module.kappa, -module.u]
    else:
        coeffs = (module.exp_coeffs if kind == "exp"
                  else module.log_coeffs)(cfg.exp_depth)
    qs = cfg.q_powers(len(coeffs))
    vz = z.valuation()
    caps = {}
    for k, r in zip(shifts, precs):
        for i, c in enumerate(coeffs):
            if c.terms and c.vbound() + qs[i] * (vz + k) < r:
                caps[i] = max(caps.get(i, r - qs[i] * k), r - qs[i] * k)
    rows = {}
    for i, cap in caps.items():
        if i < len(numerators):
            rows[i] = numerators[i].truncate(cap)
        else:
            digits = INF if cap == INF else -((coeffs[i].vbound() - cap)
                                              // qs[i])
            rows[i] = dot(cfg, [(coeffs[i], z.truncate(digits).frobenius(i))],
                          cap)
    return [dot(cfg, [(rows[i], cfg.monomial(qs[i] * k)) for i in sorted(rows)
                      if coeffs[i].vbound() + qs[i] * (vz + k) < r], r)
            for k, r in zip(shifts, precs)]
