"""Extensions of the rank-2 difference system by logarithm data.

A point with algebraic exponential image contributes a vector g = (-a, -b),
where (a, b) = (kappa f^(1) + f^(2), f^(1)) is the twisted pair of its
Anderson generating function f, the same pair each column of Psi is built
from; g satisfies the transposed difference equation against Phi and
specializes to (lambda - alpha, -F(lambda)) at t = theta.  Stacking n such
rows as a matrix G gives the block systems Phi_n = [[Phi, 0], [A, I]] (row i
of A is (alpha_i, 0)) and Psi_n = [[Psi, 0], [G Psi, I]], whose common
difference equation and specialization carry all the periods, logarithms
and quasi-logarithms at once.  The relation certificate evaluates putative
linear relations among these quantities and reports residual valuations;
it can refute a relation only down to working precision, never prove
transcendence.

A log point keeps the generating function of lambda whose exp(lambda) its
check exp(lambda) = alpha read (agf.AndersonGF, which forms the numerators
alpha_i lambda^(q^i) once): over the point's module its g-vector, F(lambda)
and every block system read it, and over any other module a fresh one is
built, since the numerators are the module's.  The point keeps its
g-vector, one per motive: the lone g-vector of a check and the row of the
point in every block system are one object, which forms the series pair,
the pair at theta and the row g Psi once.  Every memo here follows the one
memo rule (cinf.once).

The series layers (tseries, motive) are imported where a series or a
block system is formed, so a command that only builds a log point does not
load them.
"""

from .agf import AndersonGF
from .cinf import INF, dot, once
from .errors import ConfigError, VerificationFailed


class LogPoint:
    """A pair (lambda, alpha) with exp(lambda) = alpha, verified, and the
    generating function of lambda (gf) whose exp(lambda) the check read."""

    def __init__(self, lam, alpha, provenance, gf):
        self.lam = lam
        self.alpha = alpha
        self.provenance = provenance
        self.gf = gf
        self._memo = {}

    def generating_function(self, module):
        """The Anderson generating function of lambda over module: the
        point's own over the module that checked it, else a fresh one."""
        if module is self.gf.module:
            return self.gf
        return AndersonGF(module, self.lam)

    @once
    def g_vector(self, motive):
        """The point's GVector over motive; one per motive."""
        return GVector(motive, self)


def make_log_point(module, lam=None, alpha=None):
    """Build a verified LogPoint from exactly one of lam, alpha.

    Lifting from alpha uses the certified logarithm disc and may raise
    DivergentEvaluation; either way the defining identity is re-checked.
    exp(lambda) is read off lambda's generating function
    (AndersonGF._exp_u), which the point keeps.
    """
    cfg = module.cfg
    if (lam is None) == (alpha is None):
        raise ConfigError("give exactly one of lambda, alpha")
    if lam is not None:
        provenance = "given-lambda"
    else:
        lam = module.log_eval(alpha)
        provenance = "lifted-from-alpha"
    gf = AndersonGF(module, lam)
    value = gf._exp_u()
    if alpha is None:
        alpha = value
    resid = value - alpha
    if not resid.is_zero_to(cfg.pass_threshold()):
        raise VerificationFailed(
            "exp(lambda) - alpha has v = %s, below threshold %d"
            % (resid.vbound(), cfg.pass_threshold()))
    return LogPoint(lam, alpha, provenance, gf)


class GVector:
    """g = (-a, -b) for the twisted pair (a, b) of f_lambda, with its
    pole-form backing, plus the inhomogeneity h = (alpha, 0).

    The series pair g1, g2 is built on first read: the specialization at
    t = theta reads the poles alone.  It, the row g Psi and the block row
    are each computed once (cinf.once).  It keeps the point's lambda and
    alpha, not the point, which keeps it: no reference cycle holds a
    motive past its last reader."""

    def __init__(self, motive, point):
        self.motive = motive
        self.lam, self.alpha = point.lam, point.alpha
        self.cfg = motive.cfg
        self.agf = point.generating_function(motive.module)
        self.agf._require_normalized()
        self._memo = {}

    @property
    def g1(self):
        return self._pair()[0]

    @property
    def g2(self):
        return self._pair()[1]

    @once
    def _pair(self):
        a, b = self.agf.twisted_pair(self.motive.T)
        return -a, -b

    @once
    def psi_row(self):
        """g Psi, the point's row of G Psi in a block system: the entries
        of the product TMatrix([[g1, g2]]) * Psi; computed once."""
        from .tseries import TMatrix
        return (TMatrix([[self.g1, self.g2]]) * self.motive.psi).rows[0]

    @once
    def block_row(self):
        """The point's row of Phi_n^(1) Psi_n^(1) over Psi's columns, the
        same in every block system: lower_block_row of alpha, the motive's
        Psi^(1) and (g Psi)^(1), g Psi cut to T first; computed once."""
        from .motive import cut
        return lower_block_row(
            self.alpha, self.motive.psi_twist(),
            [cut(x, self.motive.T).twist(1) for x in self.psi_row()])

    def at_theta(self):
        """(g1(theta), g2(theta)) by pole-aware evaluation."""
        a, b = self.agf.twisted_pair_at_theta()
        return -a, -b

    def specialization_residuals(self):
        """g1(theta) - (lambda - alpha) and g2(theta) + F(lambda), both of
        which vanish for the true vector; F(lambda) is read off the
        generating function (AndersonGF.quasi_period)."""
        g1t, g2t = self.at_theta()
        r1 = g1t - (self.lam - self.alpha)
        return r1, g2t + self.agf.quasi_period()

    def functional_equation_residual(self):
        """(Phi^tr)^(1) g - g^(1) - h^(1) as a 2x1 matrix of series."""
        from .tseries import TMatrix, TSeries
        cfg = self.cfg
        T = self.motive.T
        g = TMatrix([[self.g1.truncate(T)], [self.g2.truncate(T)]])
        h = TMatrix([
            [TSeries.constant(cfg, self.alpha).truncate(T)],
            [TSeries.constant(cfg, cfg.zero(INF)).truncate(T)],
        ])
        lhs = self.motive.phi.transpose().twist(1) * g
        rhs = g.twist(1) + h.twist(1)
        return TMatrix([[(lhs.rows[i][0] - rhs.rows[i][0]).truncate(T)]
                        for i in range(2)])


class ExtendedSystem:
    """Block matrices Phi_n = [[Phi, 0], [A, I_n]] and
    Psi_n = [[Psi, 0], [G Psi, I_n]] for a list of log points: row i of A
    is (alpha_i, 0) and row i of G the g-vector of point i."""

    def __init__(self, motive, points):
        from .tseries import TSeries
        self.motive = motive
        cfg = self.cfg = motive.cfg
        self.points = list(points)
        self.gvectors = [p.g_vector(motive) for p in self.points]
        self.n = len(self.points)
        zero = TSeries.constant(cfg, cfg.zero(INF))
        self.phi_n = self._block(motive.phi, [
            [TSeries.constant(cfg, p.alpha), zero] for p in self.points])
        # Psi and every g have T coefficients, and so does each row g Psi
        # of G Psi
        self.psi_n = self._block(motive.psi,
                                 [gv.psi_row() for gv in self.gvectors])

    def _block(self, top, lower):
        """[[top, 0], [lower, I_n]] for the n rows of lower."""
        from .tseries import TMatrix, TSeries
        cfg = self.cfg
        zero = TSeries.constant(cfg, cfg.zero(INF))
        one = TSeries.constant(cfg, cfg.one())
        n = len(lower)
        return TMatrix([r + [zero] * n for r in top.rows]
                       + [r + [one if j == i else zero for j in range(n)]
                          for i, r in enumerate(lower)])

    def difference_residual(self):
        """Psi_n - Phi_n^(1) Psi_n^(1) through T coefficients, the product
        read off the motive's Phi^(1) Psi^(1) and each point's block_row
        (block_difference_residual)."""
        return block_difference_residual(
            self.phi_n, self.psi_n, self.motive.T, self.motive.phi_psi(),
            [gv.block_row() for gv in self.gvectors])

    def generators(self):
        """The named quantities that generate the specialized system."""
        motive = self.motive
        lat = motive.lattice
        mod = motive.module
        gens = [
            ("omega1", lat.omega1),
            ("omega2", lat.omega2),
            ("F(omega1)", mod.quasi_period_eval(lat.omega1, lattice=lat)),
            ("F(omega2)", mod.quasi_period_eval(lat.omega2, lattice=lat)),
        ]
        for i, (p, gv) in enumerate(zip(self.points, self.gvectors), start=1):
            gens.append(("lambda%d" % i, p.lam))
            gens.append(("F(lambda%d)" % i, gv.agf.quasi_period()))
        return gens

    def reconstruction_residuals(self):
        """Psi_n(theta) by pole-aware evaluation against the same matrix
        rebuilt from the periods, quasi-periods, logarithms and
        quasi-logarithms, entrywise; the identity blocks are left out.
        Lower row i is g_i(theta) Psi(theta) - (lambda_i - alpha_i,
        -F(lambda_i)) R for the reference R of Psi(theta)."""
        motive = self.motive
        psi = motive.psi_at_theta()
        ref = motive.reference_psi_at_theta()
        out = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(psi, ref)]
        for p, gv in zip(self.points, self.gvectors):
            g1, g2 = gv.at_theta()
            flam = gv.agf.quasi_period()
            out.append([dot(self.cfg, [(g1, psi[0][j]), (g2, psi[1][j]),
                                       (-(p.lam - p.alpha), ref[0][j]),
                                       (flam, ref[1][j])])
                        for j in range(2)])
        return out


def lower_block_row(alpha, psi1, row1):
    """alpha^(1) Psi^(1)_0j + 0 Psi^(1)_1j + row1_j for j = 0, 1: the row
    (alpha, 0, 1)^(1) of a block Phi_n^(1), its point's own identity column
    kept and the others' zero columns left out, times the columns of
    Psi^(1) over row1 = (g Psi)^(1).  The exact constants 0 and 1 are their
    own twists."""
    from .tseries import TSeries, series_dot
    cfg = alpha.cfg
    a = TSeries.constant(cfg, alpha).twist(1)
    zero = TSeries.constant(cfg, cfg.zero(INF))
    one = TSeries.constant(cfg, cfg.one())
    return [series_dot([a, zero, one], [psi1.rows[0][j], psi1.rows[1][j],
                                        row1[j]])
            for j in range(2)]


def block_difference_residual(phi_n, psi_n, T, top, lower):
    """difference_residual(phi_n, psi_n, T) for the block matrices
    phi_n = [[Phi, 0], [A, I_n]] and psi_n = [[Psi, 0], [L, I_n]], with
    Phi^(1) Psi^(1) (Psi cut to T) given as top and the rows of the
    product over Psi's columns as lower, row i that of lower_block_row for
    row i of A and of L, cut to T.

    The residual is the one the whole product gives when every entry of L
    has a tail, as every series the library builds does.  The products
    left out of top and lower, the zero blocks of phi_n against L and the
    other rows' zero entries against L, are then products of the exact
    zero series: no pairs, tail INF and their other factor's length, at
    most T.  They change no tail and no coefficient below the length of
    the products kept (series_dot); where every kept tail is INF they may
    lengthen an entry by exact zeros only, which the cut to T pads back.
    (Against an entry without a tail, None, the exact zero's product has
    none either and can shorten the whole product's entry.)  The products
    over the identity columns are formed here from the exact constants."""
    from .motive import cut, difference_residual
    from .tseries import TMatrix, series_dot
    k = len(top.rows)
    right = [[cut(a, T).twist(1) for a in r[k:]] for r in psi_n.rows]
    cols = [list(c) for c in zip(*right)]
    product = TMatrix([left + [series_dot(r, c) for c in cols]
                       for r, left in zip(phi_n.twist(1).rows,
                                          top.rows + lower)])
    return difference_residual(phi_n, psi_n, T, product)


def relation_certificate(motive, points, ell, AB=None):
    """Evaluate the putative linear relation
    sum ell_i(theta) lambda_i - ell_11(theta) omega1 - ell_21(theta) omega2
    and report its residual valuation.

    ell is a dict with keys 'l11', 'l21' and 'l' (a list of per-point
    values), all CInfApprox evaluated at theta.  With AB = (A_theta,
    B_theta) the two specialized identities tying the relation to the
    period matrix are evaluated as well.  PASS means the relation holds to
    working precision; FAIL reports how decisively it fails.
    """
    cfg = motive.cfg
    lat = motive.lattice
    mod = motive.module
    thr = cfg.pass_threshold()
    S = dot(cfg, [(li, p.lam) for li, p in zip(ell["l"], points)]
            + [(-ell["l11"], lat.omega1), (-ell["l21"], lat.omega2)])
    report = {
        "residual_valuation": S.vbound(),
        "threshold": thr,
        "pass": bool(S.is_zero_to(thr)),
    }
    if AB is not None:
        A_t, B_t = AB
        xi = motive.xi
        pi = motive.omega.pi_tilde()
        F1 = mod.quasi_period_eval(lat.omega1, lattice=lat)
        F2 = mod.quasi_period_eval(lat.omega2, lattice=lat)
        Sl = dot(cfg, [(li, p.lam) for li, p in zip(ell["l"], points)])
        SF = dot(cfg, [(li, p.generating_function(mod).quasi_period())
                       for li, p in zip(ell["l"], points)])
        spec1 = Sl * xi * F2 + (B_t - SF) * xi * lat.omega2 \
            - ell["l11"] * pi
        spec2 = -(Sl * xi * F1) - (B_t - SF) * xi * lat.omega1 \
            - ell["l21"] * pi
        Aref = dot(cfg, [(p.alpha, li) for li, p in zip(ell["l"], points)])
        report["specialized_residuals"] = [spec1.vbound(), spec2.vbound()]
        report["A_residual"] = (A_t - Aref).vbound()
    return report
