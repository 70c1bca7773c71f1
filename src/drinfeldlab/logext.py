"""Extensions of the rank-2 difference system by logarithm data.

A point with algebraic exponential image contributes a vector
g = (-kappa f^(1) - f^(2), -f^(1)) built from its Anderson generating
function; g satisfies the transposed difference equation against Phi and
specializes to (lambda - alpha, -F(lambda)) at t = theta.  Stacking n such
rows under Phi and Psi produces block systems Phi_n, Psi_n whose common
difference equation and specialization carry all the periods, logarithms
and quasi-logarithms at once.  The relation certificate evaluates putative
linear relations among these quantities and reports residual valuations;
it can refute a relation only down to working precision, never prove
transcendence.
"""

from .agf import AndersonGF
from .cinf import INF, dot
from .errors import VerificationFailed
from .tseries import TMatrix, TSeries


class LogPoint:
    """A pair (lambda, alpha) with exp(lambda) = alpha, verified."""

    def __init__(self, lam, alpha, provenance):
        self.lam = lam
        self.alpha = alpha
        self.provenance = provenance


def make_log_point(module, lam=None, alpha=None):
    """Build a verified LogPoint from either coordinate.

    Lifting from alpha uses the certified logarithm disc and may raise
    DivergentEvaluation; either way the defining identity is re-checked.
    """
    cfg = module.cfg
    if (lam is None) == (alpha is None):
        raise VerificationFailed("give exactly one of lambda, alpha")
    if lam is not None:
        alpha = module.exp_eval(lam)
        provenance = "given-lambda"
    else:
        lam = module.log_eval(alpha)
        provenance = "lifted-from-alpha"
    resid = module.exp_eval(lam) - alpha
    if not resid.is_zero_to(cfg.pass_threshold()):
        raise VerificationFailed(
            "exp(lambda) - alpha has v = %s, below threshold %d"
            % (resid.vbound(), cfg.pass_threshold()))
    return LogPoint(lam, alpha, provenance)


class GVector:
    """g = (-kappa f_lambda^(1) - f_lambda^(2), -f_lambda^(1)) with its
    pole-form backing, plus the inhomogeneity h = (alpha, 0)."""

    def __init__(self, motive, point):
        self.motive = motive
        self.point = point
        cfg = motive.cfg
        self.cfg = cfg
        self.agf = AndersonGF(motive.module, point.lam)
        T = motive.T
        k = motive.module.kappa
        f = self.agf.series(T)
        f1, f2 = f.twist(1), f.twist(2)
        self.g1 = -(f1.scale(k) + f2)
        self.g2 = -f1

    def series_pair(self):
        return self.g1, self.g2

    def at_theta(self):
        """(g1(theta), g2(theta)) by pole-aware evaluation."""
        cfg = self.cfg
        th = cfg.theta()
        k = self.motive.module.kappa
        f1 = self.agf.eval_twisted(1, th)
        f2 = self.agf.eval_twisted(2, th)
        return -(k * f1 + f2), -f1

    def specialization_residuals(self):
        """g1(theta) - (lambda - alpha) and g2(theta) + F(lambda), both of
        which vanish for the true vector."""
        module = self.motive.module
        g1t, g2t = self.at_theta()
        r1 = g1t - (self.point.lam - self.point.alpha)
        r2 = g2t + module.quasi_period_eval(self.point.lam,
                                            lattice=self.motive.lattice)
        return r1, r2

    def functional_equation_residual(self):
        """(Phi^tr)^(1) g - g^(1) - h^(1) as a 2x1 matrix of series."""
        cfg = self.cfg
        T = self.motive.T
        g = TMatrix([[self.g1.truncate(T)], [self.g2.truncate(T)]])
        h = TMatrix([
            [TSeries.constant(cfg, self.point.alpha).truncate(T)],
            [TSeries.constant(cfg, cfg.zero(INF)).truncate(T)],
        ])
        lhs = self.motive.phi.transpose().twist(1) * g
        rhs = g.twist(1) + h.twist(1)
        return TMatrix([[(lhs.rows[i][0] - rhs.rows[i][0]).truncate(T)]
                        for i in range(2)])


class ExtendedSystem:
    """Block matrices Phi_n, Psi_n for a list of log points."""

    def __init__(self, motive, points):
        self.motive = motive
        self.cfg = motive.cfg
        self.points = list(points)
        self.gvectors = [GVector(motive, p) for p in self.points]
        self.n = len(self.points)
        self.phi_n = self._build_phi_n()
        self.psi_n = self._build_psi_n()

    def _zero(self):
        return TSeries.constant(self.cfg, self.cfg.zero(INF))

    def _one(self):
        return TSeries.constant(self.cfg, self.cfg.one())

    def _build_phi_n(self):
        phi = self.motive.phi
        rows = []
        for i in range(2):
            rows.append(list(phi.rows[i]) + [self._zero()] * self.n)
        for i, p in enumerate(self.points):
            row = [TSeries.constant(self.cfg, p.alpha), self._zero()]
            row += [self._one() if j == i else self._zero()
                    for j in range(self.n)]
            rows.append(row)
        return TMatrix(rows)

    def _build_psi_n(self):
        T = self.motive.T
        psi = self.motive.psi
        rows = []
        for i in range(2):
            rows.append([a.truncate(T) for a in psi.rows[i]]
                        + [self._zero()] * self.n)
        for i, gv in enumerate(self.gvectors):
            g1, g2 = gv.series_pair()
            row = [(g1 * psi.rows[0][j] + g2 * psi.rows[1][j]).truncate(T)
                   for j in range(2)]
            row += [self._one() if j == i else self._zero()
                    for j in range(self.n)]
            rows.append(row)
        return TMatrix(rows)

    def difference_residual(self):
        """Psi_n - Phi_n^(1) Psi_n^(1) through T coefficients."""
        T = self.motive.T
        prod = self.phi_n.twist(1) * self.psi_n.twist(1)
        m = 2 + self.n
        return TMatrix([[(self.psi_n.rows[i][j] - prod.rows[i][j]).truncate(T)
                         for j in range(m)] for i in range(m)])

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
        for i, p in enumerate(self.points, start=1):
            gens.append(("lambda%d" % i, p.lam))
            gens.append(("F(lambda%d)" % i,
                         mod.quasi_period_eval(p.lam, lattice=lat)))
        return gens

    def reconstruction_residuals(self):
        """Rebuild Psi_n(theta) from the generator list and compare with the
        pole-aware specialization, entrywise (lower-left block)."""
        motive = self.motive
        gens = dict(self.generators())
        ref_top, _, _ = motive.reference_psi_at_theta()
        psi_theta = motive.psi_at_theta()
        out = []
        for i in range(2):
            out.append([psi_theta[i][j] - ref_top[i][j] for j in range(2)])
        for i, gv in enumerate(self.gvectors, start=1):
            lam = gens["lambda%d" % i]
            flam = gens["F(lambda%d)" % i]
            alpha = self.points[i - 1].alpha
            g1t, g2t = (lam - alpha), -flam
            direct1, direct2 = gv.at_theta()
            row = [
                (direct1 * psi_theta[0][0] + direct2 * psi_theta[1][0])
                - (g1t * ref_top[0][0] + g2t * ref_top[1][0]),
                (direct1 * psi_theta[0][1] + direct2 * psi_theta[1][1])
                - (g1t * ref_top[0][1] + g2t * ref_top[1][1]),
            ]
            out.append(row)
        return out


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
        SF = dot(cfg, [(li, mod.quasi_period_eval(p.lam, lattice=lat))
                       for li, p in zip(ell["l"], points)])
        spec1 = Sl * xi * F2 + (B_t - SF) * xi * lat.omega2 \
            - ell["l11"] * pi
        spec2 = -(Sl * xi * F1) - (B_t - SF) * xi * lat.omega1 \
            - ell["l21"] * pi
        Aref = dot(cfg, [(p.alpha, li) for li, p in zip(ell["l"], points)])
        report["specialized_residuals"] = [spec1.vbound(), spec2.vbound()]
        report["A_residual"] = (A_t - Aref).vbound()
    return report
