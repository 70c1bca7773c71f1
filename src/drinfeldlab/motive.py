"""Rank-2 difference systems and their specializations.

This module assembles, for a normalized rank-2 Drinfeld module:

* the Carlitz objects: the product series Omega (rigid trivialization of
  the 1x1 system with multiplier t - theta) and the period pi_tilde :=
  -1/Omega(theta);
* the sign constant xi with xi^(q-1) = -1;
* the 2x2 multiplier matrix Phi and its trivialization
  Psi = xi Omega [[-b2, b1], [a2, -a1]], where (a_i, b_i) =
  (kappa f_i^(1) + f_i^(2), f_i^(1)) is the twisted pair of the generating
  function f_i of the period omega_i (AndersonGF.twisted_pair), carried
  both as a truncated t-series matrix (for coefficientwise identities) and
  at t = theta by pole-aware evaluation of the same pairs.  The factor
  xi Omega is applied through its product form (OmegaData.times), one
  linear factor 1 - t/theta^(q^i) at a time and then the monomial
  xi * prefactor, never through its expanded series.  The value,
  precision and tail are those of the expanded product; most of that
  product's term pairs cancel, and factor by factor they cancel before
  they are formed;
* the period matrix P = Psi(theta)^(-1) and the Legendre-type invariant
  [(omega1 F(omega2) - omega2 F(omega1)) * Omega(theta)]^(q-1) = -1.

Every identity is checked in its positively-twisted form, e.g.
Psi = Phi^(1) Psi^(1), so that no series coefficient ever needs a q-th
root; difference_residual forms X - Phi^(1) X^(1) for Omega, Psi, its
Kronecker square, its determinant and the block systems alike.
"""

from .agf import AndersonGF
from .cinf import INF, CInfApprox, _merge_logs
from .errors import (ConfigError, NotAUnit, ResidueFieldTooSmall,
                     SingularSpecialization)
from .tseries import TMatrix, TSeries


def designated_sign_root(cfg):
    """The fixed root of X^(q-1) = -1 in F_{q^2} (smallest code).

    All such roots lie in F_{q^2}; they exist there iff m is even.
    """
    F = cfg.field
    minus_one = F.neg(1)
    for c in range(2, F.size):
        if F.pow(c, cfg.q - 1) == minus_one and F.frob_q(c, 2) == c:
            return c
    raise ResidueFieldTooSmall(
        "no root of X^(q-1) = -1 in F_%d" % F.size,
        hint="use an even extension degree m so that F_{q^2} embeds")


def xi_constant(cfg):
    """The chosen xi with xi^(q-1) = -1, equivalently xi^(-1-twist) = -xi."""
    return cfg.from_coeff(designated_sign_root(cfg))


class OmegaData:
    """Truncated product form of the Carlitz trivialization.

    omega(t) = prefactor * prod_{i=1..I} (1 - t/theta^(q^i)), with
    prefactor = (-theta)^(-q/(q-1)) for the designated (q-1)-st root of
    -theta.  Dropped factors perturb any value by at least
    (q^(I+1) - 1) e grid units, which is folded into specializations.
    ``product`` is the exact degree-I polynomial, ``series`` its first T
    coefficients.
    """

    def __init__(self, cfg, I=None, T=None):
        if cfg.e % (cfg.q - 1) != 0:
            raise ConfigError("(q-1) must divide e for the prefactor root")
        if I is None:
            I = 1
            while (cfg.q ** (I + 1) - 1) * cfg.e < cfg.rel_prec:
                I += 1
        if T is None:
            T = cfg.t_terms
        self.cfg = cfg
        self.I = I
        self.root_tag = designated_sign_root(cfg)
        # prefactor = (c0 * theta^(1/(q-1)))^(-q)
        c0 = self.root_tag
        exp = cfg.q * cfg.e // (cfg.q - 1)
        self.prefactor = cfg.monomial(exp, cfg.field.pow(
            cfg.field.inv(c0), cfg.q))
        # factor i is 1 + roots[i-1] t
        self.roots = [-cfg.theta(-1).frobenius(i) for i in range(1, I + 1)]
        product = TSeries.from_poly(cfg, [cfg.one()])
        for r in self.roots:
            product = product * TSeries.from_poly(cfg, [cfg.one(), r])
        self.product = product.scale(self.prefactor)
        self.series = self.product.truncate(T)

    def times(self, a, c, T):
        """(c Omega) * a through T coefficients, for an exact scalar c.

        Applies the linear factors one at a time, g_k <- g_k + r_i g_(k-1),
        and then the monomial c * prefactor: the same value, length and
        tail as the product with the expanded series of c Omega, but the
        cancellation among the factors happens as early as it can.  Every
        coefficient stays a dict of discrete logs through all I steps and
        is converted to codes once, then multiplied by c * prefactor
        (dot's monomial pass when that is one term).

        Each step is dot's sum over the pairs (1, g_k) and (r_i, g_(k-1)),
        formed as dot forms it: its precision is dot's rule for those
        pairs, P = min(prec g_k, prec g_(k-1) + v(r_i)), and only the terms
        below P are merged, by one _merge_logs pass.  Keeping dot's
        rule at every step keeps the value and precision of the stepwise
        dots, and those compose to the dense rule, min over j of
        prec(a_(k-j)) + v(c * prefactor) + (q + ... + q^j) e, because the
        j-th elementary symmetric function of the roots has a unique lowest
        term.  The tail is read from that product's pair lists, which are
        not summed.
        """
        cfg = self.cfg
        F = cfg.field
        log, exp = F._log, F._exp
        # (exponent -> discrete log, precision) of each coefficient
        g = [({e: log[x] for e, x in y.terms.items()}, y.prec)
             for y in a.coeffs]
        if a.tail == INF:
            g += [({}, INF) for _ in range(self.I)]
        # every root is -theta^(-q^i): a shift and the log of -1
        minus = log[F._neg[1]]
        for r in self.roots:
            s = r.vbound()
            # downwards, so that g_(k-1) is still the old one when g_k
            # takes it, and each g_k is merged into in place
            for k in range(len(g) - 1, 0, -1):
                (acc, xp), (yt, yp) = g[k], g[k - 1]
                P = min(xp, yp + s)
                if P < xp:
                    acc = {e: l for e, l in acc.items() if e < P}
                _merge_logs(F, acc, yt.items(), s, minus, P - s)
                g[k] = (acc, P)
        scale = c * self.prefactor
        _, tail, _ = self.product.scale(c)._product(a)
        coeffs = [scale * CInfApprox._raw(cfg, {e: exp[k] for e, k in
                                                t.items()}, P)
                  for t, P in g]
        return TSeries(cfg, coeffs, tail).truncate(T)

    def tail_error(self):
        """Valuation floor of the dropped-factor perturbation, relative to
        the value it perturbs."""
        return (self.cfg.q ** (self.I + 1) - 1) * self.cfg.e

    def value_at(self, t0):
        """Specialize the finite product anywhere; the dropped factors are
        folded in as a relative error."""
        val = self.product.specialize(t0)
        if val.is_apparent_zero():
            return val
        return val.truncate(min(val.prec, val.valuation() + self.tail_error()))

    def pi_tilde(self):
        """-1/Omega(theta), the Carlitz period for this root choice."""
        return -self.value_at(self.cfg.theta()).inverse()

    def difference_residual(self, T=None):
        """Omega - (t - theta^q) Omega^(1), the rank-1 difference residual;
        the truncated form leaves only the dropped-factor dust."""
        cfg = self.cfg
        return difference_residual(
            TMatrix([[TSeries.t_minus_theta(cfg)]]), TMatrix([[self.product]]),
            cfg.t_terms if T is None else T).entry(0, 0)


def difference_residual(phi, psi, T):
    """psi - phi^(1) psi^(1), entrywise through T coefficients: the
    difference equation of every trivialization here.  psi is cut to T
    first; an exact entry shorter than T is known everywhere and is left
    unpadded, so that its products stay short."""
    psi = TMatrix([[a if a.T <= T else a.truncate(T) for a in r]
                   for r in psi.rows])
    return (psi - phi.twist(1) * psi.twist(1)).truncate(T)


def phi_matrix(module):
    """Multiplier matrix of the associated difference system.

    Rank 1: the 1x1 matrix (t - theta).  Rank 2:
    [[0, 1], [(t-theta)/u^(-2), -kappa^(-1)/u^(-2)]].
    """
    cfg = module.cfg
    if module.rank == 1:
        return TMatrix([[TSeries.t_minus_theta(cfg)]])
    u2 = module.u.frobenius(-2)
    k1 = module.kappa.frobenius(-1)
    zero = TSeries.constant(cfg, cfg.zero(INF))
    one = TSeries.constant(cfg, cfg.one())
    return TMatrix([
        [zero, one],
        [TSeries.t_minus_theta(cfg).scale(u2.inverse()),
         TSeries.constant(cfg, -(k1 / u2))],
    ])


class MotiveMatrices:
    """Phi, Psi and the scaffolding shared by all rank-2 identity checks."""

    def __init__(self, module, lattice, T=None):
        if not module.is_normalized() or module.rank != 2:
            raise ConfigError(
                "the trivialization display needs the normalized form u = 1; "
                "call normalize() first")
        cfg = module.cfg
        self.cfg = cfg
        self.module = module
        self.lattice = lattice
        self.T = T if T is not None else cfg.t_terms
        self.xi = xi_constant(cfg)
        self.omega = OmegaData(cfg, T=self.T)
        self.agf1 = AndersonGF(module, lattice.omega1)
        self.agf2 = AndersonGF(module, lattice.omega2)
        self.phi = phi_matrix(module)
        self.psi = self._build_psi()

    def _build_psi(self):
        """Psi = xi Omega [[-b2, b1], [a2, -a1]] for the twisted pairs
        (a_i, b_i) of omega_i; a negated entry takes -xi as Omega's
        scalar, so no series is negated."""
        T = self.T
        a1, b1 = self.agf1.twisted_pair(T)
        a2, b2 = self.agf2.twisted_pair(T)
        xi, mxi = self.xi, -self.xi
        return TMatrix([[self.omega.times(x, c, T) for x, c in r]
                        for r in [[(b2, mxi), (b1, xi)],
                                  [(a2, xi), (a1, mxi)]]])

    # -- coefficientwise identities ---------------------------------------------

    def difference_residual(self):
        """Psi - Phi^(1) Psi^(1), entrywise through T coefficients."""
        return difference_residual(self.phi, self.psi, self.T)

    def tensor_difference_residual(self):
        """Kronecker square: Psi x Psi against Phi x Phi."""
        return difference_residual(self.phi.kronecker(self.phi),
                                   self.psi.kronecker(self.psi), self.T)

    def wedge_residual(self):
        """det Psi - (det Phi)^(1) (det Psi)^(1): the wedge line, multiplier
        det Phi, trivialized by det Psi."""
        return difference_residual(TMatrix([[self.phi.det()]]),
                                   TMatrix([[self.psi.det()]]),
                                   self.T).entry(0, 0)

    def sigma_invariance_residual(self):
        """x - x^(1) for x = det Psi / (xi Omega); the true ratio lies in
        F_q(t), so every coefficient is Frobenius-fixed.  Returns
        (residual, constant_term)."""
        cfg = self.cfg
        dpsi = self.psi.det().truncate(self.T)
        xiom = self.omega.series.truncate(self.T).scale(self.xi)
        x = dpsi.divide(xiom)
        return (x - x.twist(1)).truncate(self.T), x.coeff(0)

    # -- specialization at t = theta ----------------------------------------------

    def psi_at_theta(self):
        """Psi(theta) by pole-aware evaluation of the generating functions."""
        a1, b1 = self.agf1.twisted_pair_at_theta()
        a2, b2 = self.agf2.twisted_pair_at_theta()
        s = self.xi * self.omega.value_at(self.cfg.theta())
        return [[-s * b2, s * b1], [s * a2, -s * a1]]

    def reference_psi_at_theta(self):
        """(xi/pi_tilde) [[F(omega2), -F(omega1)], [omega2, -omega1]] from
        independently computed periods and quasi-periods."""
        lat = self.lattice
        mod = self.module
        F1 = mod.quasi_period_eval(lat.omega1, lattice=lat)
        F2 = mod.quasi_period_eval(lat.omega2, lattice=lat)
        s = self.xi / self.omega.pi_tilde()
        return [[s * F2, -(s * F1)], [s * lat.omega2, -(s * lat.omega1)]]

    def specialization_residuals(self):
        """Entrywise difference between the two computations of Psi(theta)."""
        direct = self.psi_at_theta()
        ref = self.reference_psi_at_theta()
        return [[direct[i][j] - ref[i][j] for j in range(2)]
                for i in range(2)]

    def period_matrix(self):
        """P = Psi(theta)^(-1); singular means the seeds were dependent.
        Returns (P, Psi(theta))."""
        m = self.psi_at_theta()
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det.is_apparent_zero():
            raise SingularSpecialization(
                "Psi(theta) is singular to precision: dependent lattice seeds")
        inv = det.inverse()
        P = [[m[1][1] * inv, -(m[0][1] * inv)],
             [-(m[1][0] * inv), m[0][0] * inv]]
        return P, m

    def legendre_invariant(self):
        """[(omega1 F(omega2) - omega2 F(omega1)) * Omega(theta)]^(q-1).

        The bracket is pi_tilde/xi up to the root choices, so the scaled
        bracket is a unit and its (q-1)-st power is exactly -1 in the
        residue field, independent of every choice made.  Returns a report
        dict with the exact residue-field value.
        """
        return self.legendre_invariant_for(self.lattice)

    def legendre_invariant_for(self, lattice):
        """Same invariant on another basis of the same lattice (used to
        certify invariance under rescaling and unimodular changes)."""
        cfg = self.cfg
        bracket = lattice.bracket
        if bracket is None:
            bracket = self.module.legendre_bracket(lattice)
        b = bracket * self.omega.value_at(cfg.theta())
        if b.is_apparent_zero() or b.valuation() != 0:
            raise NotAUnit(
                "scaled quasi-period bracket is not a unit "
                "(v = %s)" % (b.vbound() if b.is_apparent_zero()
                              else b.valuation()))
        lead = b.terms[0]
        resid = b - cfg.from_coeff(lead)
        value = cfg.field.pow(lead, cfg.q - 1)
        return {
            "unit_code": lead,
            "invariant_code": value,
            "is_minus_one": value == cfg.field.neg(1),
            "unit_tail_valuation": resid.vbound(),
        }
