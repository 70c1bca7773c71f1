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
  at t = theta by pole-aware evaluation of the same pairs.  The series
  entries come from the poles of f_i (OmegaData.column), not from its
  t-series: the factor 1 - t/theta^(q^L) of the truncated Omega_I cancels
  the pole theta^(q^L) of f_i^(1) and f_i^(2) for L <= I, so
  Omega_I/(theta^(q^L) - t) is a polynomial, and each coefficient of
  xi Omega b_i is one sum of the twisted products alpha_i omega_i^(q^i)
  against those coefficients.  The value, precision and tail are those of
  the product of the series of xi Omega_I with the twisted-pair series,
  almost all of whose terms cancel;
* the period matrix P = Psi(theta)^(-1) and the Legendre-type invariant
  [(omega1 F(omega2) - omega2 F(omega1)) * Omega(theta)]^(q-1) = -1.
  Psi(theta), its reference (xi/pi_tilde) [[F(omega2), -F(omega1)],
  [omega2, -omega1]], with xi/pi_tilde read as -(xi Omega(theta)), and
  the Legendre bracket are multiplied by Omega_I(theta) =
  (-theta)^(-q/(q-1)) prod_(i <= I) (1 - theta^(1 - q^i)) one factor at a
  time (OmegaData.scale_at_theta), with the terms and precision of the
  product by its value.

Every identity is checked in its positively-twisted form, e.g.
Psi = Phi^(1) Psi^(1), so that no series coefficient ever needs a q-th
root; difference_residual forms X - Phi^(1) X^(1) for Omega, Psi, its
Kronecker square, its determinant and the block systems alike.
"""

from .agf import AndersonGF, require_normalized
from .cinf import INF, CInfApprox, _merge_codes, _merge_logs, dot
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
    ``product`` is the exact degree-I polynomial; ``column`` multiplies it
    into a generating function's twisted pair through the poles.
    """

    def __init__(self, cfg, I=None):
        if cfg.e % (cfg.q - 1) != 0:
            raise ConfigError("(q-1) must divide e for the prefactor root")
        if I is None:
            I = 1
            while (cfg.q ** (I + 1) - 1) * cfg.e < cfg.rel_prec:
                I += 1
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

    def _pole_row(self, L, T):
        """[coefficient k of Omega_I / (theta^(q^L) - t) for k < T],
        prefactor included, exact.

        (theta^Q - t) W = Omega_I, Q = q^L, gives W_k = theta^(-Q)
        (Omega_k + W_(k-1)): a shift and at most one merge per coefficient.
        For L <= I the factor 1 - t/theta^Q of Omega_I cancels the pole, so
        W is a polynomial of degree I - 1 and the merges leave exact zeros
        from k = I on.  Every term of W is a term of Omega_I times a power
        theta^(-Q(j+1)), so v(W_k) >= v(prefactor) + Q e."""
        cfg = self.cfg
        F = cfg.field
        s = cfg.q_powers(L)[L] * cfg.e
        w, row = {}, []
        for k in range(T):
            w = {x + s: c for x, c in w.items()}
            if k < len(self.product.coeffs):
                w = _merge_codes(F, w, self.product.coeffs[k].terms, s, 0,
                                 INF)
            row.append(CInfApprox._raw(cfg, w, INF))
        return row

    def column(self, gf, c, T):
        """(c Omega b, -c Omega a) through T coefficients, for the twisted
        pair (a, b) = gf.twisted_pair(T) of a generating function of a
        rank-2 module and a nonzero field constant c (a code): the terms,
        precisions and tails of the products of c Omega_I's series with the
        pair's series, formed from the poles of gf.

        With n_i = alpha_i u^(q^i) over the ladder's rows i <= exp_depth,
        f^(1) = sum_L B_L / (theta^(q^L) - t) with B_L = n_(L-1)^q, and
        f^(2) = sum_L D_L / (theta^(q^L) - t) with D_L = n_(L-2)^(q^2).  So
        coefficient k of Omega_I b is S_k = sum_L B_L C_(L,k), with
        C_(L,k) = _pole_row(L, T)[k], and that of Omega_I a is kappa S_k +
        sum_L D_L C_(L,k): one dot each, capped at P_k, then times c or -c.
        Only the pairs whose lowest term lands below P_k are listed, and a
        row whose lowest term plus v(prefactor) + q^L e reaches no P_k
        builds no C_(L, .); each row n_i that a pair reads is formed once
        (AndersonGF.row), cut to the digits its pairs read, and twisted.

        Precision first: P_k comes from valuations and precisions alone.
        The series coefficient f_j has the ladder's precision R_j
        (_precs), so b_j has q R_j and a_j, by dot's rule for the kappa
        scale, min(q^2 R_j, v(kappa) + q R_j, prec(kappa) + q v(f_j)).  The
        last is read only for an inexact kappa, from the levels f_j formed
        to R_j.  Each factor 1 - t/theta^(q^i) of Omega_I is dot's rule for
        a sum of two pairs, P_k <- min(P_k, P_(k-1) + q^i e), and
        c * prefactor adds v(prefactor).  MotiveMatrices._build_psi shows
        that these are the product's terms and precisions.

        The tail is _product's rule: h, the pair's tail plus the lowest
        valuation of c Omega_I, or v(c Omega_i) + v(x_j) for some 1 <= i
        <= I and T - i <= j < T, when that is lower.  That reads the last I
        levels, and only below h - min over i >= 1 of v(Omega_i): for an
        exact kappa only those levels are formed, cut at the first digit C
        where x_j = f_j^(1), known to q C, and kappa f_j^(1) + f_j^(2),
        known to min(q C + v(kappa), q^2 C), reach that bound (the a
        column's h is at most the b column's plus v(kappa), so q C reaching
        the b bound settles the first term of the second).  A cut x_j
        has the full one's terms below its precision, so its valuation
        bound differs from the full one's only where both are at or above
        the bound, and neither lowers h there.
        """
        cfg = self.cfg
        q, e, I = cfg.q, cfg.e, self.I
        mod, u = gf.module, gf.u
        kappa = mod.kappa
        vk = kappa.vbound()
        rows = {}
        shifts = [(j + 1) * e for j in range(T)]
        qs = cfg.q_powers(cfg.exp_depth + 2)
        if u.is_apparent_zero():
            R, low = [u.shift(s).prec for s in shifts], []
        else:
            vu = u.valuation()
            R = mod._precs("exp", vu, u.prec, shifts)
            # the lowest term of n_i, None for a row without terms
            low = [x.vbound() + qs[i] * vu if x.terms else None
                   for i, x in enumerate(mod.exp_coeffs(cfg.exp_depth))]
        # the tails: the pair's, shifted by Omega_I's lowest term, against
        # the dropped pairs of Omega_i, i >= 1, with the last levels, which
        # lower them only below h = that tail - v(Omega_i)
        t = gf._series_tail(T)
        tb = ta = t
        if t != INF:
            tb, ta = q * t, q * q * t
            if not kappa.is_exact_zero():
                ta = min(ta, tb + vk)
        vo = [x.vbound() for x in self.product.coeffs]
        tb, ta = tb + min(vo), ta + min(vo)
        # the levels f_j: for an exact kappa the last I, cut at the digit C
        # past which f^(1) and kappa f^(1) + f^(2) are known to h (q C >=
        # h_b and q^2 C >= h_a; q C + v(kappa) >= h_b + v(kappa) >= h_a);
        # for an inexact one all T to R_j, since P_k reads v(f_j)
        js, cut = range(T), INF
        if kappa.prec == INF:
            js = range(max(0, T - I), T)
            if t != INF:
                hb, ha = tb - min(vo[1:]), ta - min(vo[1:])
                cut = max(-(-hb // q), -(-ha // (q * q)))
        f = dict(zip(js, gf.levels([shifts[j] for j in js],
                                   [min(R[j], cut) for j in js])))
        # P_k, b column then a column
        Pb = [q * r for r in R]
        Pa = [q * r for r in Pb]
        if not kappa.is_exact_zero():
            Pa = [min(x, vk + y) for x, y in zip(Pa, Pb)]
        if kappa.prec != INF:
            Pa = [min(x, kappa.prec + q * f[j].vbound())
                  for j, x in enumerate(Pa)]
        for r in self.roots:
            s = r.vbound()
            for P in (Pb, Pa):
                for k in range(T - 1, 0, -1):
                    if P[k - 1] + s < P[k]:
                        P[k] = P[k - 1] + s
        vp = self.prefactor.vbound()
        precs = {1: [p + vp for p in Pb], 2: [p + vp for p in Pa]}
        # the pairs below P_k, each row cut to the digits they read
        pairs = {(n, k): [] for n in (1, 2) for k in range(T)}
        for i, v in enumerate(low):
            if v is None:
                continue
            reads = []
            for n, P in precs.items():
                w = qs[n] * v
                if w + vp + qs[i + n] * e >= max(P):
                    continue
                row = rows.get(i + n)
                if row is None:
                    row = rows[i + n] = self._pole_row(i + n, T)
                ks = [k for k in range(T) if w + row[k].vbound() < P[k]]
                if ks:
                    # the digits of n_i these pairs read
                    cap = max(P[k] - row[k].vbound() for k in ks)
                    reads.append((n, row, ks, -(-cap // qs[n])))
            if reads:
                x = gf.row(i, max(r[3] for r in reads))
                for n, row, ks, _ in reads:
                    xn = x.frobenius(n)
                    for k in ks:
                        pairs[n, k].append((xn, row[k]))
        nc = cfg.field.neg(c)
        top, bottom = [], []
        for k in range(T):
            s = dot(cfg, pairs[1, k], precs[1][k])
            d = pairs[2, k]
            if not kappa.is_exact_zero():
                d.append((kappa, s))
            top.append(s.scale(c))
            bottom.append(dot(cfg, d, precs[2][k]).scale(nc))
        for j, x in f.items():
            if j >= T - I:
                x1 = x.frobenius(1)
                xa = (kappa * x1 + x.frobenius(2)).vbound()
                for i in range(max(1, T - j), I + 1):
                    tb = min(tb, vo[i] + x1.vbound())
                    ta = min(ta, vo[i] + xa)
        return TSeries(cfg, top, tb), TSeries(cfg, bottom, ta)

    def tail_error(self):
        """Valuation floor of the dropped-factor perturbation, relative to
        the value it perturbs."""
        return (self.cfg.q ** (self.I + 1) - 1) * self.cfg.e

    def scale_at_theta(self, x, c):
        """c Omega_I(theta) x for a nonzero field constant c (a code), with
        the terms and precision of dot(cfg, [(w.scale(c), x)]), w the
        finite product specialized at theta with the dropped factors folded
        in as a relative error (cut at its valuation plus tail_error), one
        factor of Omega_I(theta) at a time.

        Omega_I(theta) = prefactor * prod_(i <= I) (1 - theta^(1 - q^i)),
        and every factor has leading term 1, so w has valuation
        v_p = v(prefactor) and precision v_p + tail_error.
        Precision first, by dot's rule: P = min(v_p + tail_error + v(x),
        prec(x) + v_p), INF for the exact zero.  Below P the product's
        terms are those of c Omega_I(theta) x_0, x_0 the polynomial of x's
        known terms: a term of Omega_I(theta) that w drops lies at
        or above v_p + tail_error, so its products with x land at or above
        P.  Each factor only raises exponents, so y = x_0 cut below
        P - v_p is multiplied by one factor at a time, y <- y -
        y theta^(-(q^i - 1) e), read off a copy of y and kept below P - v_p
        (_merge_logs); the monomial c * prefactor then shifts y by v_p.
        The field sums are exact, so these are the products' terms below
        P."""
        cfg = self.cfg
        F = cfg.field
        log, order = F._log, F.size - 1
        vp = self.prefactor.vbound()
        prec = min(vp + self.tail_error() + x.vbound(), x.prec + vp)
        limit = prec - vp
        y = {k: log[a] for k, a in x.terms.items() if k < limit}
        minus = log[F.neg(1)]
        for r in self.roots:
            s = r.vbound() - cfg.e
            _merge_logs(F, y, list(y.items()), s, minus, limit - s)
        l0 = (log[c] + log[self.prefactor.terms[vp]]) % order
        exp = F._exp
        return CInfApprox._raw(
            cfg, {k + vp: exp[l + l0] for k, l in y.items()}, prec)

    def pi_tilde(self):
        """-1/Omega(theta), the Carlitz period for this root choice, with
        Omega(theta) read off scale_at_theta."""
        return -self.scale_at_theta(self.cfg.one(), 1).inverse()

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
        require_normalized(module, "the trivialization display")
        cfg = module.cfg
        self.cfg = cfg
        self.module = module
        self.lattice = lattice
        self.T = T if T is not None else cfg.t_terms
        self.xi = xi_constant(cfg)
        self.omega = OmegaData(cfg)
        # each period's generating function is the one its tower keeps,
        # when this module built the tower
        self.agf1, self.agf2 = (
            lattice.gf_of(om, module) or AndersonGF(module, om)
            for om in lattice.basis())
        self.phi = phi_matrix(module)
        self.psi = self._build_psi()

    def _build_psi(self):
        """Psi = xi Omega [[-b2, b1], [a2, -a1]] for the twisted pairs
        (a_i, b_i) of omega_i, a column per period from the poles of its
        generating function (OmegaData.column); a negated entry takes -xi
        as Omega's scalar, so no series is negated.  Each entry has the
        terms, precision and tail of the product of the series of
        +-xi Omega_I with the twisted-pair series, as follows.

        P_k is that product's precision.  f_j, the ladder's level j, has
        precision R_j; the twist multiplies it by q, the kappa scale and
        the sum of the a column take dot's rule and the minimum, each
        factor of Omega_I is a sum of the two pairs (1, g_k) and
        (-theta^(-q^i), g_(k-1)), and the monomial xi * prefactor shifts
        the result: these are the steps column takes on P_k.

        Below P_k the pole form has the product's terms.  Let X_j =
        sum_L X_L theta^(-q^L (j+1)) over all rows i <= exp_depth.  Level j
        holds the terms of f_j below R_j, since a row the ladder skips
        there has its lowest term at or above R_j; so x_j, the twisted
        level, holds X_j's terms below prec(x_j).  Coefficient k of the
        product is sum_m e_m x_(k-m), e_m = Omega_m (prefactor included),
        and a term that x_(k-m) lacks would land at or above prec(x_(k-m))
        + v(e_m) >= P_k.  So its terms below P_k are those of
        sum_m e_m X_(k-m) = sum_L X_L C_(L,k).  In the a column kappa
        multiplies S_k known to P_k^b; a term of S_k past that lands at or
        above v(kappa) + P_k^b >= P_k^a, since prec(a_j) <= v(kappa) +
        q R_j.

        No row or dropped pole reaches below P_k, and every dot's own
        precision is P_k.  C_(L,k) = sum_(m <= min(k, I)) e_m
        theta^(-q^L (k-m+1)), so v(C_(L,k)) >= min_m v(e_m) +
        q^L (k-m+1) e; and _precs keeps R_j <= prec(n_i) +
        q^i (j+1) e for every row.  Together, a pair's precision
        q prec(n_(L-1)) + v(C_(L,k)) is at least min_m q R_(k-m) + v(e_m)
        >= P_k^b, and with q^2 the same holds for the D pairs against
        P_k^a.  The pair (kappa, S_k) has min(prec(kappa) + v(S_k),
        v(kappa) + P_k^b) >= P_k^a by the same bounds on v(S_k).  With the
        lowest term v(n_i) in place of prec(n_i) the same inequality holds
        for every row's terms, so a pair left out, and a row the ladder
        skips at every level, has no term below P_k.  The dropped poles
        are those of the rows past exp_depth, which neither the ladder nor
        column forms: for them v(n_i) + q^i (j+1) e lies at or above the
        ladder's tail floor, which caps R_j, so by the same inequality
        their pairs have no term below P_k either.
        """
        T, xi = self.T, self.xi.terms[0]
        b2, a2 = self.omega.column(self.agf2, self.cfg.field.neg(xi), T)
        b1, a1 = self.omega.column(self.agf1, xi, T)
        return TMatrix([[b2, b1], [a2, a1]])

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
        xiom = self.omega.product.truncate(self.T).scale(self.xi)
        x = dpsi.divide(xiom)
        return (x - x.twist(1)).truncate(self.T), x.coeff(0)

    # -- specialization at t = theta ----------------------------------------------

    def psi_at_theta(self):
        """Psi(theta) by pole-aware evaluation of the generating functions:
        xi Omega(theta) [[-b2, b1], [a2, -a1]], each entry's sign folded
        into Omega's scalar +-xi and Omega_I(theta) multiplied in one
        factor at a time (OmegaData.scale_at_theta), with the terms and
        precision of the product by xi Omega(theta)."""
        a1, b1 = self.agf1.twisted_pair_at_theta()
        a2, b2 = self.agf2.twisted_pair_at_theta()
        xi = self.xi.terms[0]
        nxi = self.cfg.field.neg(xi)
        scale = self.omega.scale_at_theta
        return [[scale(b2, nxi), scale(b1, xi)],
                [scale(a2, xi), scale(a1, nxi)]]

    def reference_psi_at_theta(self):
        """(xi/pi_tilde) [[F(omega2), -F(omega1)], [omega2, -omega1]] from
        independently computed periods and quasi-periods.

        xi/pi_tilde is read as -(xi Omega(theta)), the identity that
        pi_tilde = -1/Omega(theta) itself defines: no inversion, so the
        scale keeps Omega(theta)'s precision instead of the rel_prec cap that
        the two inverses of the quotient form put on it.  Each entry's sign
        is folded into Omega's scalar +-xi, and Omega_I(theta) is
        multiplied in one factor at a time (OmegaData.scale_at_theta), with
        the terms and precision of the product by -(xi Omega(theta))."""
        lat = self.lattice
        mod = self.module
        F1 = mod.quasi_period_eval(lat.omega1, lattice=lat)
        F2 = mod.quasi_period_eval(lat.omega2, lattice=lat)
        xi = self.xi.terms[0]
        nxi = self.cfg.field.neg(xi)
        scale = self.omega.scale_at_theta
        return [[scale(F2, nxi), scale(F1, xi)],
                [scale(lat.omega2, nxi), scale(lat.omega1, xi)]]

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
        certify invariance under rescaling and unimodular changes).  The
        bracket is multiplied by Omega_I(theta) one factor at a time
        (OmegaData.scale_at_theta), with the terms and precision of the
        product by Omega(theta)."""
        cfg = self.cfg
        bracket = lattice.bracket
        if bracket is None:
            bracket = self.module.legendre_bracket(lattice)
        b = self.omega.scale_at_theta(bracket, 1)
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
