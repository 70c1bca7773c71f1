"""Anderson generating functions in pole/partial-fraction form.

For a module rho and u in C_inf the generating function is

    f_u(t) = sum_j exp(u/theta^(j+1)) t^j
           = sum_i alpha_i u^(q^i) / (theta^(q^i) - t),

a meromorphic function with simple poles at theta^(q^i) and residues
-alpha_i u^(q^i) = -numerators[i].  The partial-fraction form is primary
here: its n-fold twist evaluates at t = theta for n >= 1, which is where
every period identity is read off.  There each denominator is
theta^(q^k) - theta, whose inverse has every coefficient 1, so dividing by
it is a running sum (_pole_sum) rather than a product.  The t-power-series
form (series, the one t-series path) exists for radius-1 work and takes
its coefficients from the exp ladder (DrinfeldModule._exp_levels).  Both
forms read the same products alpha_i u^(q^i), the numerators, which the
generating function forms once when it is built and owns: every ladder
over u (exp(u), the series, the levels and rows of Psi's columns) and the
quasi-period F_tau(u) read them in place through it.  A residual check
exp(u) ~ 0 or exp(lambda) = alpha (a tower, a log point) builds the
generating function of its argument and reads exp(u) off it, and the
tower or point keeps it; so each u's numerators are formed once, and only
the module that formed them reads them.
The dual-representation oracle, which rebuilds the series from the I
poles and their floor, lives in the tests.

Every tail (the dropped coefficients of the series and the dropped poles
of a twisted evaluation) is a q-linear exponential tail, so each is
certified by DrinfeldModule._tail_floors and its induction proof.

The twisted pair at t = theta, the series pair for each T, exp(u), which
both residual reports read off the numerators, and F_tau(u) are computed
once per generating function, under the one memo rule (cinf.once).
"""

# weakref.ref itself, from the built-in module: importing weakref loads
# weakref.py and _weakrefset.py, about 1.4 ms on a cold command
from _weakref import ref

from .cinf import INF, CInfApprox, _merge_logs, dot, once
from .errors import ConfigError, PoleHit

# TSeries is imported where a series is formed (series, the functional
# equation), so periods and quasi-periods never load tseries.py


class AndersonGF:
    def __init__(self, module, u):
        """The numerators alpha_i u^(q^i), one per pole, are formed here
        (module._numerators), once."""
        self._module = ref(module)
        self._holds = module
        self.cfg = module.cfg
        self.u = u
        self.numerators = module._numerators(u)
        self.I = len(self.numerators)
        self._memo = {}

    @property
    def module(self):
        """The module the generating function is over; None once a module
        that only its own tower referred to is gone (_held_by_module)."""
        return self._module()

    def _held_by_module(self):
        """Refer to the module weakly from now on: a tower of the module's
        lattice keeps this generating function, and the module keeps the
        lattice, so a strong reference back would be a cycle that holds
        every table of the module until the cyclic collector runs.  Called
        once, by the tower's builder, before the tower is shared."""
        self._holds = None

    # -- the t-series -------------------------------------------------------------

    def series(self, T=None):
        """Truncated t-series from the defining coefficients, with a tail
        bound for the dropped ones.  Coefficient j is exp(u / theta^(j+1))
        as exp_eval gives it, in terms and precision; all T come from one
        exp ladder over u, which reads the numerators in place."""
        from .tseries import TSeries
        cfg = self.cfg
        if T is None:
            T = cfg.t_terms
        coeffs = self.levels([(j + 1) * cfg.e for j in range(T)])
        return TSeries(cfg, coeffs, tail=self._series_tail(T))

    def levels(self, shifts, precs=None):
        """[exp(u theta^(-k/e)) for k in shifts], from one exp ladder over u
        that reads the numerators in place (DrinfeldModule._exp_levels,
        precs as there)."""
        return self.module._exp_levels("exp", self.u, shifts, precs,
                                       self.numerators)

    def row(self, i, cap):
        """alpha_i u^(q^i) capped at cap: numerator i cut there, or for a
        row past the poles one capped product (DrinfeldModule._ladder_row)."""
        return self.module._ladder_row("exp", self.u, i, cap,
                                       self.numerators)

    def _series_tail(self, T):
        """The tail of series(T): a floor for every dropped coefficient."""
        if self.u.is_exact_zero():
            return INF
        # v(exp(w)) >= min_i bound_i + q^i v(w); arguments only shrink with j
        vw = self.u.vbound() + (T + 1) * self.cfg.e
        return self.module._tail_floors("exp", [vw], -1)[0]

    # -- pole-aware evaluation ----------------------------------------------------

    def eval_twisted(self, n, t0):
        """Value of the n-fold twist at t = t0 (n >= 0):
        sum_i n_i^(q^n) / (theta^(q^(i+n)) - t0), poles checked, tail
        certified.  t0 = theta is legal exactly when n >= 1."""
        cfg = self.cfg
        if t0.is_apparent_zero():
            v0 = INF
        else:
            v0 = t0.valuation()
        # at t0 = theta each denominator is theta^(q^(i+n)) - theta, and
        # _pole_sum divides by it as the product with its inverse would
        if t0.prec == INF and t0.terms == {-cfg.e: 1}:
            if n == 0:
                raise PoleHit(
                    "t0 coincides with the pole theta^(q^0) to precision")
            acc = _pole_sum(cfg, [(x, i + n)
                                  for i, x in enumerate(self.numerators)], n)
        else:
            pairs = []
            for i in range(self.I):
                den = cfg.theta(1).frobenius(i + n) - t0
                if den.is_apparent_zero():
                    raise PoleHit(
                        "t0 coincides with the pole theta^(q^%d) to "
                        "precision" % (i + n))
                pairs.append((self.numerators[i].frobenius(n),
                              den.inverse()))
            acc = dot(cfg, pairs)
        # dropped poles are huge; make sure t0 cannot collide with them
        if v0 <= -cfg.q ** (self.I + n) * cfg.e:
            raise PoleHit("t0 reaches into the dropped pole range; "
                          "increase the pole count")
        if self.u.is_exact_zero():
            return acc
        # dropped pole i adds a term of valuation
        # q^n v(alpha_i (u/theta)^(q^i)): q^n times an exp tail term at u/theta
        floor = cfg.q ** n * self.module._tail_floors(
            "exp", [self.u.vbound() + cfg.e], self.I - 1)[0]
        return acc.truncate(min(acc.prec, floor))

    # -- the twisted pair ---------------------------------------------------------

    def twisted_pair(self, T=None):
        """(kappa f^(1) + f^(2), f^(1)) through T coefficients: every
        g-vector is this pair, signed where it is used, and every column of
        Psi is its product with xi Omega, which OmegaData.column forms from
        the numerators instead.  Computed once per generating function and
        T (_twisted_pair)."""
        self._require_normalized()
        return self._twisted_pair(self.cfg.t_terms if T is None else T)

    @once
    def _twisted_pair(self, T):
        f = self.series(T)
        f1 = f.twist(1)
        return f1.scale(self.module.kappa) + f.twist(2), f1

    @once
    def twisted_pair_at_theta(self):
        """The same pair at t = theta, by pole-aware evaluation; computed
        once per generating function."""
        self._require_normalized()
        th = self.cfg.theta()
        f1 = self.eval_twisted(1, th)
        return self.module.kappa * f1 + self.eval_twisted(2, th), f1

    def _require_normalized(self):
        require_normalized(self.module, "the twisted pair")

    @once
    def _exp_u(self):
        """exp(u) as exp_eval gives it, in terms and precision: the one
        level of the exp ladder over u, which reads the numerators in
        place; for u zero to precision P, zero to P.  The residual check
        of a tower or log point reads it here.  Computed once."""
        return self.levels([0])[0]

    @once
    def quasi_period(self):
        """F_tau(u) = f_u^(1)(theta), as quasi_period_eval(u) gives it: the
        quasi-period sum, which cuts the numerators for its rows
        (DrinfeldModule._quasi_period_sum).  Computed once."""
        return self.module._quasi_period_sum(self.u, None, self.numerators)

    # -- functional equation reports ----------------------------------------------

    def functional_equation_residual(self, T=None):
        """kappa f^(1) + u_rho f^(2) - (t-theta) f - exp(u), as a TSeries;
        every coefficient of the true function vanishes."""
        from .tseries import TSeries
        cfg = self.cfg
        if T is None:
            T = cfg.t_terms
        mod = self.module
        F = self.series(T)
        res = F.twist(1).scale(mod.kappa) - TSeries.t_minus_theta(cfg) * F \
            - TSeries.constant(cfg, self._exp_u()).truncate(T)
        if mod.rank == 2:
            res = res + F.twist(2).scale(mod.u)
        return res.truncate(T)

    def specialization_residual(self):
        """kappa f^(1)(theta) + u_rho f^(2)(theta) + u - exp(u); zero for
        the true function (the simple pole at theta eats one u)."""
        cfg = self.cfg
        mod = self.module
        th = cfg.theta()
        val = mod.kappa * self.eval_twisted(1, th) + self.u
        if mod.rank == 2:
            val = val + mod.u * self.eval_twisted(2, th)
        return val - self._exp_u()


def require_normalized(module, what):
    """ConfigError unless module has rank 2 and the normalized form u = 1,
    which what (a construction) needs: normalize() serves a rank-2 module
    with u != 1, but the Carlitz module has no rank-2 form."""
    if module.rank != 2:
        raise ConfigError("%s needs a rank-2 module, not the rank-1 "
                          "Carlitz module" % what)
    if not module.is_normalized():
        raise ConfigError("%s needs a rank-2 module in the normalized form "
                          "u = 1; call normalize() first" % what)


def _pole_sum(cfg, parts, n):
    """sum x^(q^n) / (theta^(q^k) - theta) over the (x, k) of parts,
    k >= 1: the value dot(cfg, [(x.frobenius(n), cfg.pole_inverse(k)),
    ...]) gives, without forming the twists or the products.

    1/(theta^Q - theta) = sum_(j >= 0) theta^(-Q - j(Q - 1)), every
    coefficient 1, so y = x/(theta^Q - theta) obeys
    y[E] = x[E - Q e] + y[E - (Q - 1) e]: a running sum along each class
    of exponents mod (Q - 1) e, one step per output exponent where the
    product takes one per term pair; each part's running sums are then
    merged into the sum by one _merge_logs pass.  The twist is read off
    x's terms: exponents and discrete logs times q^n.  P is dot's rule
    over the pairs (x^(q^n), pole_inverse(k)), with the inverse's
    valuation Q e and precision Q e + rel_prec as pole_inverse writes it.
    A term of the series that pole_inverse lacks lies at or above its
    precision, so its products lie at or above prec(inverse) + v(x^(q^n))
    >= P: the digits below P are the products'.
    """
    F = cfg.field
    exp, log, zech = F._exp, F._log, F._zech
    order = F.size - 1
    qn = cfg.q_powers(n)[n]
    e = cfg.e
    prec = INF
    for x, k in parts:
        vx, vi = qn * x.vbound(), cfg.q_powers(k)[k] * e
        p = min(qn * x.prec + vi, vi + cfg.rel_prec + vx)
        if p < prec:
            prec = p
    if prec != INF:
        prec = int(prec)
    out = {}
    for x, k in parts:
        q_k = cfg.q_powers(k)[k]
        shift, step = q_k * e, (q_k - 1) * e
        classes = {}
        sums = []
        for ex, c in x.terms.items():
            ex = qn * ex + shift
            if ex < prec:
                classes.setdefault(ex % step, []).append(
                    (ex, qn * log[c] % order))
        for src in classes.values():
            src.sort()
            src.append((INF, None))
            at, cur = 0, None
            ex = src[0][0]
            while ex < prec:
                if src[at][0] == ex:
                    l = src[at][1]
                    at += 1
                    if cur is None:
                        cur = l
                    else:
                        z = zech[l - cur]
                        if z is None:
                            cur = None
                        else:
                            cur += z
                            if cur >= order:
                                cur -= order
                if cur is None:
                    # the running sum is zero until the next source term
                    ex = src[at][0]
                    continue
                sums.append((ex, cur))
                ex += step
        _merge_logs(F, out, sums, 0, 0, prec)
    return CInfApprox._raw(cfg, {ex: exp[l] for ex, l in out.items()}, prec)
