"""Anderson generating functions in pole/partial-fraction form.

For a module rho and u in C_inf the generating function is

    f_u(t) = sum_j exp(u/theta^(j+1)) t^j
           = sum_i alpha_i u^(q^i) / (theta^(q^i) - t),

a meromorphic function with simple poles at theta^(q^i) and residues
-alpha_i u^(q^i).  The partial-fraction form is primary here: its n-fold
twist evaluates at t = theta for n >= 1, which is where every period
identity is read off.  The t-power-series form exists for radius-1 work
and as the independent half of the dual-representation check.
"""

from .cinf import INF
from .errors import PoleHit, PrecisionExhausted
from .tseries import TSeries

_TAIL_SCAN = 48


class AndersonGF:
    def __init__(self, module, u, pole_count=None):
        cfg = module.cfg
        self.module = module
        self.cfg = cfg
        self.u = u
        if pole_count is None:
            pole_count = cfg.pole_count or cfg.exp_depth
        self.I = pole_count
        alphas = module.exp_coeffs(pole_count - 1)
        self.numerators = [alphas[i] * u.frobenius(i)
                           for i in range(pole_count)]

    # -- bounds ----------------------------------------------------------------

    def _numerator_vbounds(self, upto):
        """Integer lower bounds for v(alpha_i u^{q^i})."""
        if self.u.is_exact_zero():
            return [INF] * (upto + 1)
        vu = self.u.vbound()
        ab = self.module._coeff_vbounds("exp", upto)
        return [ab[i] + self.cfg.q ** i * vu for i in range(upto + 1)]

    def _tail_floor(self, weights):
        """min over dropped poles i >= I of nb[i] + weights(i), certified the
        same way as the exponential tail (weights must be nondecreasing)."""
        end = self.I + _TAIL_SCAN
        nb = self._numerator_vbounds(end)
        vals = [nb[i] + weights(i) for i in range(self.I, end + 1)]
        floor = min(vals)
        if vals[-1] < floor + self.cfg.e:
            raise PrecisionExhausted(
                "generating-function tail did not stabilize; "
                "increase the pole count")
        return floor

    # -- the two representations -------------------------------------------------

    def t_coeff(self, j):
        """Series coefficient exp(u / theta^(j+1)) (the defining form)."""
        return self.module.exp_eval(self.u / self.cfg.theta(j + 1))

    def series(self, T=None):
        """Truncated t-series from the defining coefficients, with a tail
        bound for the dropped ones."""
        cfg = self.cfg
        if T is None:
            T = cfg.t_terms
        coeffs = [self.t_coeff(j) for j in range(T)]
        if self.u.is_exact_zero():
            return TSeries(cfg, coeffs, tail=INF)
        # v(exp(w)) >= min_i bound_i + q^i v(w); arguments only shrink with j
        vw = self.u.vbound() + (T + 1) * cfg.e
        tail = self.module._tail_floor("exp", vw, -1)
        return TSeries(cfg, coeffs, tail=tail)

    def series_from_poles(self, T=None):
        """The same truncated series out of the partial fractions:
        coefficient j is sum_i n_i theta^(-q^i (j+1)).  Independent of
        exp_eval, which makes it the dual-representation cross-check."""
        cfg = self.cfg
        if T is None:
            T = cfg.t_terms
        out = []
        for j in range(T):
            acc = cfg.zero(INF)
            for i in range(self.I):
                acc = acc + self.numerators[i] * cfg.theta(-(j + 1)).frobenius(i)
            floor = self._tail_floor(lambda i: cfg.q ** i * (j + 1) * cfg.e)
            out.append(acc.truncate(min(acc.prec, floor)))
        return TSeries(cfg, out, tail=None)

    # -- pole-aware evaluation ----------------------------------------------------

    def residue(self, i):
        """Residue at theta^(q^i): -alpha_i u^(q^i)."""
        return -self.numerators[i]

    def eval_twisted(self, n, t0):
        """Value of the n-fold twist at t = t0 (n >= 0):
        sum_i n_i^(q^n) / (theta^(q^(i+n)) - t0), poles checked, tail
        certified.  t0 = theta is legal exactly when n >= 1."""
        cfg = self.cfg
        if t0.is_apparent_zero():
            v0 = INF
        else:
            v0 = t0.valuation()
        acc = cfg.zero(INF)
        for i in range(self.I):
            pole = cfg.theta(1).frobenius(i + n)
            den = pole - t0
            if den.is_apparent_zero():
                raise PoleHit(
                    "t0 coincides with the pole theta^(q^%d) to precision"
                    % (i + n))
            acc = acc + self.numerators[i].frobenius(n) / den
        # dropped poles are huge; make sure t0 cannot collide with them
        if v0 <= -cfg.q ** (self.I + n) * cfg.e:
            raise PoleHit("t0 reaches into the dropped pole range; "
                          "increase the pole count")
        if self.u.is_exact_zero():
            return acc
        # dropped term i has v >= q^n nb[i] + q^(i+n) e (the reciprocal of a
        # huge pole); certified like the exponential tail
        q, e = cfg.q, cfg.e
        end = self.I + _TAIL_SCAN
        nb = self._numerator_vbounds(end)
        vals = [q ** n * nb[i] + q ** (i + n) * e
                for i in range(self.I, end + 1)]
        floor = min(vals)
        if vals[-1] < floor + e:
            raise PrecisionExhausted(
                "twisted evaluation tail did not stabilize; "
                "increase the pole count")
        return acc.truncate(min(acc.prec, floor))

    # -- functional equation reports ----------------------------------------------

    def functional_equation_residual(self, T=None):
        """kappa f^(1) + u_rho f^(2) - (t-theta) f - exp(u), as a TSeries;
        every coefficient of the true function vanishes."""
        cfg = self.cfg
        if T is None:
            T = cfg.t_terms
        mod = self.module
        F = self.series(T)
        expu = mod.exp_eval(self.u) if not self.u.is_apparent_zero() \
            else cfg.zero(INF)
        res = F.twist(1).scale(mod.kappa) - TSeries.t_minus_theta(cfg) * F \
            - TSeries.constant(cfg, expu).truncate(T)
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
        if not self.u.is_apparent_zero():
            val = val - mod.exp_eval(self.u)
        return val
