"""Drinfeld modules of rank 1 and 2 over a FieldConfig.

The module descriptor is rho_t = theta + kappa*tau + u*tau^2 (rank 2) or the
Carlitz module theta + tau (rank 1).  From the defining functional equation
exp(theta z) = rho_t(exp z) the exponential/logarithm coefficient tables
follow by recursion.  One additive step solves rho_t(x) = b: rho_t is
additive with derivative theta, so x -> (b - kappa x^q - u x^{q^2})/theta
contracts towards the solution by a proven bound and needs no division.
Torsion points are the roots of rho_t, seeded from its three-term Newton
polygon and refined by the step with b = 0 (roots.py); periods come from
division towers over torsion seeds, each level rho_t(e_{n+1}) = e_n solved
by the step with b = e_n; quasi-periodic functions come from the unrolled
difference equation.

Evaluation is always certified: exponential tails are bounded through the
integer valuation recursion on the coefficient tables, and the logarithm
refuses arguments outside a disc where its term valuations grow by at least
one theta-unit per step (safety factor q).  Precision comes first, then
digits: the certified precision of exp(z) or log(z) follows from valuations
and precisions alone, so it is fixed before any product is formed, terms
that land at or above it are skipped, and the rest are computed only below
it.  Values exp(z/theta^k) at several k, the levels of a quasi-periodic
function and the coefficients of an Anderson generating function, share one
ladder: (z/theta^k)^{q^i} = z^{q^i} theta^{-q^i k}, so each product
alpha_i z^{q^i} is formed once and every level reads it shifted.  A
quasi-periodic function fixes its precision the same way, then evaluates
each level only to the digits the sum keeps.

Coefficient tables and their valuation bounds extend lazily: an extension
is built on a private copy and published by rebinding the attribute, so
threads sharing a module never see a table that one of them is still
growing.  All evaluations are pure.

Derived values are computed once per module: the torsion points (full and
partial), the period lattice of periods() and F_tau(omega) for each period
of that lattice.  A memo is filled by rebinding an attribute to a finished
value, never by growing one in place, so threads may share a module; two
threads racing on an empty memo both compute the same value.  Memoized
lists are copied on the way out, so no caller can change a cached value.
"""

from .cinf import INF, CInfApprox, dot
from .errors import (ConfigError, DivergentEvaluation, IndependenceFailure,
                     NoConvergence, ResidueFieldTooSmall, VerificationFailed)
from .roots import all_nonzero_roots, newton_iterate, partial_nonzero_roots

# SkewPoly is imported where a tau-polynomial is built (torsion, towers,
# biderivations), so exp and log evaluation never load skew.py

_TAIL_SCAN = 64


def _digits(vc, qi, prec):
    """The exponent of z from which no term of c * z^{q^i}, v(c) = vc,
    lands below prec: the digits of z that term needs."""
    return INF if prec == INF else -((vc - prec) // qi)


class Biderivation:
    """delta determined by delta_t, a tau-polynomial with zero constant term."""

    def __init__(self, delta_t):
        if not delta_t.coeff(0).is_exact_zero():
            raise ConfigError("delta_t must have zero constant term")
        self.delta_t = delta_t
        self.cfg = delta_t.cfg

    @classmethod
    def tau(cls, cfg):
        """The biderivation t -> tau (differentials of the second kind)."""
        from .skew import SkewPoly
        return cls(SkewPoly.from_list(cfg, [0, 1]))

    @classmethod
    def inner_one(cls, module):
        """delta_t = theta - rho_t; its quasi-periodic function is
        z - exp(z), the differential of the first kind."""
        from .skew import SkewPoly
        cfg = module.cfg
        rho = module.skew()
        coeffs = [cfg.zero(INF)] + [-rho.coeff(i)
                                    for i in range(1, rho.degree() + 1)]
        return cls(SkewPoly(cfg, coeffs))

    def is_zero(self):
        return self.delta_t.is_zero()

    def min_coeff_valuation(self):
        vals = [c.valuation() for c in self.delta_t.coeffs[1:]
                if not c.is_apparent_zero()]
        return min(vals) if vals else INF


class Tower:
    """One period with its division tower e_n = exp(omega / theta^n)."""

    def __init__(self, omega, depth, chain):
        self.omega = omega
        self.depth = depth
        self.chain = chain  # chain[n-1] = e_n
        self.quasi_period = None  # F_tau(omega), set by quasi_period_eval


class Lattice:
    """Period basis with the data used to build it.  ``bracket`` is the
    quasi-period bracket omega1*F(omega2) - omega2*F(omega1) when the
    module that built the lattice has certified it, else None."""

    def __init__(self, omega1, omega2=None, towers=None):
        self.omega1 = omega1
        self.omega2 = omega2
        self.towers = towers or []
        self.bracket = None

    def basis(self):
        return [self.omega1] if self.omega2 is None \
            else [self.omega1, self.omega2]


class DrinfeldModule:
    def __init__(self, cfg, rank, kappa=None, u=None):
        self.cfg = cfg
        if rank == 1:
            if kappa is not None or u is not None:
                raise ConfigError("rank 1 is the Carlitz module theta + tau")
            kappa = cfg.one()
            u = cfg.zero(INF)
        elif rank == 2:
            if kappa is None:
                kappa = cfg.zero(INF)
            if isinstance(kappa, int):
                kappa = cfg.from_int(kappa)
            if isinstance(u, int):
                u = cfg.from_int(u)
            if u is None or u.is_apparent_zero():
                raise ConfigError("rank 2 needs a nonzero tau^2 coefficient")
        else:
            raise ConfigError("only ranks 1 and 2 are supported")
        self.rank = rank
        self.kappa = kappa
        self.u = u
        self._vk = INF if kappa.is_apparent_zero() else kappa.valuation()
        self._vu = INF if u.is_apparent_zero() else u.valuation()
        self._exp = [cfg.one()]
        self._log = [cfg.one()]
        self._vbounds = {"exp": [0], "log": [0]}
        self._floors = {}  # (kind, vz, start) -> _tail_floor
        self._torsion = {}  # partial -> (points, failures)
        self._lattice = None

    # -- descriptor -----------------------------------------------------------

    def skew(self):
        from .skew import SkewPoly
        cfg = self.cfg
        if self.rank == 1:
            return SkewPoly(cfg, [cfg.theta(), cfg.one()])
        return SkewPoly(cfg, [cfg.theta(), self.kappa, self.u])

    def is_normalized(self):
        return self.rank == 1 or (self.u - self.cfg.one()).is_exact_zero()

    def __repr__(self):
        if self.rank == 1:
            return "DrinfeldModule(Carlitz, q=%d)" % self.cfg.q
        return "DrinfeldModule(rank 2, kappa=%r, u=%r)" % (self.kappa, self.u)

    # -- exponential / logarithm tables ---------------------------------------

    def exp_coeffs(self, depth):
        """alpha_0..alpha_depth with
        alpha_i = (kappa alpha_{i-1}^q + u alpha_{i-2}^{q^2})/(theta^{q^i}-theta)."""
        cfg = self.cfg
        table = self._exp
        if len(table) <= depth:
            table = list(table)
            while len(table) <= depth:
                i = len(table)
                pairs = [(self.kappa, table[i - 1].frobenius(1))]
                if i >= 2:
                    pairs.append((self.u, table[i - 2].frobenius(2)))
                table.append(dot(cfg, pairs) * cfg.pole_inverse(i))
            self._exp = table
        return table[:depth + 1]

    def log_coeffs(self, depth):
        """beta_0..beta_depth, the compositional inverse table:
        beta_i = (beta_{i-1} kappa^{q^{i-1}} + beta_{i-2} u^{q^{i-2}})/(theta-theta^{q^i})."""
        cfg = self.cfg
        table = self._log
        if len(table) <= depth:
            table = list(table)
            while len(table) <= depth:
                i = len(table)
                pairs = [(table[i - 1], self.kappa.frobenius(i - 1))]
                if i >= 2:
                    pairs.append((table[i - 2], self.u.frobenius(i - 2)))
                table.append(-(dot(cfg, pairs) * cfg.pole_inverse(i)))
            self._log = table
        return table[:depth + 1]

    def _coeff_vbounds(self, kind, upto):
        """Integer lower bounds for v(alpha_i) resp. v(beta_i), i <= upto.

        The table is kept per kind and extended like the coefficient
        tables: on a copy that is then published by rebinding."""
        out = self._vbounds[kind]
        if len(out) <= upto:
            cfg = self.cfg
            e, q = cfg.e, cfg.q
            vk, vu = self._vk, self._vu
            out = list(out)
            for i in range(len(out), upto + 1):
                if kind == "exp":
                    c1 = vk + q * out[i - 1]
                    c2 = vu + q * q * out[i - 2] if i >= 2 else INF
                else:
                    c1 = out[i - 1] + q ** (i - 1) * vk
                    c2 = out[i - 2] + q ** (i - 2) * vu if i >= 2 else INF
                out.append(min(c1, c2) + q ** i * e)
            self._vbounds = {**self._vbounds, kind: out}
        return out[:upto + 1]

    def _tail_floor(self, kind, vz, start):
        """Certified floor for v(coefficient_i * z^{q^i}) over all i > start.

        b_i := bound_i + q^i vz obeys b_i >= min(vk + q b_{i-1},
        vu + q^2 b_{i-2}) + q^i e, so once the scanned b's sit above the
        floor and q^i e alone outweighs the damage a floor-level pair can
        do, every later term stays above the floor by induction.  The
        floor depends on the module, kind, vz and start only, so it is
        kept per module.
        """
        key = (kind, vz, start)
        floor = self._floors.get(key)
        if floor is not None:
            return floor
        cfg = self.cfg
        q, e = cfg.q, cfg.e
        end = start + _TAIL_SCAN
        bounds = self._coeff_vbounds(kind, end)
        qi = cfg.q_powers(end)
        floor = min([bounds[i] + qi[i] * vz for i in range(start + 1, end + 1)])
        vk, vu = self._vk, self._vu
        if kind == "exp":
            worst = min(vk + q * floor, vu + q * q * floor)
            ok = worst + qi[end] * e >= floor
        else:
            # increments scale with q^i; nonnegative increment coefficients
            # keep b_i >= min(b_{i-1}, b_{i-2}) >= floor forever
            inc1 = vk + (q - 1) * vz + q * e
            inc2 = vu + (q * q - 1) * vz + q * q * e
            ok = inc1 >= 0 and inc2 >= 0
        if not ok:
            raise DivergentEvaluation(
                "tail bound for %s evaluation did not stabilize" % kind)
        self._floors[key] = floor
        return floor

    # -- evaluation ------------------------------------------------------------

    def _qlinear_prec(self, coeffs, vz, zprec, prec):
        """Certified precision R of sum_i coeffs[i] * z^{q^i} for z of
        valuation vz and precision zprec: prec (a tail floor, say) or the
        precision of a computed term, whichever is lowest.  Valuations and
        precisions alone fix it, so it comes before any product."""
        qs = self.cfg.q_powers(len(coeffs))
        for c, qi in zip(coeffs, qs):
            prec = min(prec, c.prec + qi * vz, qi * zprec + c.vbound())
        return prec

    def _qlinear_rows(self, coeffs, vz, prec):
        """The rows of sum_i coeffs[i] * z^{q^i} that reach below prec, for
        z of valuation vz, as (i, digits): a row without known terms, or
        whose lowest term lands at or above prec, is skipped; the others
        need z only below digits, the lowest exponent of z whose term can
        land below prec.  An infinite prec cuts nothing."""
        rows = []
        qs = self.cfg.q_powers(len(coeffs))
        for i, (c, qi) in enumerate(zip(coeffs, qs)):
            if not c.terms:
                continue
            vc = c.vbound()
            if vc + qi * vz < prec:
                rows.append((i, _digits(vc, qi, prec)))
        return rows

    def _qlinear_sum(self, coeffs, z, prec):
        """sum_i coeffs[i] * z^{q^i} for nonzero z, cut at the certified
        precision R of _qlinear_prec and computed only below it.

        The rows of _qlinear_rows are the only ones formed: each with z cut
        to its digits before the Frobenius, and dot, capped at R, forms only
        the coefficient pairs below it.
        """
        vz = z.valuation()
        prec = self._qlinear_prec(coeffs, vz, z.prec, prec)
        rows = self._qlinear_rows(coeffs, vz, prec)
        return dot(self.cfg, [(coeffs[i], z.truncate(digits).frobenius(i))
                              for i, digits in rows], prec)

    def _exp_prec(self, vz, zprec):
        """The precision exp_eval reaches on a nonzero z of valuation vz
        and precision zprec."""
        depth = self.cfg.exp_depth
        return self._qlinear_prec(self.exp_coeffs(depth), vz, zprec,
                                  self._tail_floor("exp", vz, depth))

    def exp_eval(self, z):
        """exp(z); entire, so always certified.  The one-level case of
        _exp_levels."""
        return self._exp_levels(z, [0])[0]

    def _exp_levels(self, z, shifts, precs=None):
        """[exp_eval(z.shift(k)) for k in shifts] in terms and precision,
        from one set of products alpha_i z^{q^i}.  precs, when given, holds
        for each level a precision R at most the one exp_eval reaches there;
        the level is then exp_eval's value cut at R.

        Since (z theta^{-k/e})^{q^i} = z^{q^i} theta^{-q^i k/e}, a level is
        sum_i p_i theta^{-q^i k/e} with p_i = alpha_i z^{q^i}.  Precision
        first: each level has its R, _exp_prec unless precs gives it, and
        its rows are those of _qlinear_rows at R.  A row that several
        levels keep is formed once, as p_i capped at C_i = max(R - q^i k)
        over those levels, and each of them reads it through the pair
        (p_i, theta^{-q^i k/e}); a row that one level keeps goes into that
        level's sum as exp_eval forms it.  Each level is one dot capped at
        its R, so it holds exactly the term pairs of exp_eval below R: p_i
        shifted by q^i k is known to C_i + q^i k >= R and to the precision
        of the product exp_eval forms, which is at least R.
        """
        cfg = self.cfg
        if z.is_apparent_zero():
            return [z.shift(k) for k in shifts]
        depth = cfg.exp_depth
        alphas = self.exp_coeffs(depth)
        qs = cfg.q_powers(depth)
        vz = z.valuation()
        if precs is None:
            precs = [self._exp_prec(vz + k, z.prec + k) for k in shifts]
        plans = [(k, r, self._qlinear_rows(alphas, vz + k, r))
                 for k, r in zip(shifts, precs)]
        caps = {}
        if len(plans) > 1:
            for k, r, rows in plans:
                for i, _ in rows:
                    caps.setdefault(i, []).append(r - qs[i] * k)
        shared = {}
        for i, cs in caps.items():
            if len(cs) > 1:
                cap = max(cs)
                digits = _digits(alphas[i].vbound(), qs[i], cap)
                shared[i] = dot(cfg, [(alphas[i],
                                       z.truncate(digits).frobenius(i))], cap)
        return [dot(cfg, [
            (shared[i], cfg.monomial(qs[i] * k)) if i in shared
            else (alphas[i], z.truncate(digits - k).shift(k).frobenius(i))
            for i, digits in rows], r) for k, r, rows in plans]

    def log_certificate(self, z):
        """True when the logarithm series is certified at z: computed term
        valuations rise by at least e per step (safety factor q) and the
        tail bound recursion continues the climb.  A coefficient that is
        exactly zero (bound inf, as at every odd index when kappa = 0) has
        no term; the next finite bound is compared with the last finite
        one, e per index step between them."""
        if z.is_apparent_zero():
            return True
        cfg = self.cfg
        e, q = cfg.e, cfg.q
        end = cfg.exp_depth + _TAIL_SCAN
        vz = z.valuation()
        bounds = self._coeff_vbounds("log", end)
        prev, at = vz, 0
        for i in range(1, end + 1):
            if bounds[i] == INF:
                continue
            cur = bounds[i] + q ** i * vz
            if cur < prev + (i - at) * e:
                return False
            prev, at = cur, i
        return True

    def log_eval(self, z):
        """log(z) inside the certified disc; DivergentEvaluation outside."""
        if z.is_apparent_zero():
            return z
        if not self.log_certificate(z):
            raise DivergentEvaluation(
                "logarithm not certified at v(z) = %s" % z.valuation())
        depth = self.cfg.exp_depth
        return self._qlinear_sum(
            self.log_coeffs(depth), z,
            self._tail_floor("log", z.valuation(), depth))

    # -- torsion ---------------------------------------------------------------

    def torsion_points(self, partial=False):
        """All q^rank - 1 nonzero t-torsion points, sorted by (valuation,
        leading coefficient code) for determinism.

        With partial=True the representable torsion is returned together
        with the per-segment failure records as (points, failures); the
        default insists on the full set.  Computed once per value of
        partial; every call returns fresh lists.
        """
        got = self._torsion.get(partial)
        if got is None:
            key = lambda r: (r.valuation(), r.leading()[1])
            if partial:
                roots, failures = partial_nonzero_roots(self)
            else:
                roots, failures = all_nonzero_roots(self), []
            got = (sorted(roots, key=key), failures)
            self._torsion = {**self._torsion, partial: got}
        points, failures = got
        if partial:
            return list(points), [dict(f) for f in failures]
        return list(points)

    def _contract(self, b, x, d, prec):
        """The solution r of rho_t(r) = b with v(x - r) >= d, cut at prec;
        the one solver of rho_t(x) = b, for torsion (b = 0) and division
        towers.  x must be exact.

        rho_t is additive with rho_t' = theta, so r is the fixed point of
        x -> (b - kappa x^q - u x^{q^2})/theta, and the step takes a
        distance d = v(x - r) to at least min(v(kappa) + q d, v(u) + q^2 d)
        + e; a step that does not raise d is NoConvergence.  Each iterate
        is kept to prec and rebuilt as exact, so the result is r below prec
        once the proven d reaches prec; b must be known to prec - e, and an
        inexact kappa or u to prec - e on the q- resp. q^2-th power of x.
        """
        cfg = self.cfg
        q, e = cfg.q, cfg.e
        step = [cfg.zero(INF)] + self.skew().coeffs[1:]
        while d < prec:
            nxt = min(self._vk + q * d, self._vu + q * q * d) + e
            if nxt <= d:
                raise NoConvergence(
                    "additive step does not contract at distance %s from "
                    "the root" % d)
            x = (b - self._qlinear_sum(step, x, prec - e)).shift(e)
            x, d = CInfApprox(cfg, x.terms, INF), nxt
        return x.truncate(prec)

    def _scalar_multiple_of(self, x, y):
        """mu in F_q^x with x = mu*y (to working precision), else None."""
        cfg = self.cfg
        thr = cfg.pass_threshold()
        for mu in cfg.field.base_field_elements():
            if mu == 0:
                continue
            if (x - y.scale(mu)).is_zero_to(thr):
                return mu
        return None

    def lattice_seeds(self):
        """Torsion representatives of distinct F_q^x-orbits (rank many)."""
        points = self.torsion_points()
        seeds = [points[0]]
        if self.rank == 2:
            for x in points[1:]:
                if self._scalar_multiple_of(x, seeds[0]) is None:
                    seeds.append(x)
                    break
            else:
                raise IndependenceFailure(
                    "all torsion points are F_q-proportional")
        return seeds

    # -- periods ---------------------------------------------------------------

    def period_from_seed(self, seed):
        """Division tower: e_1 = seed, rho_t(e_{n+1}) = e_n; stops as soon
        as the logarithm certifies, returns omega = theta^n log(e_n).

        Each level is _contract with b = e_n from x0 = e_n/theta, taken
        exact.  A solution r with v(r) = v(x0) has
        r - x0 = -(kappa r^q + u r^{q^2})/theta, so it lies at distance
        d0 = min(v(kappa) + q v(x0), v(u) + q^2 v(x0)) + e from x0.  When
        d0 > v(x0) the step maps the disc v(x - x0) >= d0 into itself and
        contracts it, so exactly one such r exists; otherwise the seed is
        NoConvergence.  e_{n+1} is cut at
        P = min(prec(e_n), prec(kappa) + q v(x0), prec(u) + q^2 v(x0)) + e,
        the precision that b and the step's products carry, or at
        v(x0) + rel_prec when all of them are exact.
        """
        cfg = self.cfg
        q, e = cfg.q, cfg.e
        chain = [seed]
        for n in range(1, cfg.tower_cap + 1):
            en = chain[-1]
            if self.log_certificate(en):
                omega = cfg.theta(n) * self.log_eval(en)
                resid = self.exp_eval(omega)
                if resid.vbound() < cfg.pass_threshold():
                    raise NoConvergence(
                        "period residual v = %s below threshold %d"
                        % (resid.vbound(), cfg.pass_threshold()))
                return Tower(omega, n, chain)
            x0 = CInfApprox(cfg, en.shift(e).terms, INF)
            v0 = x0.valuation()
            d0 = min(self._vk + q * v0, self._vu + q * q * v0) + e
            if d0 <= v0:
                raise NoConvergence(
                    "tower seed of valuation %s lies outside the additive "
                    "step's contraction disc" % v0)
            prec = min(en.prec, self.kappa.prec + q * v0,
                       self.u.prec + q * q * v0) + e
            if prec == INF:
                prec = v0 + cfg.rel_prec
            chain.append(self._contract(en, x0, d0, prec))
        raise NoConvergence("division tower exceeded cap %d" % cfg.tower_cap)

    def periods(self, seeds=None):
        """Period lattice basis from torsion seeds.

        Rank 2 certifies F_q[theta]-independence through a nonzero
        quasi-period bracket omega1*F(omega2) - omega2*F(omega1).  The
        lattice from the default seeds is computed once per module."""
        if seeds is not None:
            return self._lattice_from(seeds)
        if self._lattice is None:
            self._lattice = self._lattice_from(self.lattice_seeds())
        return self._lattice

    def _lattice_from(self, seeds):
        towers = [self.period_from_seed(s) for s in seeds]
        if self.rank == 1:
            return Lattice(towers[0].omega, None, towers)
        if len(towers) != 2:
            raise IndependenceFailure("rank 2 needs two seeds")
        lattice = Lattice(towers[0].omega, towers[1].omega, towers)
        b = self.legendre_bracket(lattice)
        if b.is_apparent_zero():
            raise IndependenceFailure(
                "quasi-period bracket vanishes to precision: seeds were "
                "dependent; retry with a different pair")
        lattice.bracket = b
        return lattice

    def legendre_bracket(self, lattice):
        """omega1*F_tau(omega2) - omega2*F_tau(omega1)."""
        f1 = self.quasi_period_eval(lattice.omega1, lattice=lattice)
        f2 = self.quasi_period_eval(lattice.omega2, lattice=lattice)
        return dot(self.cfg, [(lattice.omega1, f2), (lattice.omega2, -f1)])

    # -- quasi-periodic functions ----------------------------------------------

    def quasi_period_coeffs(self, delta, depth):
        """c_1..c_depth with c_i (theta^{q^i} - theta) = sum_j d_j alpha_{i-j}^{q^j};
        the unique solution of the quasi-period functional equation."""
        cfg = self.cfg
        got = [cfg.zero(INF)]
        alphas = self.exp_coeffs(depth)
        d = delta.delta_t
        while len(got) <= depth:
            i = len(got)
            num = dot(cfg, [(d.coeff(j), alphas[i - j].frobenius(j))
                            for j in range(1, min(i, d.degree()) + 1)
                            if not d.coeff(j).is_exact_zero()])
            got.append(num * cfg.pole_inverse(i))
        return got[:depth + 1]

    def quasi_period_eval(self, lam, delta=None, lattice=None):
        """F_delta(lam) via the unrolled functional equation
        F(lam) = sum_{j>=0} theta^j * delta_t(w_j), with
        w_j = exp(lam/theta^{j+1}).

        Converges for every lam (the exp values shrink geometrically).  When
        a lattice is supplied, lam is one of its periods and delta is the
        default tau, the value is kept on that period's tower and returned
        on later calls.

        Precision comes first, then digits.  The level count J and the
        truncation floor depend on valuations only: J is the least level
        where the floor reaches rel_prec + max(0, -v(lam)) and the dropped
        arguments are small, both linear in J.  Level j has the precision
        R_j that exp_eval reaches on lam/theta^{j+1} (valuation
        v(lam) + (j+1)e, precision prec(lam) + (j+1)e), and the term
        theta^j d_k w_j^{q^k} has precision
        min(prec(d_k) + q^k v(w_j), q^k R_j + v(d_k)) - je, so the result
        precision P (the floor or the lowest term precision) is known before
        any product.  Each level is then evaluated only to
        c_j = min(R_j, max_k ceil((P + je - v(d_k)) / q^k)) digits, the
        fewest that keep every term at or above P: all levels come from one
        _exp_levels ladder, each cut at its c_j.  The cut falls on the
        value, not on the argument, so no level loses a digit below c_j.  An
        inexact d_k needs v(w_j) too, which is read off the cut level.  The
        digits below P are those of the uncut sum, so the value does not
        depend on the cuts.
        """
        cfg = self.cfg
        memo = None
        if lattice is not None and delta is None:
            memo = next((tw for tw in lattice.towers if tw.omega is lam), None)
        if memo is not None and memo.quasi_period is not None:
            return memo.quasi_period
        if delta is None:
            delta = Biderivation.tau(cfg)
        if delta.is_zero() or lam.is_apparent_zero():
            return cfg.zero(INF)
        dmin = delta.min_coeff_valuation()
        e, q = cfg.e, cfg.q
        vlam = lam.valuation()
        target = cfg.rel_prec + max(0, -vlam)
        # dropped terms have v >= floor(J) = -(J+1)e + dmin + q(vlam + (J+2)e)
        # and climb by at least (q-1)e per step afterwards, valid once the
        # dropped arguments are small (exp acts as the identity there); J is
        # the least level where both hold, and both grow with J
        step = (q - 1) * e
        base = -e + dmin + q * (vlam + 2 * e)
        J = max(0, -((vlam + 2 * e) // e),
                0 if dmin == INF else -((base - target) // step))
        floor = base + J * step
        count = J + 1
        ds = [(q ** k, d) for k, d in enumerate(delta.delta_t.coeffs)
              if not d.is_exact_zero()]
        # precision first: R_j of each level, then P, from valuations only;
        # level j's argument lam/theta^{j+1} has valuation vlam + (j+1)e and
        # precision prec(lam) + (j+1)e
        shifts = [(j + 1) * e for j in range(count)]
        rs = [self._exp_prec(vlam + k, lam.prec + k) for k in shifts]
        prec = min([floor] + [qk * r + d.vbound() - j * e
                              for j, r in enumerate(rs) for qk, d in ds])
        # then digits: each level only to the c_j its terms need, all from
        # one ladder
        cuts = [min(r, max(-((d.vbound() - prec - j * e) // qk)
                           for qk, d in ds)) for j, r in enumerate(rs)]
        values = self._exp_levels(lam, shifts, cuts)
        # an inexact d_k also needs v(w_j): a cut level that keeps a term
        # has the uncut leading term; one without terms lies at or above
        # c_j, where prec(d_k) + q^k c_j - je cannot fall below prec
        prec = min([prec] + [d.prec + qk * w.vbound() - j * e
                             for j, w in enumerate(values)
                             for qk, d in ds if d.prec != INF])
        # theta^j delta_t(w_j) = sum_k theta^j d_k w_j^(q^k), cut at P
        value = dot(cfg, [(d.shift(-j * e), w.frobenius(k))
                          for j, w in enumerate(values)
                          for k, d in enumerate(delta.delta_t.coeffs)
                          if not d.is_exact_zero()], prec)
        if memo is not None:
            memo.quasi_period = value
        return value

    # -- normalization and morphisms --------------------------------------------

    def normalize(self):
        """Isomorphic module with tau^2-coefficient 1: returns (nu, x) with
        nu_t = x^{-1} rho_t x and x^{q^2-1} = 1/u."""
        cfg = self.cfg
        if self.rank != 2:
            raise ConfigError("normalization applies to rank 2")
        if self.is_normalized():
            return self, cfg.one()
        n = cfg.q ** 2 - 1
        field = cfg.field
        exp_u, c_u = self.u.leading()
        if exp_u % n != 0:
            raise ConfigError("no (q^2-1)-st root of 1/u on the grid; refine e")
        # u x^n = 1 by Newton from the smallest-code root of the residual
        # equation c_u z^n = 1, all of whose roots are simple (p does not
        # divide n); for a one-term u that seed is the root
        z = [z for z, _ in field.poly_roots(
            [field.neg(1)] + [0] * (n - 1) + [c_u])]
        if not z:
            raise ResidueFieldTooSmall(
                "no (q^2-1)-st root of 1/u lies in F_%d" % field.size,
                hint="increase the extension degree m")
        coeffs = [-cfg.one()] + [cfg.zero(INF)] * (n - 1) + [self.u]
        x, _ = newton_iterate(coeffs, cfg.monomial(-exp_u // n, z[0]))
        kappa_nu = self.kappa * (x ** (cfg.q - 1))
        nu = DrinfeldModule(cfg, 2, kappa_nu, cfg.one())
        check = self.u * x ** n - cfg.one()
        if not check.is_zero_to(cfg.pass_threshold()):
            raise VerificationFailed("x^(q^2-1) u = 1 fails to precision")
        return nu, x


def verify_morphism(e_poly, rho, rho_prime=None, threshold=None):
    """Check e rho_t = rho'_t e in the twisted ring, plus the adjoint-side
    square (rho_t)* e* = e* (rho'_t)*.  Returns a report dict."""
    if rho_prime is None:
        rho_prime = rho
    cfg = rho.cfg
    if threshold is None:
        threshold = cfg.pass_threshold()
    lhs = e_poly * rho.skew()
    rhs = rho_prime.skew() * e_poly
    diff = lhs - rhs
    resid = [diff.coeff(i).vbound()
             for i in range(max(diff.degree() + 1, 1))]
    ok = all(v >= threshold for v in resid)
    report = {
        "is_morphism": bool(ok),
        "residual_valuations": resid,
        "threshold": threshold,
    }
    if ok:
        adj = rho.skew().adjoint() * e_poly.adjoint() \
            - e_poly.adjoint() * rho_prime.skew().adjoint()
        aresid = [adj.coeff(i).vbound()
                  for i in range(max(adj.degree() + 1, 1))]
        report["adjoint_residual_valuations"] = aresid
        report["adjoint_ok"] = all(v >= threshold for v in aresid)
    return report


def compose_qlinear(outer, inner, depth):
    """Coefficients of the composition of two F_q-linear series given by
    coefficient tables (c_k = sum_{i+j=k} a_i b_j^{q^i})."""
    cfg = outer[0].cfg
    return [dot(cfg, [(outer[i], inner[k - i].frobenius(i))
                      for i in range(max(0, k - len(inner) + 1),
                                     min(k + 1, len(outer)))])
            for k in range(depth + 1)]
