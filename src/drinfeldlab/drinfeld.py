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
one theta-unit per step (safety factor q).  Each such test is linear in
the argument's valuation with positive slopes, so it is one threshold per
module (cinf._least_v), found once: the disc's (_log_threshold) and each
tail floor's, kept with its envelope (_tail_envelope).

Precision comes first, then digits: the certified precision R of a q-linear
sum sum_i c_i z^{q^i} follows from valuations and precisions alone, so it
is fixed before any product is formed, terms that land at or above it are
skipped, and the rest are computed only below it.  One planner serves every
such sum, keyed by its coefficient table (_coeffs): exp's alpha_i, log's
beta_i and the additive step's (0, -kappa, -u).  R is read off two lower
envelopes of the table's lines per module and kind (_lines, _precs) and the
floor of the dropped terms: the step's cap, or exp's and log's tail floor,
read off one envelope of the tail bound's lines per module, kind and start;
every envelope is cinf._lower_envelope's, and the tables are read in place.
The rows that reach below R come from the table's rows with terms
(_ladder_plan), and an argument is cut for a row in one place
(_ladder_pair).  Each level of a ladder is one dot (_exp_levels): a row
only one level keeps enters it as its pair, coefficient and cut argument; a
row two or more levels keep is formed once (_ladder_row); a numerator the
caller holds is read in place.  So exp_eval, log_eval and each contraction
step, one-level ladders, are one dot each.  Values exp(z/theta^k) at
several k, the levels of a quasi-periodic function and the coefficients of
an Anderson generating function, share one ladder: (z/theta^k)^{q^i} =
z^{q^i} theta^{-q^i k}, so each product alpha_i z^{q^i} is formed at most
once and every level reads it shifted.  A quasi-periodic function with
exact coefficients plans its sum at level 0 alone, since every level's
precision rises by at least one theta-unit per level, then sums the twisted
products against exact sparse multipliers that stand for all its levels in
one dot, keeping only the digits the sum needs.  A period's residual
check exp(omega) ~ 0 reads the full products alpha_i omega^{q^i}, each cut
at its own precision and formed from the digits of omega below it, off
omega's generating function (agf.AndersonGF), which forms them once; the
tower keeps that generating function, and the quasi-period and Psi's
columns of that period read it, over the module that built it only.

Coefficient tables and their valuation bounds extend lazily: an extension
is built on a private copy and published by rebinding the attribute, so
threads sharing a module never see a table that one of them is still
growing.  All evaluations are pure.

Derived values are computed once per module, under the one memo rule
(cinf.once): the torsion points (full and partial), the period lattice of
periods(), the planner's lines, tail envelopes and logarithm threshold;
F_tau(omega) for each period of that lattice is computed once by its
tower's generating function.  Memoized lists are copied on the way out, so
no caller can change a cached value.
"""

from bisect import bisect_left

from .cinf import (_TAIL_SCAN, INF, CInfApprox, _least_v, _lower_envelope,
                   dot, once)
from .errors import (ConfigError, DivergentEvaluation, IndependenceFailure,
                     NoConvergence, ResidueFieldTooSmall, VerificationFailed)
from .roots import all_nonzero_roots, newton_iterate, partial_nonzero_roots

# SkewPoly is imported where a tau-polynomial is built (torsion, towers,
# biderivations), so exp and log evaluation never load skew.py


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
        """delta_t = theta - rho_t, the additive step's table as the module
        keeps it, (0, -kappa, -u); its quasi-periodic function is
        z - exp(z), the differential of the first kind."""
        from .skew import SkewPoly
        return cls(SkewPoly(module.cfg, module._step))

    def is_zero(self):
        return self.delta_t.is_zero()

    def min_coeff_valuation(self):
        vals = [c.valuation() for c in self.delta_t.coeffs[1:]
                if not c.is_apparent_zero()]
        return min(vals) if vals else INF


class Tower:
    """One period with its division tower e_n = exp(omega / theta^n), and
    the generating function of omega (gf, over the module that built the
    tower) whose exp(omega) its residual check read.  gf refers to that
    module weakly (AndersonGF._held_by_module), so it is read while the
    module lives."""

    def __init__(self, omega, depth, chain, gf):
        self.omega = omega
        self.depth = depth
        self.chain = chain  # chain[n-1] = e_n
        self.gf = gf


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

    def gf_of(self, z, module):
        """The generating function kept by the tower whose period is this
        very value z (matched by identity, not by digits), when module
        built that tower, else None: a tower's numerators are read over
        their own module only."""
        gf = next((tw.gf for tw in self.towers if tw.omega is z), None)
        return gf if gf is not None and gf.module is module else None


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
        self._tables = {"exp": [cfg.one()], "log": [cfg.one()]}
        self._vbounds = {"exp": [0], "log": [0]}
        # the additive step's table, negated: delta_t = theta - rho_t
        self._step = [cfg.zero(INF), -kappa, -u]
        self._memo = {}

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
        return self._coeffs("exp", depth)[:depth + 1]

    def log_coeffs(self, depth):
        """beta_0..beta_depth, the compositional inverse table:
        beta_i = (beta_{i-1} kappa^{q^{i-1}} + beta_{i-2} u^{q^{i-2}})/(theta-theta^{q^i})."""
        return self._coeffs("log", depth)[:depth + 1]

    def _coeff_vbounds(self, kind, upto):
        """Integer lower bounds for v(alpha_i) resp. v(beta_i), i <= upto,
        as a fresh list: _bounds cut at upto."""
        return self._bounds(kind, upto)[:upto + 1]

    def _bounds(self, kind, upto):
        """The bounds of _coeff_vbounds through upto, or a longer prefix of
        the same table, read in place.

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
        return out

    def _tail_floors(self, kind, vzs, start):
        """[a certified floor for v(coefficient_i * z^{q^i}) over all
        i > start, for z of valuation vz, for vz in vzs] in one pass: the
        scanned minimum over start < i <= start + _TAIL_SCAN, read off
        _tail_envelope by one bisection per vz, once the least vz is at or
        above the envelope's lowest; below it DivergentEvaluation."""
        lines, cuts, lowest = self._tail_envelope(kind, start)
        if min(vzs, default=INF) < lowest:
            raise DivergentEvaluation(
                "tail bound for %s evaluation did not stabilize" % kind)
        if not lines:
            return [INF for _ in vzs]
        floors = []
        for vz in vzs:
            slope, bound = lines[bisect_left(cuts, vz)]
            floors.append(bound + slope * vz)
        return floors

    @once
    def _tail_envelope(self, kind, start):
        """(lines, cuts, lowest): the lower envelope (_lower_envelope) of
        the scanned lines vz -> bound_i + q^i vz, start < i <= end =
        start + _TAIL_SCAN, and lowest, the least vz from which their
        minimum, the floor, bounds every later term.  A line with an
        infinite bound never reaches the minimum and is left out.  Built
        once per module, kind and start.

        b_i := bound_i + q^i vz obeys b_i >= min(vk + q b_{i-1},
        vu + q^2 b_{i-2}) + q^i e.  Every slope below is positive and vz
        an integer, so each test is one threshold (_least_v):
        * exp: once the scanned b's sit at or above a floor f and q^end e
          outweighs the damage a floor-level pair can do,
          min(vk + (q - 1) f, vu + (q^2 - 1) f) + q^end e >= 0, every later
          term stays above f by induction.  That holds exactly for f at or
          above its least integer f*, and the floor, the least scanned
          line, reaches f* exactly when every scanned line does.
        * log: b_i >= min(b_{i-1} + q^{i-1} (vk + (q - 1) vz + q e),
          b_{i-2} + q^{i-2} (vu + (q^2 - 1) vz + q^2 e)), so nonnegative
          increment coefficients keep b_i >= min(b_{i-1}, b_{i-2}) >=
          floor forever; lowest is the least vz where both are."""
        cfg = self.cfg
        q, e = cfg.q, cfg.e
        end = start + _TAIL_SCAN
        bounds = self._bounds(kind, end)
        qi = cfg.q_powers(end)
        lines = [(qi[i], bounds[i]) for i in range(end, start, -1)
                 if bounds[i] != INF]
        vk, vu = self._vk, self._vu
        if kind == "exp":
            reach = qi[end] * e
            floor = _least_v([(q - 1, vk + reach), (q * q - 1, vu + reach)],
                             0)
            lowest = _least_v(lines, floor)
        else:
            lowest = _least_v([(q - 1, vk + q * e),
                               (q * q - 1, vu + q * q * e)], 0)
        return _lower_envelope(lines) + (lowest,)

    # -- evaluation ------------------------------------------------------------

    def _coeffs(self, kind, depth):
        """The coefficient table c_0..c_depth of a q-linear sum
        sum_i c_i z^{q^i}, or a longer prefix of the same table, read in
        place: exp's alpha_i, log's beta_i, or the additive step's
        (0, -kappa, -u), whose three rows are all it has.

        exp and log extend lazily by their recursions (exp_coeffs,
        log_coeffs), on a copy that is then published by rebinding."""
        if kind == "step":
            return self._step
        table = self._tables[kind]
        if len(table) <= depth:
            cfg = self.cfg
            kappa, u = self.kappa, self.u
            table = list(table)
            while len(table) <= depth:
                i = len(table)
                if kind == "exp":
                    pairs = [(kappa, table[i - 1].frobenius(1))]
                    if i >= 2:
                        pairs.append((u, table[i - 2].frobenius(2)))
                    table.append(dot(cfg, pairs) * cfg.pole_inverse(i))
                else:
                    pairs = [(table[i - 1], kappa.frobenius(i - 1))]
                    if i >= 2:
                        pairs.append((table[i - 2], u.frobenius(i - 2)))
                    table.append(-(dot(cfg, pairs) * cfg.pole_inverse(i)))
            self._tables = {**self._tables, kind: table}
        return table

    @once
    def _lines(self, kind):
        """(precs, lows, rows) for the rows of kind's table (_coeffs; exp
        and log through exp_depth): precs and lows the lower envelopes
        (_lower_envelope) of the lines x -> prec(c_i) + q^i x and
        x -> v(c_i) + q^i x, a line with an infinite constant left out, and
        rows the (i, q^i, v(c_i)) of the rows with terms: all that a plan
        reads of the table.  Found once per module and kind; the tables'
        values never change."""
        depth = self.cfg.exp_depth
        coeffs = self._coeffs(kind, depth)[:depth + 1]
        qs = self.cfg.q_powers(len(coeffs))
        rows = [(i, qs[i], c.prec, c.vbound() if c.terms else INF)
                for i, c in enumerate(coeffs)]
        got = tuple(_lower_envelope([(r[1], r[n]) for r in rows[::-1]
                                     if r[n] != INF]) for n in (2, 3))
        return got + ([(i, qi, cv) for i, qi, _, cv in rows if cv != INF],)

    def _precs(self, kind, vz, zprec, shifts, floors=None):
        """[the certified precision R of sum_i c_i z^{q^i} at z.shift(k) for
        k in shifts], c_i kind's table and z nonzero of valuation vz and
        precision zprec, read off the module's envelopes.  floors holds a
        floor for the dropped terms per level: for exp and log it defaults
        to their tail floors past exp_depth; the step drops no term, and
        its floors, its caller's caps, must be given.

        R is the least of the floor and, over the rows i,
        prec(c_i) + q^i (vz + k) and v(c_i) + q^i (zprec + k): dot's
        precision of c_i z^{q^i}.  A row without terms bounds R by the
        first alone, since z has a term below its precision, so
        q^i zprec + prec(c_i) lies above it.  The first are the lines of
        the precs envelope of _lines at x = vz + k, the second those of
        its lows envelope at x = zprec + k (none for an exact z), each row
        without a finite constant contributing INF.  So the minimum over
        the rows is the least of the two envelopes' values, one bisection
        each, as each tail floor is read off _tail_envelope at vz + k:
        the value of a scan over the rows."""
        by_prec, by_low, _ = self._lines(kind)
        if floors is None:
            if kind == "step":
                raise TypeError("the additive step's caps must be given")
            floors = self._tail_floors(kind, [vz + k for k in shifts],
                                       self.cfg.exp_depth)
        precs = []
        for k, r in zip(shifts, floors):
            for (lines, cuts), x in ((by_prec, vz + k), (by_low, zprec + k)):
                if lines and x != INF:
                    slope, c = lines[bisect_left(cuts, x)]
                    r = min(r, c + slope * x)
            precs.append(r)
        return precs

    def exp_eval(self, z):
        """exp(z), certified.  exp is entire, but its tail floor is
        certified only from one valuation per module on (_tail_envelope),
        and an argument far outside the unit disc lies below it (theta^39
        on q3): there the value is refused with DivergentEvaluation.  The
        one-level case of _exp_levels."""
        return self._exp_levels("exp", z, [0])[0]

    def _ladder_plan(self, kind, z, shifts, precs):
        """The row plan of the levels sum_i c_i z.shift(k)^{q^i} of kind's
        table cut at R, for the (k, R) of shifts and precs and a nonzero z:
        (plans, caps) with plans[(k, R, rows)], rows the indices of the
        rows that reach below R, by increasing i, and caps[i] the list of
        R - q^i k over the levels that keep row i, by level, the digits of
        p_i = c_i z^{q^i} each of them reads.  Every sum, exp's, log's and
        the additive step's, is planned here, and nothing is formed.

        Row i reaches below R at z.shift(k) when v(c_i) + q^i (vz + k) < R,
        that is b_i + q^i k < R with b_i = v(c_i) + q^i vz, a row without
        terms never.  The b_i are found once per argument, from the rows of
        _lines, so each level tests one sum per row, by increasing i."""
        vz = z.valuation()
        rows = [(i, qi, cv + qi * vz) for i, qi, cv in self._lines(kind)[2]]
        plans, caps = [], {}
        for k, r in zip(shifts, precs):
            kept = []
            for i, qi, b in rows:
                if b + qi * k < r:
                    kept.append(i)
                    caps.setdefault(i, []).append(r - qi * k)
            plans.append((k, r, kept))
        return plans, caps

    def _numerators(self, z, count=None):
        """The full products alpha_i z^{q^i}, i < count (default: the pole
        count of a generating function, pole_count or exp_depth): the
        numerators of the generating function of z, which AndersonGF forms
        once and its readers cut (_ladder_row).

        Row i is the row _ladder_row forms at P_i = min(prec(alpha_i) +
        q^i v(z), v(alpha_i) + q^i prec(z)), dot's precision of
        alpha_i * z^{q^i}, fixed from valuations and precisions alone: z
        cut at d = _digits(v(alpha_i), q^i, P_i), twisted, and one dot
        capped at P_i.  A dropped digit of z lands at or above
        v(alpha_i) + q^i d >= P_i, so the terms below P_i are the
        product's.  The cut z has valuation at least v(z) and precision
        min(d, prec(z)), with q^i d + v(alpha_i) >= P_i, so dot's own
        precision is at least P_i and the cap makes it P_i: the terms and
        precision of the product.  Rows past the first few keep only the
        lowest digits of z (P_i - v(alpha_i) shrinks by about a factor q
        per row), and only those are twisted."""
        if count is None:
            count = self.cfg.pole_count or self.cfg.exp_depth
        qs = self.cfg.q_powers(count)
        alphas = self._coeffs("exp", count - 1)
        vz, zprec = z.vbound(), z.prec
        return [self._ladder_row("exp", z, i,
                                 min(alphas[i].prec + qs[i] * vz,
                                     alphas[i].vbound() + qs[i] * zprec))
                for i in range(count)]

    def _ladder_pair(self, kind, z, i, cap):
        """(c_i, z cut at _digits(v(c_i), q^i, cap), twisted i times), c_i
        row i of kind's table: the one place an argument is cut for a row.
        A dropped digit of z lands at or above cap, so the pair's product
        has the full product's terms below cap."""
        cfg = self.cfg
        # a generating function's rows reach past exp_depth to pole_count
        c = self._coeffs(kind, i)[i]
        digits = _digits(c.vbound(), cfg.q_powers(i)[i], cap)
        return c, z.truncate(digits).frobenius(i)

    def _ladder_row(self, kind, z, i, cap, numerators=()):
        """p_i = c_i z^{q^i}, c_i row i of kind's table, capped at cap:
        numerators[i] cut there when the caller holds z's exp numerators
        (_numerators), else one dot over _ladder_pair capped at cap.
        Either has the full product's digits below min(cap, its
        precision), and that is its precision."""
        if i < len(numerators):
            return numerators[i].truncate(cap)
        return dot(self.cfg, [self._ladder_pair(kind, z, i, cap)], cap)

    def _exp_levels(self, kind, z, shifts, precs=None, numerators=()):
        """[sum_i c_i z.shift(k)^{q^i} for k in shifts], c_i kind's table,
        in terms and precision, from one set of products c_i z^{q^i}; for
        exp, [exp_eval(z.shift(k)) for k in shifts].  precs, when given,
        holds for each level a precision R at most the one _precs gives
        there; the level is then the full sum cut at R.  numerators, when
        given, holds the full products alpha_i z^{q^i} for exp's first rows
        (_numerators), which the ladder reads in place for the rows it
        keeps among them.  Each level is one dot over _level_pairs, capped
        at its R; exp_eval, log_eval and each step of _contract are the one
        level k = 0, through the same loop.

        Since (z theta^{-k/e})^{q^i} = z^{q^i} theta^{-q^i k/e}, a level is
        sum_i p_i theta^{-q^i k/e} with p_i = c_i z^{q^i}.  Precision
        first: each level has its R_k, _precs unless precs gives it, and
        its rows are those of _ladder_plan.  A row level k keeps is read
        through one pair: (numerators[i], theta^{-q^i k/e}) for a held
        numerator; (p_i, theta^{-q^i k/e}) for a row two or more levels
        keep, p_i formed once capped at C_i = max(R - q^i k) over them
        (_ladder_row); otherwise _ladder_pair(kind, z, i, R_k - q^i k),
        its short side, the cut and twisted argument, shifted by q^i k.

        The levels equal those that form every kept row by its own capped
        dot (_ladder_row at C_i) and sum each level's rows, read shifted,
        in one more dot, term for term and in precision:
        * P is the same.  dot's P over a level's pairs is the least of R_k
          and their precisions.  The full product shifted is known to
          P_i + q^i k, P_i = min(prec(c_i) + q^i v, v(c_i) + q^i zprec)
          for the argument's valuation v and precision zprec.  A held
          numerator has precision P_i; a formed row min(C_i, P_i), and
          C_i + q^i k >= R_k; a pair of _ladder_pair has its cut argument
          to d = _digits(v(c_i), q^i, R_k - q^i k) with
          v(c_i) + q^i (d + k) >= R_k, and otherwise the precisions of
          c_i and z, so its product shifted is known to at least
          min(R_k, P_i + q^i k).  So P = min(R_k, P_i + q^i k) over the
          rows in both forms, and _precs keeps R_k <= P_i + q^i k: P = R_k.
        * The terms are the same.  Below R_k every pair holds the full
          product's terms shifted: a held numerator is the full product,
          a formed row has them below C_i + q^i k >= R_k, and a digit
          that _ladder_pair drops lands at or above R_k.  These are the
          term pairs of the capped rows below R_k, and field sums are exact
          and order-free, so each level's terms are those of the rows
          summed one by one and cut at R_k.
        """
        if z.is_apparent_zero():
            return [z.shift(k) for k in shifts]
        return [dot(self.cfg, pairs, r)
                for pairs, r in self._level_pairs(kind, z, shifts, precs,
                                                  numerators)]

    def _level_pairs(self, kind, z, shifts, precs=None, numerators=()):
        """[(pairs, R)] per level of _exp_levels, for a nonzero z: the
        pairs whose sum below R is that level (see _exp_levels).  A row is
        formed only when two or more levels keep it and the caller holds
        no numerator for it; the additive step adds its b to these pairs."""
        cfg = self.cfg
        if precs is None:
            precs = self._precs(kind, z.valuation(), z.prec, shifts)
        plans, caps = self._ladder_plan(kind, z, shifts, precs)
        qs = cfg.q_powers(max(caps, default=0))
        held = len(numerators)
        rows = {i: numerators[i] if i < held
                else self._ladder_row(kind, z, i, max(cs))
                for i, cs in caps.items() if i < held or len(cs) > 1}
        levels = []
        for k, r, plan in plans:
            pairs = []
            for i in plan:
                s = qs[i] * k
                row = rows.get(i)
                if row is not None:
                    pairs.append((row, cfg.monomial(s)))
                    continue
                c, w = self._ladder_pair(kind, z, i, r - s)
                pairs.append((c, w.shift(s)))
            levels.append((pairs, r))
        return levels

    def log_certificate(self, z):
        """True when the logarithm series is certified at z: z is zero, or
        v(z) reaches the module's threshold (_log_threshold)."""
        return z.is_apparent_zero() or z.valuation() >= self._log_threshold()

    @once
    def _log_threshold(self):
        """The least v(z) at which computed log term valuations rise by at
        least e per step (safety factor q) and the tail bound recursion
        continues the climb, over the bounds b_i through exp_depth +
        _TAIL_SCAN.  A coefficient that is exactly zero (bound inf, as at
        every odd index when kappa = 0) has no term; the next finite bound
        is compared with the last finite one, e per index step between
        them.  So for consecutive finite bounds b_at, b_i (b_0 = 0) the
        test is b_i + q^i v >= b_at + q^at v + (i - at) e: the line
        (q^i - q^at, b_i - b_at - (i - at) e) at or above 0.  Every slope
        is positive and v(z) an integer, so the tests hold together
        exactly from _least_v of those lines on.  Found once per module."""
        cfg = self.cfg
        end = cfg.exp_depth + _TAIL_SCAN
        bounds = self._bounds("log", end)
        qs = cfg.q_powers(end)
        finite = [i for i in range(end + 1) if bounds[i] != INF]
        return _least_v(
            [(qs[i] - qs[at], bounds[i] - bounds[at] - (i - at) * cfg.e)
             for at, i in zip(finite, finite[1:])], 0)

    def log_eval(self, z):
        """log(z) inside the certified disc; DivergentEvaluation outside.
        The one-level ladder on the log table, cut at its tail floor."""
        if not self.log_certificate(z):
            raise DivergentEvaluation(
                "logarithm not certified at v(z) = %s" % z.valuation())
        return self._exp_levels("log", z, [0])[0]

    # -- torsion ---------------------------------------------------------------

    def torsion_points(self, partial=False):
        """All q^rank - 1 nonzero t-torsion points, sorted by (valuation,
        leading coefficient code) for determinism.

        With partial=True the representable torsion is returned together
        with the per-segment failure records as (points, failures); the
        default insists on the full set.  Computed once per value of
        partial (_torsion); every call returns fresh lists.
        """
        points, failures = self._torsion(partial)
        if partial:
            return list(points), [dict(f) for f in failures]
        return list(points)

    @once
    def _torsion(self, partial):
        key = lambda r: (r.valuation(), r.leading()[1])
        if partial:
            roots, failures = partial_nonzero_roots(self)
        else:
            roots, failures = all_nonzero_roots(self), []
        return sorted(roots, key=key), failures

    def _contract(self, b, x, d, prec):
        """The solution r of rho_t(r) = b with v(x - r) >= d, cut at prec;
        the one solver of rho_t(x) = b, for torsion (b = 0) and division
        towers.  x must be exact.

        rho_t is additive with rho_t' = theta, so r is the fixed point of
        x -> (b - kappa x^q - u x^{q^2})/theta, and the step takes a
        distance d = v(x - r) to at least min(v(kappa) + q d, v(u) + q^2 d)
        + e; a step that does not raise d is NoConvergence.  Each step is
        computed only below min(prec, nxt), nxt the distance it proves: its
        sum is the one-level ladder on the step table, kept negated as
        (0, -kappa, -u), with floor min(prec, nxt) - e, and b joins the
        ladder's pairs as (b, 1), so the step is one dot and the shift by
        e.  That dot's precision is min(prec(b), R), that of b minus the
        ladder's level, and its terms below it are that difference's.  It
        is rebuilt as exact, so the result is r below prec once the proven
        d reaches prec; b must be known to prec - e, and an inexact kappa
        or u to prec - e on the q- resp. q^2-th power of x.

        The cut keeps every digit a step reads.  By induction x agrees
        with r below d, its digits from d on wrong or missing alike, and
        the step at d forms its sum below nxt - e, so it reads x only below
        (nxt - e - v)/q^i <= d, for v = v(kappa), i = 1 and v = v(u),
        i = 2; the next step, at nxt, reads the new iterate only below nxt.
        """
        cfg = self.cfg
        q, e = cfg.q, cfg.e
        bpair = (b, cfg.one())
        while d < prec:
            nxt = min(self._vk + q * d, self._vu + q * q * d) + e
            if nxt <= d:
                raise NoConvergence(
                    "additive step does not contract at distance %s from "
                    "the root" % d)
            r = self._precs("step", x.valuation(), INF, [0],
                            [min(prec, nxt) - e])
            (pairs, r), = self._level_pairs("step", x, [0], r)
            x = dot(cfg, [bpair] + pairs, r).shift(e)
            x, d = CInfApprox._raw(cfg, x.terms, INF), nxt
        return x.truncate(prec)

    def lattice_seeds(self):
        """Torsion representatives of distinct F_q^x-orbits (rank many):
        the first torsion point, and for rank 2 the first point outside
        its orbit.

        y lies in the orbit of x when y = x.scale(c) to their precision,
        for c the ratio of the leading codes, which must lie in F_q.  That
        test is exact: the torsion is an F_q-vector space, so two points of
        different orbits differ by a nonzero torsion point, whose valuation
        is a polygon slope, below every certified precision."""
        points = self.torsion_points()
        seeds = [points[0]]
        if self.rank == 2:
            F = self.cfg.field
            inv = F.inv(seeds[0].leading()[1])
            for y in points[1:]:
                c = F.mul(y.leading()[1], inv)
                if not F.in_base_field(c) or \
                        not (y - seeds[0].scale(c)).is_apparent_zero():
                    seeds.append(y)
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

        The residual check exp(omega) ~ 0 reads exp(omega) off omega's
        generating function (AndersonGF._exp_u), which forms its
        numerators; the tower keeps it for the quasi-period and Psi's
        columns of omega.
        """
        cfg = self.cfg
        q, e = cfg.q, cfg.e
        chain = [seed]
        for n in range(1, cfg.tower_cap + 1):
            en = chain[-1]
            if self.log_certificate(en):
                from .agf import AndersonGF
                gf = AndersonGF(self, cfg.theta(n) * self.log_eval(en))
                resid = gf._exp_u()
                if resid.vbound() < cfg.pass_threshold():
                    raise NoConvergence(
                        "period residual v = %s below threshold %d"
                        % (resid.vbound(), cfg.pass_threshold()))
                gf._held_by_module()
                return Tower(gf.u, n, chain, gf)
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
        return self._lattice()

    @once
    def _lattice(self):
        return self._lattice_from(self.lattice_seeds())

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
        alphas = self._coeffs("exp", depth)
        d = delta.delta_t
        while len(got) <= depth:
            i = len(got)
            num = dot(cfg, [(d.coeff(j), alphas[i - j].frobenius(j))
                            for j in range(1, min(i, d.degree()) + 1)
                            if not d.coeff(j).is_exact_zero()])
            got.append(num * cfg.pole_inverse(i))
        return got[:depth + 1]

    def _exp_radius(self):
        """The least rho >= 0 with b_i + (q^i - 1) rho >= 0 for every
        i >= 1, b_i the bounds of _coeff_vbounds("exp"): from valuation rho
        on, every term alpha_i z^(q^i), i >= 1, of exp(z) lies at or above
        v(z), so v(exp z) >= v(z).

        It is max(0, _least_v) of the lines (q - 1, b_1) and
        (q^2 - 1, b_2) alone (a line with b_i = INF holds everywhere):
        every rho >= 0 meeting those two meets all of them.  Proof: with
        b_0 = 0 the recursion gives b_1 = vk + q e (INF for vk = INF) and
        b_2 <= vu + q^2 e, so such a rho has vk + (q - 1) rho >= -q e and
        vu + (q^2 - 1) rho >= -q^2 e.  If it meets lines n - 1 and n,
        n >= 2 (line 0 holds as b_0 = 0), then q b_n >= -(q^(n+1) - q) rho
        and q^2 b_(n-1) >= -(q^(n+1) - q^2) rho, so by
        b_(n+1) >= min(vk + q b_n, vu + q^2 b_(n-1)) + q^(n+1) e,
        b_(n+1) + (q^(n+1) - 1) rho is at least
        min(vk + (q - 1) rho, vu + (q^2 - 1) rho) + q^(n+1) e
        >= q^(n+1) e - q^2 e >= 0: it meets line n + 1, and by induction
        every line."""
        q = self.cfg.q
        b = self._bounds("exp", 2)
        return max(0, _least_v([(q - 1, b[1]), (q * q - 1, b[2])], 0))

    def quasi_period_eval(self, lam, delta=None, lattice=None):
        """F_delta(lam) via the unrolled functional equation
        F(lam) = sum_{j>=0} theta^j * delta_t(w_j), with
        w_j = exp(lam/theta^{j+1}) (_quasi_period_sum).

        Converges for every lam (the exp values shrink geometrically).  When
        a lattice is supplied and lam is one of its periods, whose tower
        this module built (Lattice.gf_of), the sum cuts the numerators of
        that tower's generating function instead of forming them; for the
        default tau it is that generating function's quasi_period(),
        computed once.  A lattice of another module changes nothing: its
        numerators are that module's."""
        gf = lattice.gf_of(lam, self) if lattice is not None else None
        if gf is None:
            return self._quasi_period_sum(lam, delta)
        if delta is None:
            return gf.quasi_period()
        return self._quasi_period_sum(lam, delta, gf.numerators)

    def _quasi_period_sum(self, lam, delta=None, numerators=()):
        """F_delta(lam), delta None meaning tau.  numerators, when given,
        are lam's (_numerators), which the sum over exact d_k cuts for its
        rows instead of forming them.

        Precision comes first, then digits.  The level count J and the
        truncation floor depend on valuations only.  Write z_j =
        v(lam) + (j+1)e for the valuation of level j's argument.  From
        z_j >= rho = _exp_radius() on, v(w_j) >= z_j >= 0; every d_k has
        k >= 1 (delta_t has no constant term), so each term
        theta^j d_k w_j^(q^k) of a level past J lies at or above
        -je + v(d_k) + q^k z_j >= -je + dmin + q z_j, which rises by
        (q-1)e per level: every dropped term lies at or above
        floor = -(J+1)e + dmin + q z_(J+1) once z_(J+1) >= rho.  J is the
        least level where that holds and the floor reaches
        rel_prec + max(0, -v(lam)); both grow with J.

        Level j has the precision R_j that exp_eval reaches on
        lam/theta^{j+1} (valuation z_j, precision prec(lam) + (j+1)e), and
        the term theta^j d_k w_j^{q^k} has precision
        min(prec(d_k) + q^k v(w_j), q^k R_j + v(d_k)) - je, so the result
        precision P (the floor or the lowest term precision) is known before
        any product.  Level j is needed only to
        c_j = min(R_j, max_k ceil((P + je - v(d_k)) / q^k)) digits, the
        fewest that keep every term at or above P: q^k c_j + v(d_k) - je
        >= P for every k.

        With every d_k exact, level 0 plans the whole sum.  R_j rises by at
        least e per level: each line of _precs, and each line of the
        tail envelope, has slope q^i >= 1 in the argument's valuation and
        precision, and both grow by e per level.  So
        q^k R_j + v(d_k) - je >= q^k R_0 + v(d_k), and
        P = min(floor, min_k q^k R_0 + v(d_k)).  Level j is
        sum_i p_i theta^{-q^i (j+1)}, p_i = alpha_i lam^{q^i}, so
        theta^j d_k w_j^{q^k} = sum_i d_k theta^j theta^{-q^{i+k} (j+1)}
        p_i^{q^k}, and the value is one dot capped at P over the pairs
        (d_k G_ik, p_i^{q^k}), G_ik = sum_{j<=J} theta^j theta^{-q^{i+k}(j+1)}
        exact and kept to the terms that can land below P.  The rows are
        those _ladder_plan keeps at c_0, each p_i cut at c_0 - q^i e
        (_ladder_row).  The sum is exact below P by the cut argument: a
        digit of p_i at or above c_0 - q^i e lands, at level j, at or above
        q^k (c_0 + q^i je) + v(d_k) - je >= q^k c_0 + v(d_k) >= P; a row
        level 0 skips has its lowest term at or above c_0 there, and so at
        every level; the exp tail past exp_depth lies at or above
        R_j >= R_0 + je and lands at or above q^k R_0 + v(d_k) >= P.  Every
        pair is known to v(d_k) + q^{i+k} e + q^k prec(p_i cut), at least
        min(q^k c_0, q^k R_0) + v(d_k) >= P (the full product shifted by
        q^i e is known to R_0, as in _exp_levels), so dot's precision is P
        and its digits are those of the uncut sum.

        An inexact d_k keeps the level path: its term precision
        prec(d_k) + q^k v(w_j) - je reads the valuation of the level value,
        which only the formed level has (its lowest term may cancel among
        rows).  So each level comes from one _exp_levels ladder, cut at c_j:
        a cut level that keeps a term has the uncut leading term, and one
        without terms lies at or above c_j.
        """
        cfg = self.cfg
        if delta is None:
            delta = Biderivation.tau(cfg)
        if delta.is_zero() or lam.is_apparent_zero():
            return cfg.zero(INF)
        dmin = delta.min_coeff_valuation()
        e, q = cfg.e, cfg.q
        vlam = lam.valuation()
        target = cfg.rel_prec + max(0, -vlam)
        # dropped terms have v >= floor(J) = -(J+1)e + dmin + q(vlam + (J+2)e)
        # and climb by (q-1)e per level, once the dropped arguments lie in
        # exp's radius; J is the least level where both hold
        step = (q - 1) * e
        base = -e + dmin + q * (vlam + 2 * e)
        J = max(0, -((vlam + 2 * e - self._exp_radius()) // e),
                0 if dmin == INF else -((base - target) // step))
        floor = base + J * step
        count = J + 1
        ds = [(k, q ** k, d) for k, d in enumerate(delta.delta_t.coeffs)
              if not d.is_exact_zero()]
        exact = all(d.prec == INF for _, _, d in ds)
        # precision first: R_j of each planned level, then P, from
        # valuations only; with exact d_k level 0 plans the sum
        shifts = [(j + 1) * e for j in range(1 if exact else count)]
        rs = self._precs("exp", vlam, lam.prec, shifts)
        prec = min([floor] + [qk * r + d.vbound() - j * e
                              for j, r in enumerate(rs) for _, qk, d in ds])
        # then digits: each level only to the c_j its terms need
        cuts = [min(r, max(-((d.vbound() - prec - j * e) // qk)
                           for _, qk, d in ds)) for j, r in enumerate(rs)]
        if exact:
            # one sum over the pairs (d_k G_ik, p_i^(q^k)), G_ik's terms
            # theta^j theta^(-q^(i+k)(j+1)) at Q e + j(Q - 1)e, Q = q^(i+k)
            _, caps = self._ladder_plan("exp", lam, shifts, cuts)
            qs = cfg.q_powers(cfg.exp_depth)
            pairs = []
            for i, (cap,) in caps.items():
                row = self._ladder_row("exp", lam, i, cap, numerators)
                if not row.terms:
                    continue
                low = row.vbound()
                for k, qk, d in ds:
                    Q = qs[i] * qk
                    # G's terms at or above top land at or above P
                    top = prec - d.vbound() - qk * low
                    n = min(count, -((Q * e - top) // ((Q - 1) * e)))
                    if n > 0:
                        G = CInfApprox._raw(cfg, {
                            Q * e + j * (Q - 1) * e: 1 for j in range(n)},
                            INF)
                        pairs.append((d * G, row.frobenius(k)))
            return dot(cfg, pairs, prec)
        values = self._exp_levels("exp", lam, shifts, cuts)
        # an inexact d_k also needs v(w_j): a level without terms lies at
        # or above c_j, where prec(d_k) + q^k c_j - je cannot fall below prec
        prec = min([prec] + [d.prec + qk * w.vbound() - j * e
                             for j, w in enumerate(values)
                             for _, qk, d in ds if d.prec != INF])
        # theta^j delta_t(w_j) = sum_k theta^j d_k w_j^(q^k), cut at P
        return dot(cfg, [(d.shift(-j * e), w.frobenius(k))
                         for j, w in enumerate(values)
                         for k, _, d in ds], prec)

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
