"""Precision-tracked Laurent expansions in theta^(-1/e) over F_{q^m}.

A CInfApprox stores finitely many known terms of an element of the graded
field K_{m,e} = F_{q^m}((theta^(-1/e))) together with an absolute precision:
``terms`` maps a grid exponent n (the term is theta^(-n/e)) to a nonzero
field code, and every exponent >= ``prec`` is unknown.  The valuation of a
term is its grid exponent, so v(theta) = -e and |x| = q^(-v(x)/e).

Precision semantics (the only sound ones under truncation):

* "zero to precision" means no known nonzero term;
* add/sub:  prec = min(prec_a, prec_b);
* mul:      prec = min(prec_a + v(b), prec_b + v(a));
* sum of products (``dot``): prec = min over the pairs of the product rule,
  capped by an optional ``cap``; exact zeros add nothing to the min, a
  zero-to-precision operand still caps it.  The precision is fixed first
  and only term pairs below it are formed, all into one accumulator: the
  sum is exact, so the digits are those of the products summed one by one
  and cut at the lowest product precision;
* div:      via Newton inversion from the leading term; when both inputs
  are exact the quotient is capped at relative depth ``cfg.rel_prec``, since
  an infinite expansion cannot be stored.  The quotient's precision follows
  from this rule, and only the digits below it are computed: each Newton
  sweep doubles the relative window and reads the divisor to that depth.

Values built from constants and theta-monomials are exact (infinite
precision) and stay exact under ring operations, so the polynomial data of
a computation never pays a truncation cost.

``dot`` is the one place where coefficient products are formed: a * b is
the sum over the single pair (a, b), and every sum of products in the
library (series and matrix products, twisted polynomials, the q-linear
exp/log sums) hands its pairs to it in one call.
"""

import math
from fractions import Fraction

from .errors import (ConfigError, DivisionByApparentZero, GridTooCoarse,
                     IndeterminateValuation, NoConvergence,
                     PrecisionExhausted)
from .fields import FiniteField, is_prime

INF = math.inf

# Newton sweeps CInfApprox.inverse may take; the window doubles on each
# sweep, so 64 covers any window that fits in memory
_INVERSE_SWEEPS = 64


class FieldConfig:
    """Ambient computation context: the field tower, the exponent grid and
    the precision budget.

    e must be divisible by (q-1)*q^depth: the (q-1) part keeps the root
    (-theta)^(1/(q-1)) on the grid and the q^depth part keeps coefficient
    inverse-twists down to the configured depth representable.  Individual
    torsion computations may need finer grids still; they raise
    GridTooCoarse with the missing divisor rather than auto-refining.
    """

    def __init__(self, p, s=1, m=1, modulus=None, e=None, depth=2,
                 prec=240, rel_prec=None, t_terms=32, exp_depth=12,
                 pole_count=None, tower_cap=12, allow_char2=False):
        if not is_prime(p):
            raise ConfigError("p = %r is not prime" % (p,))
        if p == 2 and not allow_char2:
            raise ConfigError(
                "p = 2 is untested for the rank-2 theory",
                hint="pass allow_char2=True to proceed anyway")
        self.p = p
        self.s = s
        self.m = m
        self.q = p ** s
        self.depth = depth
        if e is None:
            e = (self.q - 1) * self.q ** depth
        if e <= 0 or e % ((self.q - 1) * self.q ** depth) != 0:
            raise ConfigError(
                "e = %d must be a positive multiple of (q-1)*q^depth = %d"
                % (e, (self.q - 1) * self.q ** depth))
        self.e = e
        self.field = FiniteField(p, s, m, modulus)
        self.modulus = self.field.modulus
        self.prec = int(prec)
        self.rel_prec = int(rel_prec) if rel_prec is not None else 4 * self.prec
        if self.rel_prec < self.prec:
            raise ConfigError("rel_prec must be at least prec")
        self.t_terms = t_terms
        self.exp_depth = exp_depth
        self.pole_count = pole_count
        self.tower_cap = tower_cap
        self._q_powers = [1]
        self._pole_inverses = []

    def q_powers(self, n):
        """[q^0, ..., q^n] or a longer prefix of the same table; one table
        per config, extended on a copy that is published by rebinding."""
        table = self._q_powers
        if len(table) <= n:
            table = list(table)
            while len(table) <= n:
                table.append(table[-1] * self.q)
            self._q_powers = table
        return table

    def pole_inverse(self, k):
        """1/(theta^(q^k) - theta) for k >= 1: the denominators of the
        exp, log and quasi-period recursions and the poles of a twisted
        Anderson generating function at t = theta.  Inverted once per
        config; the table is extended on a copy published by rebinding.
        It keeps (terms, prec), not values: a value refers to its config,
        and that cycle would keep each finished config, field tables and
        all, alive until the cycle collector runs."""
        if k < 1:
            raise ConfigError("theta^(q^0) - theta is zero")
        table = self._pole_inverses
        if len(table) < k:
            table = list(table)
            th = self.theta()
            while len(table) < k:
                x = (th.frobenius(len(table) + 1) - th).inverse()
                table.append((x.terms, x.prec))
            self._pole_inverses = table
        terms, prec = table[k - 1]
        return CInfApprox._raw(self, terms, prec)

    def pass_threshold(self):
        """Grid valuation a residual must reach to count as zero."""
        return int(0.8 * self.prec)

    # -- element constructors -------------------------------------------------

    def zero(self, prec=INF):
        return CInfApprox(self, {}, prec)

    def one(self):
        return CInfApprox(self, {0: 1}, INF)

    def monomial(self, exp, coeff=1, prec=INF):
        """coeff * theta^(-exp/e); exp in grid units."""
        return CInfApprox(self, {int(exp): coeff}, prec)

    def theta(self, n=1):
        """theta^n for integer n (valuation -n*e)."""
        return CInfApprox(self, {-n * self.e: 1}, INF)

    def from_int(self, n):
        return CInfApprox(self, {0: self.field.from_int(n)}, INF)

    def from_coeff(self, code):
        return CInfApprox(self, {0: code}, INF)

    def from_theta_poly(self, codes):
        """sum codes[i] * theta^i from a list of field codes."""
        return CInfApprox(
            self, {-i * self.e: c for i, c in enumerate(codes) if c}, INF)

    def same_as(self, other):
        return (self.p, self.s, self.m, self.e, self.modulus) == \
               (other.p, other.s, other.m, other.e, other.modulus)

    def __repr__(self):
        return ("FieldConfig(p=%d, s=%d, m=%d, e=%d, prec=%d)"
                % (self.p, self.s, self.m, self.e, self.prec))


class CInfApprox:
    """One precision-tracked element of K_{m,e}; immutable after creation."""

    __slots__ = ("cfg", "terms", "prec", "_sorted", "_logs")

    def __init__(self, cfg, terms, prec=INF):
        self.cfg = cfg
        if prec != INF:
            prec = int(prec)
            terms = {e: c for e, c in terms.items() if c and e < prec}
        else:
            terms = {e: c for e, c in terms.items() if c}
        self.terms = terms
        self.prec = prec
        self._sorted = None
        self._logs = None

    @classmethod
    def _raw(cls, cfg, terms, prec):
        """A value from terms already nonzero and below prec (an int or
        INF), taken as they are."""
        x = object.__new__(cls)
        x.cfg = cfg
        x.terms = terms
        x.prec = prec
        x._sorted = None
        x._logs = None
        return x

    # -- inspection -----------------------------------------------------------

    def sorted_terms(self):
        if self._sorted is None:
            self._sorted = sorted(self.terms.items())
        return self._sorted

    def _log_terms(self):
        """(exponent, discrete log of the coefficient) by exponent: the
        form dot multiplies in.  Built once per value."""
        if self._logs is None:
            log = self.cfg.field._log
            self._logs = [(e, log[c]) for e, c in
                          (self._sorted or sorted(self.terms.items()))]
        return self._logs

    def is_exact_zero(self):
        return not self.terms and self.prec == INF

    def is_apparent_zero(self):
        """No known nonzero term (exactly zero, or zero to precision)."""
        return not self.terms

    def valuation(self):
        """Grid valuation; INF for the exact zero.

        Raises IndeterminateValuation when the value is zero to finite
        precision, since its true valuation is then unknowable.
        """
        if self.terms:
            return min(self.terms)
        if self.prec == INF:
            return INF
        raise IndeterminateValuation(
            "value is zero to precision %s; valuation unknown" % self.prec)

    def vbound(self):
        """Best lower bound for the valuation: exact when terms are known,
        otherwise the precision.  This is what residual reports quote."""
        known = self._sorted or self._logs
        if known:
            return known[0][0]
        return min(self.terms) if self.terms else self.prec

    def theta_valuation(self):
        v = self.valuation()
        return v if v == INF else Fraction(v, self.cfg.e)

    def abs_log_q(self):
        """log_q |x| as a Fraction (-INF for the exact zero)."""
        v = self.valuation()
        return -INF if v == INF else Fraction(-v, self.cfg.e)

    def leading(self):
        """(exponent, coefficient) of the lowest known term."""
        if not self.terms:
            raise PrecisionExhausted("no known leading term")
        e = min(self.terms)
        return e, self.terms[e]

    def is_zero_to(self, threshold):
        """True when v(self) >= threshold is certified."""
        return self.vbound() >= threshold

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.cfg is not other.cfg and not self.cfg.same_as(other.cfg):
            raise ConfigError("operands built over different FieldConfigs")

    def __add__(self, other):
        if not isinstance(other, CInfApprox):
            return NotImplemented
        self._check(other)
        add = self.cfg.field.add
        prec = min(self.prec, other.prec)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = add(cur, c)
                if s:
                    out[e] = s
                else:
                    del out[e]
        return CInfApprox(self.cfg, out, prec)

    def __neg__(self):
        neg = self.cfg.field.neg
        return CInfApprox(self.cfg, {e: neg(c) for e, c in self.terms.items()},
                          self.prec)

    def __sub__(self, other):
        if not isinstance(other, CInfApprox):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.cfg.field.from_int(other))
        if not isinstance(other, CInfApprox):
            return NotImplemented
        return dot(self.cfg, ((self, other),))

    __rmul__ = __mul__

    def scale(self, code):
        """Multiply by a field constant (code)."""
        if code == 0:
            return CInfApprox(self.cfg, {}, INF)
        mul = self.cfg.field.mul
        return CInfApprox(self.cfg,
                          {e: mul(c, code) for e, c in self.terms.items()},
                          self.prec)

    def shift(self, k):
        """Multiply by the grid monomial of valuation k (exact).  Values
        are immutable, so a zero shift returns self."""
        if not k:
            return self
        return CInfApprox._raw(self.cfg,
                               {e + k: c for e, c in self.terms.items()},
                               self.prec if self.prec == INF
                               else self.prec + k)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return CInfApprox(self.cfg, self.terms, prec)

    def inverse(self):
        """1/self by Newton iteration on x -> x(2 - self*x).

        A single-term value inverts exactly; otherwise the result is capped
        at relative precision cfg.rel_prec (or the propagated precision of
        self, whichever is smaller).  Each sweep doubles the relative window
        w the iterate is right to, starting from the gap between the two
        lowest terms, and reads self only to v + w.  The iterate is stored
        exact between sweeps: a finite precision on it would cap self*x
        below the window and stop the loop early.  NoConvergence when the
        window is not certified after _INVERSE_SWEEPS sweeps.
        """
        if not self.terms:
            raise DivisionByApparentZero(
                "divisor is zero to precision %s" % self.prec)
        cfg = self.cfg
        F = cfg.field
        v, lead = self.leading()
        if len(self.terms) == 1:
            out = CInfApprox(cfg, {-v: F.inv(lead)},
                             INF if self.prec == INF
                             else self.prec - 2 * v)
            return out
        window = cfg.rel_prec if self.prec == INF else min(self.prec - v,
                                                           cfg.rel_prec)
        x = CInfApprox(cfg, {-v: F.inv(lead)}, INF)
        one = cfg.one()
        # x is right to relative w; a sweep makes it right to 2w
        w = min(self.sorted_terms()[1][0] - v, window)
        for _ in range(_INVERSE_SWEEPS):
            w = min(2 * w, window)
            err = one - self.truncate(v + w) * x
            if err.vbound() >= window:
                break
            x = CInfApprox(cfg, (x + x * err).terms, INF)
        else:
            raise NoConvergence(
                "series inverse not certified to relative precision %d "
                "after %d sweeps" % (window, _INVERSE_SWEEPS))
        prec = (-v + window) if self.prec == INF else self.prec - 2 * v
        return CInfApprox(cfg, x.terms, min(prec, -v + window))

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.scale(self.cfg.field.inv(self.cfg.field.from_int(other)))
        if not isinstance(other, CInfApprox):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.cfg.one()
        # peel off p-th powers, which are exact coefficient maps in char p
        p = self.cfg.p
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        base = self
        result = None
        while n > 0:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result.frob_p(k) if k else result

    def frob_p(self, k):
        """p^k-power map: termwise in characteristic p.

        For k < 0 every exponent must be divisible by p^|k| (the grid cannot
        express p-th roots of arbitrary monomials).
        """
        if k == 0:
            return self
        frob = self.cfg.field.frob_table(k)
        if k > 0:
            scale = self.cfg.p ** k
            terms = {e * scale: frob[c] for e, c in self.terms.items()}
            prec = INF if self.prec == INF else self.prec * scale
            return CInfApprox._raw(self.cfg, terms, prec)
        scale = self.cfg.p ** (-k)
        terms = {}
        for e, c in self.terms.items():
            if e % scale != 0:
                raise GridTooCoarse(
                    "exponent %d not divisible by p^%d under inverse twist"
                    % (e, -k),
                    hint="refine the grid: multiply e by p^%d" % (-k),
                    needed_factor=scale // math.gcd(e, scale))
            terms[e // scale] = frob[c]
        prec = INF if self.prec == INF else -(-self.prec // scale)
        return CInfApprox._raw(self.cfg, terms, prec)

    def frobenius(self, n):
        """q^n-power map (n-fold twist); n may be negative."""
        return self.frob_p(n * self.cfg.s)

    # -- display --------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            bits = []
            for e, c in self.sorted_terms()[:6]:
                te = Fraction(-e, self.cfg.e)
                if te == 0:
                    bits.append("%d" % c)
                else:
                    bits.append("%d*th^(%s)" % (c, te))
            if len(self.terms) > 6:
                bits.append("...")
            body = " + ".join(bits)
        ptxt = "inf" if self.prec == INF else str(self.prec)
        return "<%s | prec %s>" % (body, ptxt)


def dot(cfg, pairs, cap=INF):
    """sum a * b over the (a, b) pairs of values over cfg, cut at cap.

    Precision first: P = min(cap, min over the pairs of
    min(prec_a + v(b), prec_b + v(a))), from valuations and precisions
    alone; an exact zero adds INF, a zero-to-precision operand its
    precision plus v(other).  Then one loop over discrete logs forms only
    the term pairs below P, the shorter operand of each pair outside, and
    adds each into a single accumulator through the Zech logarithms.  The
    field sum is exact and order-free, so the value is that of the
    products added one by one and cut at P.  An empty sum is the exact
    zero.
    """
    prec = cap
    work = []
    for a, b in pairs:
        if a.cfg is not cfg or b.cfg is not cfg:
            for x in (a, b):
                if x.cfg is not cfg and not cfg.same_as(x.cfg):
                    raise ConfigError(
                        "operands built over different FieldConfigs")
        ta = a._log_terms()
        tb = b._log_terms()
        va = ta[0][0] if ta else a.prec
        vb = tb[0][0] if tb else b.prec
        p = a.prec + vb
        if b.prec + va < p:
            p = b.prec + va
        if p < prec:
            prec = p
        if ta and tb:
            if len(ta) > len(tb):
                work.append((tb, ta, va))
            else:
                work.append((ta, tb, vb))
    if prec != INF:
        prec = int(prec)
    if not work:
        return CInfApprox._raw(cfg, {}, prec)
    F = cfg.field
    exp, zech = F._exp, F._zech
    order = F.size - 1
    # out[e] is the discrete log of the coefficient, kept in [0, 2*order)
    # so that zech and exp (both stored twice over) index it directly
    out = {}
    get = out.get
    for ta, tb, vb in work:
        for ea, la in ta:
            limit = prec - ea
            if limit <= vb:
                break
            for eb, lb in tb:
                if eb >= limit:
                    break
                e = ea + eb
                k = la + lb
                cur = get(e)
                if cur is None:
                    out[e] = k
                else:
                    z = zech[k - cur]
                    if z is None:
                        del out[e]
                    else:
                        k = cur + z
                        out[e] = k - order if k >= order else k
    return CInfApprox._raw(cfg, {e: exp[k] for e, k in out.items()}, prec)
