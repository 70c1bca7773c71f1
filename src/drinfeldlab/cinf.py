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
library (series and matrix products, twisted-polynomial evaluation, the
q-linear exp/log sums) hands its pairs to it in one call.  The Ore product
(skew.py) alone forms its pairs itself, by dot's rule, from twisted log
terms that no value holds.  P is fixed first, and a pair then takes one of
three paths:

* a one-term operand c0 theta^(-e0/e) (a theta-monomial, a constant,
  one()): one _merge_codes pass over the other operand's terms below
  P - e0, each shifted by e0 and multiplied by c0.  Every such pass goes
  into one dict of codes, the longest first, which into an empty dict is
  a copy, shift or scaling;
* two operands of at least _PACK_MIN terms each: a packed big-int product
  (Kronecker substitution, packed.py), every such pair of the sum added as
  integers and unpacked once below P;
* any other pair: a loop over discrete logs by exponent, the shorter
  operand outside, each inner run stopping at P, into one log accumulator
  that is converted to codes once.

Field sums go through the Zech logarithms in _merge_codes (into codes) or
_merge_logs (into discrete logs); only dot's pair loop inlines that step.

All three form exactly the term pairs below P that the loop forms, so the
digits and the precision do not depend on the path.  The cutoff
_PACK_MIN = 100 is measured on the dense products of the deep q3 chain
(F_81, N = 1920, 2-core shared box, best of 30): the Legendre bracket's two
pairs of 131-141 terms take 0.33-0.40 of the loop's time packed, while pairs
whose shorter operand has 48-54 terms take 1.0-2.9 of it (their products
are short after the cut at P, and CPython multiplies big ints by
Karatsuba).  No product of the verify suite or the CLI commands at N = 240
reaches the cutoff, so a cold start does not import packed.py.

Every certified bound on a sum of such values is a minimum of integer
lines c + s v, s > 0, in a valuation v, and two helpers here are the only
code that reasons about such minima: _lower_envelope, the lines that reach
the minimum and where each takes over, read by one bisection per value (the
planner's precisions and tail floors in drinfeld.py, and the Newton polygon
in roots.py through the dual lines of its points), and _least_v, the least
integer v from which the minimum reaches a target (a tail floor's
stabilization and the logarithm's certificate).

Values are immutable, so each caches its valuation bound on first use;
configurations over the same (p, s, m, modulus) share one FiniteField,
whose tables are immutable and deterministic.
"""

import math

# Fraction is imported only by __repr__, which prints one: the fractions
# module is a sizeable share of a cold start
from .errors import (ConfigError, DivisionByApparentZero, GridTooCoarse,
                     IndeterminateValuation, NoConvergence,
                     PrecisionExhausted)
from .fields import FiniteField, is_prime

INF = math.inf

# dot's packed path takes a pair once both operands have this many terms
# (packed.py); the module docstring gives the measurement
_PACK_MIN = 100

# Newton sweeps CInfApprox.inverse may take; the window doubles on each
# sweep, so 64 covers any window that fits in memory
_INVERSE_SWEEPS = 64

# the bit counts of the most elements a field's tables may hold, of the
# largest q^depth of a grid and of the largest grid exponent a ladder may
# form: a sum INF + n, INF a float, overflows once n passes 2^1023, and the
# bound leaves a margin for the arguments' own valuations
_FIELD_BITS, _GRID_BITS, _EXPONENT_BITS = 24, 32, 768

# the most t-coefficients a series may carry: the Psi and block-system
# products grow faster than T^2 (psi --q 3 takes 1.4 s at T = 512, 8 s at
# 1024 on one core of a 2-core VM)
_MAX_T_TERMS = 512

# the coefficient bounds a tail floor scans past the last row it sums
_TAIL_SCAN = 64

# one FiniteField per (p, s, m, modulus) and process, like a unique parent:
# its tables never change, so every config over it may share them
_FIELDS = {}


def _shared_field(p, s, m, modulus):
    key = (p, s, m, None if modulus is None else tuple(modulus))
    field = _FIELDS.get(key)
    if field is None:
        # two threads may both build it; setdefault keeps the first
        field = _FIELDS.setdefault(key, FiniteField(p, s, m, modulus))
    return field


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
        for name, v in (("s", s), ("m", m)):
            if type(v) is not int or v < 1:
                raise ConfigError("%s = %r is not a positive integer"
                                  % (name, v))
        # plain ints only: a float, string or bool would pass the value
        # checks below, or fail them with a TypeError; with a least value,
        # since prec < 1 gives a pass threshold every residual clears and a
        # count below 1 (or a negative depth) leaves nothing to compute
        ints = [("p", p, None), ("depth", depth, 0), ("prec", prec, 1),
                ("t_terms", t_terms, 1), ("exp_depth", exp_depth, 1),
                ("tower_cap", tower_cap, 1)]
        ints += [(name, v, low) for name, v, low in (
            ("e", e, None), ("rel_prec", rel_prec, None),
            ("pole_count", pole_count, 1)) if v is not None]
        for name, v, low in ints:
            if type(v) is not int:
                raise ConfigError("%s = %r is not an integer" % (name, v))
            if low is not None and v < low:
                raise ConfigError("%s = %d must be at least %d"
                                  % (name, v, low))
        if t_terms > _MAX_T_TERMS:
            raise ConfigError("t_terms = %d exceeds %d"
                              % (t_terms, _MAX_T_TERMS))
        # decided before any power or primality test: p >= 2, so an
        # exponent past the bit count exceeds the bound
        if p > 1 and (s * m > _FIELD_BITS
                      or p ** (s * m) > 1 << _FIELD_BITS):
            raise ConfigError("the field of p^(s m) = %d^(%d * %d) elements "
                              "exceeds 2^%d" % (p, s, m, _FIELD_BITS))
        if p > 1 and (depth > _GRID_BITS
                      or p ** (s * depth) > 1 << _GRID_BITS):
            raise ConfigError("q^depth = %d^%d exceeds 2^%d"
                              % (p ** s, depth, _GRID_BITS))
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
        # the m + 1 coefficients are F_q codes, low degree first; a bool or
        # a code >= q would be read as some other polynomial
        if modulus is not None and (
                type(modulus) not in (list, tuple) or len(modulus) != m + 1
                or any(type(c) is not int or not 0 <= c < self.q
                       for c in modulus)):
            raise ConfigError("modulus %r is not a list of m + 1 = %d codes "
                              "in [0, %d)" % (modulus, m + 1, self.q))
        self.depth = depth
        if e is None:
            e = (self.q - 1) * self.q ** depth
        if e <= 0 or e % ((self.q - 1) * self.q ** depth) != 0:
            raise ConfigError(
                "e = %d must be a positive multiple of (q-1)*q^depth = %d"
                % (e, (self.q - 1) * self.q ** depth))
        self.e = e
        self.field = _shared_field(p, s, m, modulus)
        self.modulus = self.field.modulus
        self.prec = prec
        self.rel_prec = rel_prec if rel_prec is not None else 4 * prec
        if self.rel_prec < self.prec:
            raise ConfigError("rel_prec must be at least prec")
        # a ladder twists by q^i for i up to exp_depth or pole_count, a
        # tail floor scans _TAIL_SCAN rows past them and a generating
        # function twists twice more, on exponents up to e rel_prec:
        # decided on bit counts before any such power is formed
        rows, name = max((exp_depth, "exp_depth"),
                         (pole_count or 0, "pole_count"))
        bits = ((rows + _TAIL_SCAN + 2) * self.q.bit_length()
                + e.bit_length() + self.rel_prec.bit_length())
        if bits > _EXPONENT_BITS:
            raise ConfigError(
                "%s = %d puts grid exponents q^(%d + %d) e rel_prec past "
                "2^%d" % (name, rows, rows, _TAIL_SCAN + 2, _EXPONENT_BITS))
        self.t_terms = t_terms
        self.exp_depth = exp_depth
        self.pole_count = pole_count
        self.tower_cap = tower_cap
        self._q_powers = [1]

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
        Anderson generating function at t = theta.

        With Q = q^k it is theta^(-Q) / (1 - theta^(1-Q)) =
        sum_(j >= 0) theta^(-Q - j(Q - 1)), every coefficient 1, written
        down to the precision inverse() gives an exact two-term divisor:
        v + rel_prec, v = Q e."""
        if k < 1:
            raise ConfigError("theta^(q^0) - theta is zero")
        v = self.q_powers(k)[k] * self.e
        prec = v + self.rel_prec
        return CInfApprox._raw(
            self, dict.fromkeys(range(v, prec, v - self.e), 1), prec)

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

    __slots__ = ("cfg", "terms", "prec", "_sorted", "_logs", "_v")

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
        self._v = None

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
        x._v = None
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
        if self.terms or self.prec == INF:
            return self.vbound()
        raise IndeterminateValuation(
            "value is zero to precision %s; valuation unknown" % self.prec)

    def vbound(self):
        """Best lower bound for the valuation: exact when terms are known,
        otherwise the precision.  This is what residual reports quote.
        Found once per value."""
        v = self._v
        if v is None:
            known = self._sorted or self._logs
            if known:
                v = known[0][0]
            else:
                v = min(self.terms) if self.terms else self.prec
            self._v = v
        return v

    def leading(self):
        """(exponent, coefficient) of the lowest known term."""
        if not self.terms:
            raise PrecisionExhausted("no known leading term")
        e = self.vbound()
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
        return self._sum(other, False)

    def __sub__(self, other):
        if not isinstance(other, CInfApprox):
            return NotImplemented
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other when negate: the longer
        operand's terms below the precision (self's for a difference),
        then the other's, times -1 for a difference, by _merge_codes.
        Values are immutable, so a sum with the exact zero is the other
        operand itself (a difference only when the zero is subtracted)."""
        self._check(other)
        if not other.terms and other.prec == INF:
            return self
        if not negate and not self.terms and self.prec == INF:
            return other
        prec = min(self.prec, other.prec)
        a, b = self, other
        if not negate and len(b.terms) > len(a.terms):
            a, b = b, a
        if a.prec == prec:
            out = dict(a.terms)
        else:
            out = {e: c for e, c in a.terms.items() if e < prec}
        if b.terms:
            F = self.cfg.field
            out = _merge_codes(F, out, b.terms, 0,
                               F._log[F._neg[1]] if negate else 0, prec)
        return CInfApprox._raw(self.cfg, out, prec)

    def __neg__(self):
        neg = self.cfg.field._neg
        return CInfApprox._raw(self.cfg,
                               {e: neg[c] for e, c in self.terms.items()},
                               self.prec)

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
            return CInfApprox._raw(self.cfg, {}, INF)
        if code == 1:
            return self
        F = self.cfg.field
        return CInfApprox._raw(self.cfg, _merge_codes(
            F, {}, self.terms, 0, F._log[code], INF), self.prec)

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
            x = CInfApprox._raw(cfg, (x + x * err).terms, INF)
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
        express p-th roots of arbitrary monomials).  Values are immutable,
        so a zero twist, or any twist of the exact zero, returns self.
        """
        if k == 0 or (not self.terms and self.prec == INF):
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
        from fractions import Fraction
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


def _merge_codes(F, out, terms, e0, l0, limit):
    """Add c g^l0 theta^(-(e + e0)/e) for every e: c of terms with
    e < limit (INF: no cut) into out, a dict of codes by exponent, and
    return out; a sum that cancels deletes its exponent.  Into an empty
    out the pass is one copy, shift or scaling into a new dict."""
    log, exp = F._log, F._exp
    if not out:
        if l0:
            return {e + e0: exp[log[c] + l0]
                    for e, c in terms.items() if e < limit}
        if e0 or limit != INF:
            return {e + e0: c for e, c in terms.items() if e < limit}
        return dict(terms)
    zech = F._zech
    get = out.get
    for e, c in terms.items():
        if e < limit:
            e += e0
            cur = get(e)
            if cur is None:
                out[e] = exp[log[c] + l0]
            else:
                lc = log[cur]
                z = zech[log[c] + l0 - lc]
                if z is None:
                    del out[e]
                else:
                    out[e] = exp[lc + z]
    return out


def _merge_logs(F, out, items, e0, l0, limit):
    """_merge_codes over discrete logs: add g^(l + l0) theta^(-(e + e0)/e)
    for every (e, l) of items with e < limit into out, in place.  Every
    log, stored or given, and l0 lie in [0, F.size - 1), the range of
    F._log, so the tables index a sum or difference of two directly."""
    zech = F._zech
    order = F.size - 1
    get = out.get
    for e, l in items:
        if e < limit:
            e += e0
            l += l0
            if l >= order:
                l -= order
            cur = get(e)
            if cur is None:
                out[e] = l
            else:
                z = zech[l - cur]
                if z is None:
                    del out[e]
                else:
                    l = cur + z
                    out[e] = l - order if l >= order else l


def dot(cfg, pairs, cap=INF):
    """sum a * b over the (a, b) pairs of values over cfg, cut at cap.

    Precision first: P = min(cap, min over the pairs of
    min(prec_a + v(b), prec_b + v(a))), from valuations and precisions
    alone; an exact zero adds INF, a zero-to-precision operand its
    precision plus v(other).  Then only the term pairs below P are
    formed, by one of three paths:

    * a pair with a one-term operand c0 theta^(-e0/e) is one pass over
      the other operand's terms e < P - e0, unsorted;
    * a pair whose operands both have at least _PACK_MIN terms is one
      packed big-int product (packed.dense_sum), all such pairs summed
      before one unpacking;
    * any other pair is one loop over discrete logs by exponent, the
      shorter operand outside, each inner run stopping at P.

    The packed pairs and the monomial passes are summed as codes, the
    passes by _merge_codes, the longest first.  Loop pairs, when any
    remain, go on from that sum converted to discrete logs once, in one
    log accumulator converted back once.  Every path forms the same term
    pairs below P and the field sum is exact and order-free, so the value
    is that of the products added one by one and cut at P.  An empty sum
    is the exact zero, and a lone pair (1, b) or (b, 1) with the exact one
    over cfg itself is b cut at cap: P = min(cap, prec_b) and b's terms
    below it.  pairs is a sequence.
    """
    if len(pairs) == 1:
        a, b = pairs[0]
        if a.cfg is cfg and b.cfg is cfg:
            if a.prec == INF and a.terms == {0: 1}:
                return b.truncate(cap)
            if b.prec == INF and b.terms == {0: 1}:
                return a.truncate(cap)
    prec = cap
    monos = []  # (e0, c0, other): a one-term operand c0 th^(-e0/e)
    work = []   # pairs of operands with at least two terms each
    for a, b in pairs:
        if a.cfg is not cfg or b.cfg is not cfg:
            for x in (a, b):
                if x.cfg is not cfg and not cfg.same_as(x.cfg):
                    raise ConfigError(
                        "operands built over different FieldConfigs")
        ta, tb = a.terms, b.terms
        if len(ta) > 1 and len(tb) > 1:
            if len(ta) < _PACK_MIN or len(tb) < _PACK_MIN:
                # the loop's sorted log lists, which also give v(a), v(b)
                a._log_terms()
                b._log_terms()
            work.append((a, b))
        va, vb = a.vbound(), b.vbound()
        if ta and tb and (len(ta) == 1 or len(tb) == 1):
            if len(ta) == 1:
                monos.append((va, ta[va], b))
            else:
                monos.append((vb, tb[vb], a))
        p = a.prec + vb
        if b.prec + va < p:
            p = b.prec + va
        if p < prec:
            prec = p
    if prec != INF:
        prec = int(prec)
    F = cfg.field
    exp, log, zech = F._exp, F._log, F._zech
    terms = None
    if work:
        dense = [(a, b) for a, b in work
                 if len(a.terms) >= _PACK_MIN and len(b.terms) >= _PACK_MIN]
        if dense:
            from .packed import dense_sum
            terms = dense_sum(F, dense, prec)
            if terms is not None:
                work = [(a, b) for a, b in work if len(a.terms) < _PACK_MIN
                        or len(b.terms) < _PACK_MIN]
    if monos:
        if len(monos) > 1:
            # the longest pass first: into an empty dict it is one copy
            monos.sort(key=lambda m: len(m[2].terms), reverse=True)
        if terms is None:
            terms = {}
        for e0, c0, other in monos:
            # a first pass with nothing to cut is a plain copy
            limit = prec - e0
            terms = _merge_codes(F, terms, other.terms, e0, log[c0],
                                 limit if terms or other.prec > limit
                                 else INF)
    if not work:
        return CInfApprox._raw(cfg, {} if terms is None else terms, prec)
    order = F.size - 1
    # out[e] is the discrete log of the coefficient, kept in [0, 2*order)
    # so that zech and exp (both stored twice over) index it directly
    out = {e: log[c] for e, c in terms.items()} if terms else {}
    get = out.get
    for a, b in work:
        ta, tb = a._log_terms(), b._log_terms()
        if len(ta) > len(tb):
            ta, tb = tb, ta
        vb = tb[0][0]
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


# -- minima of integer lines -------------------------------------------------


def _lower_envelope(lines):
    """The lower envelope of the lines x -> c + s x, given as (s, c) with
    c finite and distinct slopes s, steepest first, as (lines, cuts):
    lines holds the (s, c) that are the strict minimum on an interval of
    positive length, steepest first, and line t is a lowest one for every
    integer x with cuts[t - 1] < x <= cuts[t].  Line a lies at or below
    the shallower line b exactly for x <= (c_b - c_a) / (s_a - s_b), so
    the cuts are those quotients rounded down; a line is dropped when its
    neighbours meet at or before the point where it would leave the
    minimum, so a line that touches the minimum at one point only is
    dropped too.  Read as points (s, c), the kept lines are the vertices
    of the points' lower convex hull, by decreasing s: a vertex is the
    only lowest point under every supporting line of slope -x in an open
    interval, and a point inside an edge is lowest at one x alone."""
    hull = []
    for s, c in lines:
        while len(hull) >= 2:
            (s1, c1), (s2, c2) = hull[-2], hull[-1]
            if (c - c1) * (s1 - s2) > (c2 - c1) * (s1 - s):
                break
            hull.pop()
        hull.append((s, c))
    cuts = [(c2 - c1) // (s1 - s2)
            for (s1, c1), (s2, c2) in zip(hull, hull[1:])]
    return hull, cuts


def _least_v(lines, target):
    """The least integer v with c + s v >= target for every line (s, c),
    s > 0 and target finite; a line with c = INF holds everywhere, and
    with no other line the answer is -INF.  Each line rises with v, so it
    holds exactly from the integer ceil((target - c) / s) on, and all of
    them from the largest of those: a test that every line reaches the
    target at an integer v is the one comparison v >= _least_v."""
    return max((-((c - target) // s) for s, c in lines if c != INF),
               default=-INF)
