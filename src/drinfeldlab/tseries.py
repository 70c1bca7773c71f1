"""Truncated series and matrices in t with CInfApprox coefficients.

A TSeries knows its first T coefficients; ``tail`` is an optional grid
valuation bound for every dropped coefficient (INF marks an exact
polynomial, None means no information).  Twisting acts coefficientwise and
is only offered for n >= 0; difference equations are always checked in
their positively-twisted form.

A product forms each coefficient as one sum of coefficient products
(cinf.dot); a matrix product does so over all products of an entry at once,
with the length and tail the entrywise sum of series products would have.
A product reads each operand's summary: the suffix minima of its
coefficients' valuation bounds, for the tail, and its coefficients that
are not exactly zero, for the pairs.  It is found once per series, on
first use, and published by rebinding an attribute to the finished pair
of lists, so threads may share a series.  Series are never changed after
they are built, so scaling by the exact one returns the series itself.
"""

from operator import add, sub

from .cinf import INF, dot
from .errors import (ConfigError, DivergentEvaluation, PrecisionExhausted,
                     ShapeMismatch)


class TSeries:
    def __init__(self, cfg, coeffs, tail=None):
        self.cfg = cfg
        self.coeffs = list(coeffs)
        self.tail = tail
        self._summary = None

    @classmethod
    def from_poly(cls, cfg, coeffs):
        """Exact polynomial in t (tail = INF)."""
        out = []
        for c in coeffs:
            if isinstance(c, int):
                c = cfg.from_int(c)
            out.append(c)
        return cls(cfg, out, tail=INF)

    @classmethod
    def constant(cls, cfg, c):
        return cls.from_poly(cfg, [c])

    @classmethod
    def t_minus_theta(cls, cfg):
        return cls.from_poly(cfg, [-cfg.theta(), cfg.one()])

    @property
    def T(self):
        return len(self.coeffs)

    def coeff(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        if self.tail == INF:
            return self.cfg.zero(INF)
        raise PrecisionExhausted("coefficient %d beyond truncation %d"
                                 % (i, self.T))

    def truncate(self, T):
        """The first T coefficients.  An exact polynomial is padded with
        exact zeros; a cut folds the dropped coefficients into the tail."""
        if T >= len(self.coeffs):
            if self.tail == INF:
                pad = [self.cfg.zero(INF)] * (T - len(self.coeffs))
                return TSeries(self.cfg, self.coeffs + pad, INF)
            return self
        tail = self.tail
        if tail is not None:
            for c in self.coeffs[T:]:
                tail = min(tail, c.vbound())
        return TSeries(self.cfg, self.coeffs[:T], tail)

    def __add__(self, other):
        return self._termwise(other, add)

    def __sub__(self, other):
        return self._termwise(other, sub)

    def _termwise(self, other, op):
        self._compat(other)
        n = _out_len(self.T, self.tail, other.T, other.tail)
        out = [op(self.coeff(i), other.coeff(i)) for i in range(n)]
        return TSeries(self.cfg, out, _sum_tail(self.tail, other.tail))

    def __neg__(self):
        return TSeries(self.cfg, [-c for c in self.coeffs], self.tail)

    def _product(self, other):
        """(length, tail, pairs) of self * other: pairs[k] lists the
        coefficient pairs (a_i, b_j), i + j = k, whose sum is coefficient
        k, by increasing i.  A pair with an exact-zero factor adds INF to
        dot's precision and no terms, so it is left out.  The tail bounds
        every dropped coefficient: the products with a dropped factor, and
        the known pairs a_i b_j with i + j >= length.

        Every rule is symmetric in the operands: the length by _out_len,
        the tail as min(ta + v(b), tb + v(a)) and the least v(a_i) + v(b_j)
        over the known pairs past the length, and pairs[k] the same pairs
        with their factors swapped.  Since dot's value and precision do not
        depend on the order of its pairs or of a pair's factors, x * y and
        y * x are the same series."""
        self._compat(other)
        n = _out_len(self.T, self.tail, other.T, other.tail, conv=True)
        low_a, xs = self._summaries()
        low, ys = other._summaries()
        pairs = [[] for _ in range(n)]
        for i, x in xs:
            if i >= n:
                break
            for j, y in ys:
                if i + j >= n:
                    break
                pairs[i + j].append((x, y))
        tail = None
        if self.tail is not None and other.tail is not None:
            ta, tb = self.tail, other.tail
            va = min(low_a[0], ta)
            vb = min(low[0], tb)
            tail = min(ta + vb, tb + va)
            # the known pairs past n: a_i, n - i < T(b), with low[j] =
            # min v(b_j'), j' >= j (an exact-zero a_i adds INF)
            start = n - other.T
            for i, x in xs:
                if i > start:
                    tail = min(tail, x.vbound() + low[max(0, n - i)])
        return n, tail, pairs

    def __mul__(self, other):
        n, tail, pairs = self._product(other)
        cfg = self.cfg
        return TSeries(cfg, [dot(cfg, p) for p in pairs], tail)

    def scale(self, c):
        """Multiply by a scalar CInfApprox.  The exact one over the same
        config gives every coefficient's terms and precision, so the
        series itself is returned."""
        if c.prec == INF and c.terms == {0: 1}:
            if c.cfg is not self.cfg and not c.cfg.same_as(self.cfg):
                raise ConfigError(
                    "operands built over different FieldConfigs")
            return self
        tail = self.tail
        if c.is_exact_zero():
            tail = INF
        elif tail not in (None, INF):
            tail = tail + c.vbound()
        return TSeries(self.cfg, [c * a for a in self.coeffs], tail)

    def twist(self, n):
        """Coefficientwise q^n-power; negative twists are excluded to keep
        coefficients on the grid."""
        if n < 0:
            raise ConfigError("negative twists of t-series are not supported; "
                              "check the positively-twisted identity instead")
        if n == 0:
            return self
        tail = self.tail
        if tail not in (None, INF):
            tail = tail * self.cfg.q ** n
        return TSeries(self.cfg, [c.frobenius(n) for c in self.coeffs], tail)

    def specialize(self, t0):
        """Evaluate at t = t0 with a certified tail bound.

        Exact polynomials evaluate anywhere (Horner).  Truncated series need
        |t0| <= 1 and a tail bound; the dropped-tail error floor
        tail + T*v(t0) is folded into the precision of the result.
        """
        if self.tail is None:
            raise DivergentEvaluation(
                "series carries no tail bound; cannot certify evaluation")
        exact = self.tail == INF
        if not exact:
            v0 = t0.vbound()
            if v0 < 0:
                raise DivergentEvaluation(
                    "|t0| > 1: truncated series cannot be certified here "
                    "(pole-aware evaluation lives on the generating-function "
                    "side)")
            if v0 == INF:
                return self.coeff(0)
        acc = self.cfg.zero(INF)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        if exact:
            return acc
        return acc.truncate(min(acc.prec, self.tail + self.T * v0))

    def divide(self, other):
        """Series division; the divisor's constant term must be a unit."""
        self._compat(other)
        cfg = self.cfg
        b0 = other.coeff(0)
        if b0.is_apparent_zero():
            raise DivergentEvaluation("division by series with zero constant term")
        n = _out_len(self.T, self.tail, other.T, other.tail)
        out = []
        for k in range(n):
            acc = self.coeff(k) - dot(cfg, [(out[j], other.coeff(k - j))
                                            for j in range(k)])
            out.append(acc / b0)
        return TSeries(cfg, out, None)

    def vbounds(self):
        """Per-coefficient valuation lower bounds (the residual report)."""
        return [c.vbound() for c in self.coeffs]

    def min_vbound(self):
        return self._summaries()[0][0]

    def _summaries(self):
        """(low, nonzero): low[j] the least valuation bound of the
        coefficients j, j+1, ... for j <= T (INF at T), and nonzero the
        (j, coefficient) of those not exactly zero, by j: what a product
        reads of an operand."""
        got = self._summary
        if got is None:
            coeffs = self.coeffs
            low = [INF] * (len(coeffs) + 1)
            for j in range(len(coeffs) - 1, -1, -1):
                v = coeffs[j].vbound()
                low[j] = v if v < low[j + 1] else low[j + 1]
            got = (low, [(j, c) for j, c in enumerate(coeffs)
                         if not c.is_exact_zero()])
            self._summary = got
        return got

    def is_zero_to(self, threshold, count=None):
        n = len(self.coeffs) if count is None else min(count, len(self.coeffs))
        return all(self.coeffs[i].is_zero_to(threshold) for i in range(n))

    def _compat(self, other):
        if not isinstance(other, TSeries):
            raise ConfigError("expected a TSeries")

    def __repr__(self):
        return "TSeries(T=%d, tail=%r)" % (self.T, self.tail)


def _out_len(na, ta, nb, tb, conv=False):
    """Length of the sum (or, with conv, the product) of series of lengths
    na, nb and tails ta, tb: an exact polynomial (tail INF) is known
    everywhere, a truncated series only through its length."""
    la = INF if ta == INF else na
    lb = INF if tb == INF else nb
    n = min(la, lb)
    if conv and n == INF:
        n = na + nb - 1
    if n == INF:
        n = max(na, nb)
    return int(n)


def _sum_tail(ta, tb):
    return None if ta is None or tb is None else min(ta, tb)


def series_dot(xs, ys):
    """sum x_l y_l over the paired series of xs and ys, one entry of a
    matrix product: the length and tail of the sum of the products, folded
    by the rules of TSeries.__add__, and each coefficient one dot over the
    pairs of every product.

    The fold takes the least length among the products whose tail is not
    INF (the greatest when every tail is INF) and the least tail, None if
    any, so it does not depend on the order of the products; nor does
    dot's value or precision depend on the order of its pairs.  A product
    of the exact zero series with a series that has a tail has no pairs,
    tail INF and the other factor's length, so it leaves the fold
    unchanged wherever another product has a tail other than INF or is at
    least as long."""
    cfg = xs[0].cfg
    parts = [x._product(y) for x, y in zip(xs, ys)]
    size, tail, _ = parts[0]
    for n2, t2, _ in parts[1:]:
        size = _out_len(size, tail, n2, t2)
        tail = _sum_tail(tail, t2)
    return TSeries(cfg, [
        dot(cfg, [pr for _, _, ps in parts if c < len(ps) for pr in ps[c]])
        for c in range(size)], tail)


class TMatrix:
    """Dense matrix of TSeries entries."""

    def __init__(self, rows):
        if not rows or not rows[0]:
            raise ShapeMismatch("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeMismatch("ragged rows")
        self.rows = [list(r) for r in rows]
        self.cfg = rows[0][0].cfg

    @classmethod
    def identity(cls, cfg, n):
        one = TSeries.constant(cfg, cfg.one())
        zero = TSeries.constant(cfg, cfg.zero(INF))
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    @property
    def shape(self):
        return len(self.rows), len(self.rows[0])

    def entry(self, i, j):
        return self.rows[i][j]

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def _entrywise(self, other, op):
        if self.shape != other.shape:
            raise ShapeMismatch("matrix sum or difference needs equal shapes")
        return TMatrix([[op(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return TMatrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ShapeMismatch("matrix product %sx%s by %sx%s"
                                % (n, k, k2, m))
        cols = [[r[j] for r in other.rows] for j in range(m)]
        return TMatrix([[series_dot(row, col) for col in cols]
                        for row in self.rows])

    def twist(self, n):
        return TMatrix([[a.twist(n) for a in r] for r in self.rows])

    def truncate(self, T):
        return TMatrix([[a.truncate(T) for a in r] for r in self.rows])

    def transpose(self):
        n, m = self.shape
        return TMatrix([[self.rows[i][j] for i in range(n)]
                        for j in range(m)])

    def det(self):
        """Cofactor expansion; fine for the small motive matrices."""
        n, m = self.shape
        if n != m:
            raise ShapeMismatch("determinant of a non-square matrix")
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            return (self.rows[0][0] * self.rows[1][1]
                    - self.rows[0][1] * self.rows[1][0])
        acc = None
        for j in range(n):
            minor = TMatrix([r[:j] + r[j + 1:] for r in self.rows[1:]])
            term = self.rows[0][j] * minor.det()
            if j % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    def min_vbound(self):
        return min(a.min_vbound() for r in self.rows for a in r)

    def is_zero_to(self, threshold):
        return all(a.is_zero_to(threshold) for r in self.rows for a in r)

    def __repr__(self):
        return "TMatrix(%dx%d)" % self.shape
