"""Twisted polynomial rings K[tau] and K[sigma] over a FieldConfig.

tau twists forward (tau c = c^q tau) and sigma twists backward
(sigma c = c^(-1-twist) sigma); both rings share one implementation that
differs only in the sign of the twist applied during multiplication.
Ore's adjoint  sum a_i tau^i  ->  sum a_i^(-i) sigma^i  is the
anti-isomorphism between them.
"""

from .cinf import INF, dot
from .errors import ConfigError


class TwistedPoly:
    """Polynomial sum coeffs[i] * var^i with var c = c^(q^sign) var."""

    sign = +1
    var = "tau"

    def __init__(self, cfg, coeffs):
        self.cfg = cfg
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_exact_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def from_list(cls, cfg, values):
        """Coefficients given as CInfApprox or plain ints."""
        out = []
        for v in values:
            if isinstance(v, int):
                v = cfg.from_int(v)
            out.append(v)
        return cls(cfg, out)

    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.cfg.zero(INF)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TwistedPoly) or self.sign != other.sign:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all((self.coeff(i) - other.coeff(i)).is_exact_zero()
                   for i in range(n))

    __hash__ = None

    def __add__(self, other):
        self._compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(self.cfg,
                          [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return type(self)(self.cfg, [-c for c in self.coeffs])

    def __sub__(self, other):
        self._compat(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(self.cfg,
                          [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        """Ore product: (a var^i)(b var^j) = a b^(q^(sign*i)) var^(i+j)."""
        self._compat(other)
        cfg = self.cfg
        if self.is_zero() or other.is_zero():
            return type(self)(cfg, [])
        pairs = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_exact_zero():
                    continue
                pairs[i + j].append((a, b.frobenius(self.sign * i)))
        return type(self)(cfg, [dot(cfg, p) for p in pairs])

    def _compat(self, other):
        if not isinstance(other, TwistedPoly):
            raise ConfigError("expected a twisted polynomial")
        if self.sign != other.sign:
            raise ConfigError("cannot mix tau- and sigma-polynomials")

    def __call__(self, x):
        """Evaluate on x: sum a_i x^(q^(sign*i)).

        For tau-polynomials this is the usual additive-polynomial action
        (x^(q^i) is a termwise Frobenius, so evaluation is cheap).
        """
        return dot(self.cfg, [(a, x.frobenius(self.sign * i))
                              for i, a in enumerate(self.coeffs)
                              if not a.is_exact_zero()])

    def adjoint(self):
        """Ore adjoint: sum a_i^(-i) sigma^i; an anti-homomorphism."""
        if self.sign != +1:
            raise ConfigError("adjoint maps tau-polynomials to sigma-polynomials")
        return SigmaPoly(self.cfg,
                         [a.frobenius(-i) for i, a in enumerate(self.coeffs)])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c.is_exact_zero():
                continue
            if i == 0:
                bits.append("(%r)" % c)
            elif i == 1:
                bits.append("(%r)*%s" % (c, self.var))
            else:
                bits.append("(%r)*%s^%d" % (c, self.var, i))
        return " + ".join(bits)


class SkewPoly(TwistedPoly):
    """Element of K[tau], tau c = c^q tau."""

    sign = +1
    var = "tau"


class SigmaPoly(TwistedPoly):
    """Element of K[sigma], sigma c = c^(q^-1) sigma."""

    sign = -1
    var = "sigma"

    def adjoint(self):
        """Inverse adjoint back to K[tau]."""
        return SkewPoly(self.cfg,
                        [a.frobenius(i) for i, a in enumerate(self.coeffs)])
