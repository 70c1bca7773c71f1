"""Twisted polynomial rings K[tau] and K[sigma] over a FieldConfig.

tau twists forward (tau c = c^q tau) and sigma twists backward
(sigma c = c^(-1-twist) sigma); both rings share one implementation that
differs only in the sign of the twist applied during multiplication.
Ore's adjoint  sum a_i tau^i  ->  sum a_i^(-i) sigma^i  is the
anti-isomorphism between them.
"""

from .cinf import INF, CInfApprox, _merge_logs, dot
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
        """Ore product: (a var^i)(b var^j) = a b^(q^(sign*i)) var^(i+j).

        Coefficient d is dot's sum over the pairs (a_i, b_j^(q^(sign*i))),
        i + j = d, formed in one pass and without the twisted values.  With
        k = s*i, b_j's discrete-log terms (e, l) twist to (e p^k, l p^k)
        under tau and to (e / p^k, l p^(-k)) under sigma, the log taken mod
        |F*| and the sigma exponent divided exactly (else frob_p's
        GridTooCoarse).  P_d is dot's rule on the twisted valuation and
        precision, the sigma precision rounded up as frob_p rounds it; then
        every a-term's pass over the twisted terms below P_d goes into the
        degree's log dict by _merge_logs, converted to codes once."""
        self._compat(other)
        cfg = self.cfg
        if self.is_zero() or other.is_zero():
            return type(self)(cfg, [])
        F = cfg.field
        order = F.size - 1
        p, s, sign = cfg.p, cfg.s, self.sign
        n = len(self.coeffs) + len(other.coeffs) - 1
        precs = [INF] * n
        passes = [[] for _ in range(n)]
        bs = [(j, b, b._log_terms(), b.prec) for j, b in
              enumerate(other.coeffs) if not b.is_exact_zero()]
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            ta, va = a._log_terms(), a.vbound()
            scale = p ** (s * i)
            step = pow(p, sign * s * i % (s * cfg.m), order)
            for j, b, tb, pb in bs:
                if not i:
                    tw = tb
                elif sign > 0:
                    tw = [(e * scale, l * step % order) for e, l in tb]
                    pb = pb * scale
                else:
                    if any(e % scale for e in b.terms):
                        b.frob_p(-s * i)  # raises frob_p's GridTooCoarse
                    tw = [(e // scale, l * step % order) for e, l in tb]
                    if pb != INF:
                        pb = -(-pb // scale)
                vb = tw[0][0] if tw else pb
                d = i + j
                precs[d] = min(precs[d], a.prec + vb, pb + va)
                if ta and tw:
                    passes[d].append((ta, tw))
        # every twist is checked before the configs: a coarse twist raises
        # GridTooCoarse even when the operands mix configs
        for x in self.coeffs + other.coeffs:
            if x.cfg is not cfg and not x.is_exact_zero() \
                    and not cfg.same_as(x.cfg):
                raise ConfigError("operands built over different FieldConfigs")
        exp = F._exp
        out = []
        for prec, pairs in zip(precs, passes):
            if prec != INF:
                prec = int(prec)
            logs = {}
            for ta, tw in pairs:
                for ea, la in ta:
                    limit = prec - ea
                    if limit <= tw[0][0]:
                        break
                    _merge_logs(F, logs, tw, ea, la, limit)
            out.append(CInfApprox._raw(
                cfg, {e: exp[l] for e, l in logs.items()}, prec))
        return type(self)(cfg, out)

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
