"""Finite field towers F_p <= F_q <= F_{q^m} with table-backed arithmetic.

Elements of F_{q^m} are encoded as integers in [0, q^m): the base-q digits
of the code are the coefficients (low degree first) of the element on the
power basis of F_{q^m} = F_q[x]/(modulus); for s > 1 each F_q coefficient
is itself base-p encoded.  The flattened base-p digit vector of a code is
therefore the coordinate vector over F_p, which is what gets serialized.

All fields used by the desk-scale computations are tiny (at most a few
thousand elements), so arithmetic runs on discrete-log tables for every
field size: multiplication adds logarithms, and addition takes one step
through the Zech logarithms Z(d), g^Z(d) = 1 + g^d (Lidl & Niederreiter,
Finite Fields, 9.1), since g^a + g^b = g^(a + Z(b - a)).
"""

import math

from .errors import ConfigError, ResidueFieldTooSmall


def _trial_factor(n):
    """Prime factors of n (n fits trial division at these field sizes)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    return n >= 2 and _trial_factor(n) == [n]


# ---------------------------------------------------------------------------
# Dense polynomial helpers over an arbitrary FiniteField (codes as ints).
# Polynomials are tuples/lists of codes, low degree first, no implied trim.


def poly_trim(f):
    d = len(f)
    while d > 0 and f[d - 1] == 0:
        d -= 1
    return tuple(f[:d])


def poly_add(F, f, g):
    n = max(len(f), len(g))
    f = tuple(f) + (0,) * (n - len(f))
    g = tuple(g) + (0,) * (n - len(g))
    return poly_trim([F.add(a, b) for a, b in zip(f, g)])


def poly_mul(F, f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_trim(out)


def poly_rem(F, f, g):
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(poly_trim(f))
    dg = len(g) - 1
    inv_lead = F.inv(g[-1])
    while len(f) - 1 >= dg and f:
        c = F.mul(f[-1], inv_lead)
        shift = len(f) - 1 - dg
        for j, b in enumerate(g):
            if b:
                f[shift + j] = F.sub(f[shift + j], F.mul(c, b))
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return tuple(f)


def poly_gcd(F, f, g):
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_rem(F, f, g)
    if f:
        inv = F.inv(f[-1])
        f = tuple(F.mul(c, inv) for c in f)
    return f


def poly_powmod(F, f, n, mod):
    result = (F.one,)
    base = poly_rem(F, f, mod)
    while n > 0:
        if n & 1:
            result = poly_rem(F, poly_mul(F, result, base), mod)
        base = poly_rem(F, poly_mul(F, base, base), mod)
        n >>= 1
    return result


def poly_is_irreducible(F, f):
    """Rabin test over the field F (q = F.size elements)."""
    f = poly_trim(f)
    m = len(f) - 1
    if m < 1:
        return False
    q = F.size
    x = (0, F.one)
    xqm = poly_powmod(F, x, q ** m, f)
    if poly_trim(poly_add(F, xqm, [0, F.neg(F.one)])) != ():
        return False
    for r in set(_trial_factor(m)):
        xq = poly_powmod(F, x, q ** (m // r), f)
        h = poly_add(F, xq, [0, F.neg(F.one)])
        if len(poly_gcd(F, h, f)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------


class FiniteField:
    """F_{q^m} with q = p^s; element codes are ints in [0, q^m).

    For s > 1 the ground field F_q is built recursively over F_p with a
    deterministic modulus, so a configuration (p, s, m, modulus) pins the
    representation completely.
    """

    def __init__(self, p, s, m, modulus=None):
        if not is_prime(p):
            raise ConfigError("p = %d is not prime" % p)
        self.p = p
        self.s = s
        self.m = m
        self.q = p ** s
        self.size = self.q ** m
        self.one = 1
        self.zero = 0

        if s == 1:
            self.ground = _PrimeField(p)
        else:
            self.ground = FiniteField(p, 1, s, None)

        if m == 1 and modulus is None:
            modulus = (0, 1)  # degree-1 modulus is only a formality; x ≡ 0
        if modulus is None:
            modulus = default_modulus(self.ground, m)
        modulus = poly_trim(modulus)
        if len(modulus) - 1 != m:
            raise ConfigError("modulus must have degree m = %d" % m)
        if m > 1 and not poly_is_irreducible(self.ground, modulus):
            raise ConfigError("modulus is not irreducible over F_%d" % self.q)
        lead_inv = self.ground.inv(modulus[-1])
        self.modulus = tuple(self.ground.mul(c, lead_inv) for c in modulus)

        self._build_tables()

    # -- encoding -----------------------------------------------------------

    def encode(self, vec):
        """F_q coefficient vector (low degree first) -> code."""
        code = 0
        for c in reversed(vec):
            code = code * self.q + c
        return code

    def decode(self, code):
        out = []
        for _ in range(self.m):
            code, r = divmod(code, self.q)
            out.append(r)
        return out

    def to_fp_vec(self, code):
        """Flattened F_p coordinates, length s*m, low index = low degree."""
        out = []
        for _ in range(self.s * self.m):
            out.append(code % self.p)
            code //= self.p
        return out

    def from_fp_vec(self, vec):
        if len(vec) > self.s * self.m:
            raise ConfigError("coefficient vector longer than s*m")
        code = 0
        for c in reversed(vec):
            code = code * self.p + (c % self.p)
        return code

    def from_int(self, n):
        """Embed an integer via the prime subfield."""
        return n % self.p

    # -- table construction -------------------------------------------------

    def _mul_slow(self, a, b):
        prod = poly_mul(self.ground, self.decode(a), self.decode(b))
        rem = poly_rem(self.ground, prod, self.modulus)
        return self.encode(list(rem) + [0] * (self.m - len(rem)))

    def _build_tables(self):
        size = self.size
        # negation
        g = self.ground
        self._neg = [self.encode([g.neg(c) for c in self.decode(a)])
                     for a in range(size)]
        # discrete logs on a fixed generator
        gen = self._find_generator()
        self.generator = gen
        exp = [1] * (size - 1)
        for i in range(1, size - 1):
            exp[i] = self._mul_slow(exp[i - 1], gen)
        log = [0] * size
        for i, v in enumerate(exp):
            log[v] = i
        # Zech logarithms, None where 1 + g^d = 0.  Adding 1 changes only the
        # lowest base-p digit of a code.
        p = self.p
        zech = []
        for v in exp:
            w = v + 1 if v % p != p - 1 else v - (p - 1)
            zech.append(log[w] if w else None)
        # Both tables are stored twice over, so a sum of two logs, and the
        # difference of two such sums (negative ones index from the end),
        # need no reduction mod size - 1.
        self._exp = exp + exp
        self._log = log
        self._zech = zech + zech
        # Frobenius tables a -> a^(p^k), k in [0, s*m), as permutations read
        # off the logs: log a^(p^k) = p^k log a mod (size - 1).  Built on
        # first use and published by rebinding a fresh dict.
        self._frob = {}

    def pow_slow(self, a, n):
        r = 1
        while n > 0:
            if n & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            n >>= 1
        return r

    def _find_generator(self):
        order = self.size - 1
        primes = set(_trial_factor(order)) if order > 1 else set()
        for cand in range(2, self.size):
            if all(self.pow_slow(cand, order // r) != 1 for r in primes):
                return cand
        if self.size == 2:
            return 1
        raise ConfigError("no multiplicative generator found")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self._neg[b])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_{q^m}")
        return self._exp[-self._log[a]]

    def pow(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of zero in F_{q^m}")
            return 0
        return self._exp[(self._log[a] * n) % (self.size - 1)]

    def frob_table(self, k=1):
        """The map a -> a^(p^k) as a list indexed by code, for any integer
        k (k < 0 uses p^(sm) = identity)."""
        k %= self.s * self.m
        table = self._frob.get(k)
        if table is None:
            order = self.size - 1
            step = self.p ** k % order
            exp, log = self._exp, self._log
            table = [0] + [exp[log[a] * step % order]
                           for a in range(1, self.size)]
            self._frob = {**self._frob, k: table}
        return table

    def frob_p(self, a, k=1):
        """a^(p^k) for any integer k (k < 0 uses p^(sm) = identity)."""
        return self.frob_table(k)[a]

    def frob_q(self, a, n=1):
        """a^(q^n) for any integer n, the q-power field automorphism."""
        return self.frob_p(a, (n % self.m) * self.s)

    def in_base_field(self, a):
        """True when a lies in F_q."""
        return self.frob_q(a) == a

    def base_field_elements(self):
        return [a for a in range(self.size) if self.in_base_field(a)]

    # -- small polynomial roots ----------------------------------------------

    def poly_eval(self, coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def poly_roots(self, coeffs):
        """All roots in the field with multiplicities, by exhaustion.

        Returns a list of (root, multiplicity); suitable only for the tiny
        residual polynomials that appear in Newton-polygon work.
        """
        coeffs = list(poly_trim(coeffs))
        roots = []
        for z in range(self.size):
            mult = 0
            work = list(coeffs)
            while len(work) > 1 and self.poly_eval(work, z) == 0:
                # synthetic division by (X - z); remainder is known to be 0
                quot = []
                acc = 0
                for c in reversed(work[1:]):
                    acc = self.add(self.mul(acc, z), c)
                    quot.append(acc)
                work = list(reversed(quot))
                mult += 1
            if mult:
                roots.append((z, mult))
        return roots

    def nth_root(self, a, n):
        """Some x with x^n = a, or raise ResidueFieldTooSmall."""
        if a == 0:
            return 0
        order = self.size - 1
        la = self._log[a]
        # solve n*x = la (mod order)
        g = math.gcd(n, order)
        if la % g != 0:
            raise ResidueFieldTooSmall(
                "no %d-th root of the residue-field element exists in F_%d"
                % (n, self.size),
                hint="increase the extension degree m")
        n_, la_, ord_ = n // g, la // g, order // g
        x = (la_ * pow(n_, -1, ord_)) % ord_
        return self._exp[x]

    def __repr__(self):
        return "FiniteField(p=%d, s=%d, m=%d)" % (self.p, self.s, self.m)


class _PrimeField:
    """F_p with plain modular arithmetic; ground field for the tower."""

    def __init__(self, p):
        self.p = p
        self.size = p
        self.one = 1
        self.zero = 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, -1, self.p)


def default_modulus(ground, m):
    """Deterministic modulus: the lexicographically first monic irreducible
    of degree m over the ground field, scanning constant terms fastest."""
    q = ground.size
    for n in range(q ** m):
        coeffs = []
        k = n
        for _ in range(m):
            coeffs.append(k % q)
            k //= q
        coeffs.append(1)
        if poly_is_irreducible(ground, coeffs):
            return tuple(coeffs)
    raise ConfigError("no irreducible modulus of degree %d found" % m)
