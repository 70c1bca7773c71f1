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

The tables come from one linear pass.  Multiplication by a fixed c is
F_p-linear on the flattened digits, so x -> x c is read off two tables
indexed by the low and the high half of x's digits, whose entries hold the
digits of that half times c unreduced, one lane per digit; their sum is
reduced lane by lane mod p.  Walking x -> x c from 1 gives c's orbit: the
first candidate c = 2, 3, ... whose orbit has size - 1 elements is the
generator, and its orbit is the exp table.  Negation is digitwise,
neg[c] = (-c mod p) + p neg[c // p].
"""

from .errors import ConfigError


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
        size, p = self.size, self.p
        # negation digit by digit: the low digit of c is c mod p
        neg = [0] * size
        for c in range(1, size):
            neg[c] = (-c) % p + p * neg[c // p]
        self._neg = neg
        # discrete logs on a fixed generator
        self.generator, exp = self._generator_orbit()
        log = [0] * size
        for i, v in enumerate(exp):
            log[v] = i
        # Zech logarithms, None where 1 + g^d = 0.  Adding 1 changes only the
        # lowest base-p digit of a code.
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

    def _generator_orbit(self):
        """(g, [1, g, ..., g^(size-2)]) for the smallest code g whose
        orbit holds size - 1 elements: a generator, and its orbit is the
        exp table."""
        if self.size == 2:
            return 1, [1]
        for cand in range(2, self.size):
            orbit = self._orbit(cand)
            if len(orbit) == self.size - 1:
                return cand, orbit
        raise ConfigError("no multiplicative generator found")

    def _orbit(self, c):
        """[1, c, c^2, ...], up to the power before the first 1, for c != 0.

        x -> x c is F_p-linear on the n = s*m flattened digits of x, so a
        step reads x c off two tables, one per half of the digits: entry
        x_lo holds the digits of x_lo * c, one lane of W bits each,
        unreduced, and the two entries' sum is reduced lane by lane mod p.
        A lane of that sum adds at most n products of two digits, so W is
        the bit length of n (p - 1)^2 (a byte lane overflows at p = 13,
        m = 2, where the bound is 288).  The tables cost n products in the
        polynomial representation."""
        p = self.p
        n = self.s * self.m
        width = (n * (p - 1) ** 2).bit_length()
        mask = (1 << width) - 1
        shifts = [width * j for j in reversed(range(n))]
        half = p ** (n // 2)
        cols = []
        for k in range(n):
            v = self._mul_slow(p ** k, c)
            lanes = 0
            for j in range(n):
                lanes |= (v % p) << (width * j)
                v //= p
            cols.append(lanes)
        lo, hi = [0], [0]
        for col in cols[:n // 2]:
            lo = [v + d * col for d in range(p) for v in lo]
        for col in cols[n // 2:]:
            hi = [v + d * col for d in range(p) for v in hi]
        orbit = [1]
        x = 1
        # c's order divides size - 1, so the walk is back at 1 by then
        for _ in range(self.size - 1):
            lanes = lo[x % half] + hi[x // half]
            x = 0
            for sh in shifts:
                x = x * p + ((lanes >> sh) & mask) % p
            if x == 1:
                return orbit
            orbit.append(x)
        raise ConfigError("the orbit of %d does not return to 1" % c)

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
        """F_q in code order: 0 and the q - 1 powers g^(k (q^m - 1)/(q - 1)),
        the cyclic subgroup of order q - 1 of F_{q^m}^x."""
        step = (self.size - 1) // (self.q - 1)
        return sorted([0] + self._exp[:self.size - 1:step])

    # -- small polynomial roots ----------------------------------------------

    def poly_eval(self, coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def poly_roots(self, coeffs):
        """All roots in the field with multiplicities, by exhaustion.

        Returns a list of (root, multiplicity) in code order; suitable only
        for the tiny residual polynomials that appear in Newton-polygon
        work.  Each candidate z != 0 reads f(z) off the nonzero
        coefficients alone, the terms g^(log c_i + i log z) summed by
        add; a root's multiplicity comes from synthetic division.
        """
        coeffs = list(poly_trim(coeffs))
        if len(coeffs) < 2:
            return []
        log, exp, add = self._log, self._exp, self.add
        order = self.size - 1
        terms = [(i, log[c]) for i, c in enumerate(coeffs) if c]
        roots = []
        for z in range(self.size):
            if z:
                lz = log[z]
                val = 0
                for i, lc in terms:
                    val = add(val, exp[(lc + i * lz) % order])
            else:
                val = coeffs[0]
            if val:
                continue
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
            roots.append((z, mult))
        return roots

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
