"""Packed products of dense operands: Kronecker substitution for cinf.dot.

A value's terms below the precision are a polynomial in theta^(-G/e),
G the stride of its exponents, whose coefficients are elements of
F_{q^m}; an element is a polynomial in x (and, for s > 1, in the
generator y of F_q) with F_p digits.  Writing each digit into a slot of
fixed width in one integer, x^I y^J of exponent step E at slot
E*L + I*(2s - 1) + J with L = (2s - 1)(2m - 1), turns a whole product of
values into one big-int multiplication (von zur Gathen & Gerhard, Modern
Computer Algebra, 8.4): the slots of the product hold the unreduced
digit products, summed over every term pair of one exponent.  Several
pairs are summed as integers and unpacked once.

CPython multiplies big ints by Karatsuba, so the length of a product
costs more than its count: values whose steps fill only some classes mod
c (the Legendre bracket's operands fill two of four classes mod 72 grid
units, where their stride is 18) are split into one integer per class,
and the class products, each about 1/c as long, are summed per class of
the result.  _ways picks c from the classes the operands fill.

The slot width comes from a checked bound: a product slot sums at most
min(len a, len b) term pairs of s*m digit pairs, each at most (p - 1)^2,
so a sum of pairs fits in w bits when the sum of those bounds is below
2^w.  Widths are 8 or 16 bits; a wider bound or p > 128 goes back to
the caller's loop (None).

Unpacking reduces each slot mod p with bytes.translate (16-bit slots
through their two byte planes, 2^8 = 256 mod p) and then reads the
reduced element off per-field maps, each from the residues d_t of a run
of slots (at most _MAP_LIMIT entries) to the code of sum d_t x^I y^J
mod the moduli, adding the runs' codes when a step spans more than one
run.  Only steps below the precision are read.

This module is imported on the first packed product, so a cold start
that never forms one does not compile it.
"""

import math

# one residue map holds at most this many entries
_MAP_LIMIT = 256

# per field: its _Layout, or None when packing does not apply
_LAYOUTS = {}


class _Layout:
    """Slot layout, byte rows and residue maps of one FiniteField."""

    def __init__(self, F):
        p, s, m = F.p, F.s, F.m
        ys = 2 * s - 1
        self.p = p
        self.L = L = ys * (2 * m - 1)
        self.n = s * m
        # slot of code digit i*s + j: x^i y^j
        slots = [i * ys + j for i in range(m) for j in range(s)]
        self.rows = {}
        self._digits = [F.to_fp_vec(c) for c in range(F.size)]
        self._slots = slots
        # reduced code of each slot's x^I y^J
        y = p if s > 1 else 1
        x = F.q if m > 1 else 1
        basis = [F.mul(F.pow(y, k % ys), F.pow(x, k // ys)) for k in range(L)]
        run = 1
        while p ** (run + 1) <= _MAP_LIMIT and run < L:
            run += 1
        self.maps = []
        for lo in range(0, L, run):
            hi = min(lo + run, L)
            table = {b"": 0}
            for b in basis[lo:hi]:
                mult = [F.mul(d, b) for d in range(p)]
                table = {key + bytes((d,)): F.add(code, mult[d])
                         for key, code in table.items() for d in range(p)}
            self.maps.append((lo, hi, table))
        self.mod = bytes(b % p for b in range(256))
        self.high = bytes(256 * b % p for b in range(256))

    def row_bytes(self, width):
        """bytes of each code's L slots at width bytes per slot."""
        rows = self.rows.get(width)
        if rows is None:
            rows = []
            for digits in self._digits:
                vals = [0] * self.L
                for k, d in zip(self._slots, digits):
                    vals[k] = d
                rows.append(b"".join(v.to_bytes(width, "little")
                                     for v in vals))
            self.rows = {**self.rows, width: rows}
        return rows


def _layout(F):
    """The field's _Layout, built on first use; None for p > 128, where
    the two residue planes of a 16-bit slot could overflow a byte."""
    if F in _LAYOUTS:
        return _LAYOUTS[F]
    # two threads may both build it; setdefault keeps the first
    return _LAYOUTS.setdefault(F, _Layout(F) if F.p <= 128 else None)


def dense_sum(F, pairs, prec):
    """sum a * b over pairs of values of at least two terms each, cut at
    prec, as {exponent: nonzero code}; None when the field or the slot
    bound does not admit packing."""
    lay = _layout(F)
    if lay is None:
        return None
    cut = []
    bound = 0
    for a, b in pairs:
        va, vb = a.vbound(), b.vbound()
        la, lb = prec - vb, prec - va
        ta = [(e, c) for e, c in a.terms.items() if e < la]
        tb = [(e, c) for e, c in b.terms.items() if e < lb]
        if ta and tb:
            cut.append((va, ta, vb, tb))
            bound += min(len(ta), len(tb))
    if not cut:
        return {}
    p = lay.p
    bound *= lay.n * (p - 1) ** 2
    if bound < 256:
        width = 1
    elif bound < 65536:
        width = 2
    else:
        return None
    base = min(va + vb for va, _, vb, _ in cut)
    stride = 0
    for va, ta, vb, tb in cut:
        stride = math.gcd(stride, va + vb - base,
                          *[e - va for e, _ in ta], *[e - vb for e, _ in tb])
    stride = stride or 1
    # each operand as (step, code) lists, steps in units of stride
    cut = [((va + vb - base) // stride,
            [((e - va) // stride, c) for e, c in ta],
            [((e - vb) // stride, c) for e, c in tb])
           for va, ta, vb, tb in cut]
    ways = _ways(cut)
    rows = lay.row_bytes(width)
    L = lay.L
    size = L * width
    zero = bytes(size)
    buckets = [0] * ways
    for off, ta, tb in cut:
        xs, ys = _split(ta, ways, rows, zero), _split(tb, ways, rows, zero)
        for r, x in xs.items():
            for t, y in ys.items():
                k = off + r + t
                buckets[k % ways] += (x * y) << (8 * size * (k // ways))
    mod = lay.mod
    maps = lay.maps
    out = {}
    for t, total in enumerate(buckets):
        steps = (total.bit_length() + 8 * size - 1) // (8 * size)
        if prec != math.inf:
            # steps k of this class lie at base + (t + k ways) stride
            need = -((base + t * stride - prec) // (ways * stride))
            if need < steps:
                steps = need
                total &= (1 << (8 * size * max(steps, 0))) - 1
        if steps <= 0:
            continue
        raw = total.to_bytes(steps * size, "little")
        if width == 1:
            res = raw.translate(mod)
        else:
            low = raw[0::2].translate(mod)
            high = raw[1::2].translate(lay.high)
            res = (int.from_bytes(low, "little")
                   + int.from_bytes(high, "little")
                   ).to_bytes(len(low), "little").translate(mod)
        if len(maps) == 1:
            codes = map(maps[0][2].__getitem__,
                        [res[o:o + L] for o in range(0, len(res), L)])
        else:
            codes = [_add_runs(F, maps, res[o:o + L])
                     for o in range(0, len(res), L)]
        e0, de = base + t * stride, ways * stride
        for k, c in enumerate(codes):
            if c:
                out[e0 + k * de] = c
    return out


def _ways(cut):
    """The number of residue classes c to split the steps into: each
    class of an operand packs only its own steps, so a product of classes
    is about 1/c as long, and the c that minimizes the sum over pairs of
    classes of (length)^1.6, Karatsuba's exponent, is taken."""
    # classes mod 24 answer every candidate c, a divisor of 24
    spans = [(off, {k % 24 for k, _ in ta}, max(k for k, _ in ta),
              {k % 24 for k, _ in tb}, max(k for k, _ in tb))
             for off, ta, tb in cut]
    best, ways = None, 1
    for c in (1, 2, 3, 4, 6, 8):
        cost = 0
        for _, ra, ka, rb, kb in spans:
            cost += (len({r % c for r in ra}) * len({r % c for r in rb})
                     * ((ka + kb) / c + 1) ** 1.6)
        if best is None or cost < best:
            best, ways = cost, c
    return ways


def _split(terms, ways, rows, zero):
    """{class: packed int} of (step, code) terms split by step mod ways."""
    top = max(k for k, _ in terms) // ways + 1
    cls = [None] * ways
    for k, c in terms:
        row = cls[k % ways]
        if row is None:
            row = cls[k % ways] = [zero] * top
        row[k // ways] = rows[c]
    return {r: int.from_bytes(b"".join(row), "little")
            for r, row in enumerate(cls) if row is not None}


def _add_runs(F, maps, chunk):
    """The code of one step whose slots span several residue maps."""
    code = 0
    for lo, hi, table in maps:
        code = F.add(code, table[chunk[lo:hi]])
    return code
