import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primefactors
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_irreducible_p, gf_mul, gf_rem,
                                     gf_strip)

from drinfeldlab.errors import ConfigError
from drinfeldlab.fields import (FiniteField, default_modulus, is_prime,
                                poly_is_irreducible)


@pytest.fixture(scope="module")
def F9():
    return FiniteField(3, 1, 2)


def test_ring_axioms_exhaustive(F9):
    for a in range(9):
        for b in range(9):
            assert F9.add(a, b) == F9.add(b, a)
            assert F9.mul(a, b) == F9.mul(b, a)
            for c in range(9):
                assert F9.mul(a, F9.add(b, c)) == \
                    F9.add(F9.mul(a, b), F9.mul(a, c))
                assert F9.mul(F9.mul(a, b), c) == F9.mul(a, F9.mul(b, c))


def test_inverses_and_generator(F9):
    for a in range(1, 9):
        assert F9.mul(a, F9.inv(a)) == 1
    seen = set()
    g = F9.generator
    x = 1
    for _ in range(8):
        x = F9.mul(x, g)
        seen.add(x)
    assert len(seen) == 8


def test_frobenius_is_automorphism(F9):
    for a in range(9):
        for b in range(9):
            assert F9.frob_q(F9.add(a, b)) == \
                F9.add(F9.frob_q(a), F9.frob_q(b))
            assert F9.frob_q(F9.mul(a, b)) == \
                F9.mul(F9.frob_q(a), F9.frob_q(b))
        # order m = 2
        assert F9.frob_q(F9.frob_q(a)) == a
        assert F9.frob_q(F9.frob_q(a, 1), -1) == a


def test_base_field_detection(F9):
    base = F9.base_field_elements()
    assert len(base) == 3
    assert set(base) == {0, 1, 2}


@pytest.mark.parametrize("p, s, m", [(2, 1, 1), (2, 1, 2), (2, 2, 2),
                                     (3, 1, 1), (3, 1, 2), (3, 1, 4),
                                     (3, 2, 1), (3, 2, 2), (5, 1, 2),
                                     (5, 1, 4), (5, 2, 2)])
def test_base_field_elements_closed_form(p, s, m):
    # 0 and the powers g^(k (q^m - 1)/(q - 1)) are the Frobenius-fixed
    # codes, in code order, on every field the tests build, F_16 over F_4
    # (s = 2) among them
    F = FiniteField(p, s, m)
    assert F.base_field_elements() == [a for a in range(F.size)
                                       if F.in_base_field(a)]


def test_poly_roots_with_multiplicity(F9):
    # (X - 1)^2 (X - 2) = X^3 - 4X^2 + 5X - 2 over F_3: X^3 + 2X^2 + 2X + 1
    coeffs = [1, 2, 2, 1]
    roots = dict(F9.poly_roots(coeffs))
    assert roots == {1: 2, 2: 1}


def test_sqrt_of_minus_one_needs_extension():
    F3 = FiniteField(3, 1, 1)
    assert F3.poly_roots([1, 0, 1]) == []  # X^2 + 1 has no root in F_3
    F9 = FiniteField(3, 1, 2)
    assert len(F9.poly_roots([1, 0, 1])) == 2


def test_modulus_validation():
    with pytest.raises(ConfigError):
        FiniteField(3, 1, 2, modulus=(0, 0, 1))  # X^2 is reducible
    with pytest.raises(ConfigError):
        FiniteField(4, 1, 2)  # 4 is not prime
    assert is_prime(2) and is_prime(13) and not is_prime(21)


def test_default_modulus_is_irreducible_and_deterministic():
    F3 = FiniteField(3, 1, 1)
    m1 = default_modulus(F3.ground if hasattr(F3, "ground") else F3, 4)
    F81 = FiniteField(3, 1, 4)
    assert tuple(F81.modulus) == tuple(m1)
    assert poly_is_irreducible(F81.ground, F81.modulus)


def test_tower_with_s_greater_one():
    # F_{q^m} with q = p^s = 4, m = 2 (characteristic 2 is fine as a field)
    F16 = FiniteField(2, 2, 2)
    assert F16.size == 16
    for a in range(16):
        for b in range(16):
            # freshman's dream checks the characteristic
            lhs = F16.mul(F16.add(a, b), F16.add(a, b))
            rhs = F16.add(F16.mul(a, a), F16.mul(b, b))
            assert lhs == rhs
    # flattened F_p coordinates round-trip
    for a in range(16):
        assert F16.from_fp_vec(F16.to_fp_vec(a)) == a


# -- independent oracles -------------------------------------------------------
# (p, s, m, a_limit): first operands a < a_limit are checked against every b.
ORACLE_FIELDS = [(3, 1, 2, 9), (2, 2, 2, 16), (5, 1, 2, 25), (3, 1, 4, 81),
                 (5, 1, 4, 25)]


@pytest.mark.parametrize("p, s, m, a_limit", ORACLE_FIELDS)
def test_add_sub_neg_against_digit_adder(p, s, m, a_limit):
    """Addition is coordinate-wise mod p on the flattened base-p digits of a
    code; the reference adds digits directly, without the field's tables."""
    F = FiniteField(p, s, m)
    n = s * m
    digits = [[(c // p ** i) % p for i in range(n)] for c in range(F.size)]

    def code(vec):
        return sum(d * p ** i for i, d in enumerate(vec))

    for a in range(a_limit):
        da = digits[a]
        minus_a = code([-x % p for x in da])
        assert F.neg(a) == minus_a
        # b = -a is where the Zech logarithm is undefined
        assert F.add(a, minus_a) == 0 and F.add(minus_a, a) == 0
        for b in range(F.size):
            db = digits[b]
            assert F.add(a, b) == code([(x + y) % p for x, y in zip(da, db)])
            assert F.sub(a, b) == code([(x - y) % p for x, y in zip(da, db)])


def _first_irreducible(p, m):
    """Monic degree-m irreducible over F_p, constant terms scanned fastest
    (the documented default modulus), found with sympy."""
    for n in range(p ** m):
        low = [(n // p ** i) % p for i in range(m)]
        if gf_irreducible_p([1] + low[::-1], p, ZZ):
            return tuple(low) + (1,)
    raise AssertionError("no irreducible polynomial of degree %d" % m)


@pytest.mark.parametrize("p, s, m, a_limit",
                         [f for f in ORACLE_FIELDS if f[1] == 1])
def test_mul_and_modulus_against_sympy(p, s, m, a_limit):
    F = FiniteField(p, s, m)
    assert tuple(F.modulus) == _first_irreducible(p, m)
    modulus = list(reversed(F.modulus))

    def gf(code):  # sympy dense form: high degree first
        return gf_strip([(code // p ** i) % p for i in reversed(range(m))])

    for a in range(a_limit):
        for b in range(F.size):
            rem = gf_rem(gf_mul(gf(a), gf(b), p, ZZ), modulus, p, ZZ)
            want = sum(c * p ** i for i, c in enumerate(reversed(rem)))
            assert F.mul(a, b) == want


# every field the test suite builds, directly or through a FieldConfig
_TEST_FIELDS = [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 1, 2),
                (3, 1, 4), (3, 2, 2), (5, 1, 1), (5, 1, 2), (5, 1, 4)]


class _OracleTables:
    """The table construction FiniteField used before its linear pass: the
    generator is the smallest code none of whose powers g^((size-1)/r), r a
    prime factor of size - 1, is 1, found by repeated squaring on the
    polynomial representation, and exp walks g's powers one polynomial
    product at a time; negation goes through the F_q digits."""

    def __init__(self, F):
        self.F = F
        size = F.size
        g = F.ground
        self.neg = [F.encode([g.neg(c) for c in F.decode(a)])
                    for a in range(size)]
        order = size - 1
        primes = primefactors(order) if order > 1 else []
        gen = 1 if size == 2 else next(
            c for c in range(2, size)
            if all(self.pow_slow(c, order // r) != 1 for r in primes))
        self.generator = gen
        exp = [1] * (size - 1)
        for i in range(1, size - 1):
            exp[i] = F._mul_slow(exp[i - 1], gen)
        log = [0] * size
        for i, v in enumerate(exp):
            log[v] = i
        zech = []
        for v in exp:
            w = v + 1 if v % F.p != F.p - 1 else v - (F.p - 1)
            zech.append(log[w] if w else None)
        self.exp, self.log, self.zech = exp + exp, log, zech + zech

    def pow_slow(self, a, n):
        r = 1
        while n > 0:
            if n & 1:
                r = self.F._mul_slow(r, a)
            a = self.F._mul_slow(a, a)
            n >>= 1
        return r


# the suite's fields; p = 13, m = 2, whose linear-pass lanes need
# 2 * 12^2 = 288 > 255, so a byte lane would overflow; s = 3; and
# non-default moduli
_TABLE_FIELDS = _TEST_FIELDS + [
    (2, 1, 4, None), (2, 3, 2, None), (3, 3, 1, None), (3, 1, 5, None),
    (7, 1, 2, None), (7, 1, 3, None), (11, 1, 2, None), (13, 1, 1, None),
    (13, 1, 2, None), (3, 1, 2, (2, 2, 1)), (5, 1, 2, (2, 1, 1)),
    (3, 1, 4, (1, 1, 1, 1, 1)), (2, 2, 2, (2, 1, 1))]


@pytest.mark.parametrize("field", _TABLE_FIELDS)
def test_tables_match_oracle_construction(field):
    p, s, m = field[:3]
    modulus = field[3] if len(field) > 3 else None
    F = FiniteField(p, s, m, modulus)
    want = _OracleTables(F)
    assert F.generator == want.generator
    assert F._neg == want.neg
    assert F._exp == want.exp
    assert F._log == want.log
    assert F._zech == want.zech


@pytest.mark.parametrize("p, s, m", [(13, 1, 2), (11, 1, 3), (5, 2, 2)])
def test_orbit_lanes_hold_the_largest_digits(p, s, m):
    """The orbit of a code whose every digit is p - 1 drives the lane sums
    to their bound n (p - 1)^2 (288 at p = 13, m = 2, past a byte): every
    power matches the polynomial representation's."""
    F = FiniteField(p, s, m)
    oracle = _OracleTables(F)
    for c in (F.size - 1, F.size - 2, (F.size - 1) // (p - 1)):
        want = [1]
        x = oracle.F._mul_slow(1, c)
        while x != 1:
            want.append(x)
            x = oracle.F._mul_slow(x, c)
        assert F._orbit(c) == want


@pytest.mark.parametrize("p, s, m", _TEST_FIELDS)
def test_frobenius_tables_against_pow_slow(p, s, m):
    """The p-power table read off the logs equals repeated squaring on the
    polynomial representation; the p^k tables are its k-fold compositions
    and k is taken mod s*m."""
    F = FiniteField(p, s, m)
    oracle = _OracleTables(F)
    frob = [oracle.pow_slow(a, p) for a in range(F.size)]
    assert F.frob_table(1) == frob
    want = list(range(F.size))
    for k in range(s * m + 1):
        assert F.frob_table(k) == want
        assert F.frob_table(k - s * m) == want
        assert [F.frob_p(a, k) for a in range(F.size)] == want
        want = [frob[a] for a in want]
    assert F.frob_table(s * m) == list(range(F.size))


def _roots_by_horner(F, coeffs):
    """Every code z with its multiplicity: dense Horner evaluation of the
    whole polynomial, then synthetic division while z stays a root."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    roots = []
    for z in range(F.size):
        mult, work = 0, list(coeffs)
        while len(work) > 1 and F.poly_eval(work, z) == 0:
            quot, acc = [], 0
            for c in reversed(work[1:]):
                acc = F.add(F.mul(acc, z), c)
                quot.append(acc)
            work = quot[::-1]
            mult += 1
        if mult:
            roots.append((z, mult))
    return roots


_ROOT_FIELDS = {key: FiniteField(*key)
                for key in [(3, 1, 2), (5, 1, 2), (2, 2, 2)]}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(_ROOT_FIELDS)),
       shape=st.sampled_from(["binomial", "trinomial", "dense", "no-constant",
                              "power"]),
       data=st.data())
def test_poly_roots_match_horner_oracle(key, shape, data):
    """poly_roots reads f(z) off the nonzero coefficients through the log
    tables; the list, its order and the multiplicities are those of dense
    Horner evaluation: binomials and trinomials of degree up to 24, dense
    polynomials, a zero constant term and (X - z)^p times a binomial."""
    F = _ROOT_FIELDS[key]
    code = st.integers(1, F.size - 1)
    deg = data.draw(st.integers(1, 24))
    coeffs = [0] * (deg + 1)
    coeffs[deg] = data.draw(code)
    if shape in ("binomial", "trinomial", "no-constant"):
        coeffs[0] = 0 if shape == "no-constant" else data.draw(code)
        if shape != "binomial":
            coeffs[data.draw(st.integers(0, deg - 1))] = data.draw(code)
    elif shape == "dense":
        coeffs = [data.draw(st.integers(0, F.size - 1))
                  for _ in range(deg)] + [data.draw(code)]
    else:
        z = data.draw(st.integers(0, F.size - 1))
        # (X - z)^p = X^p - z^p in characteristic p
        power = [F.neg(F.pow(z, F.p))] + [0] * (F.p - 1) + [1]
        other = [data.draw(code)] + [0] * (deg - 1) + [data.draw(code)]
        coeffs = [0] * (len(power) + len(other) - 1)
        for i, a in enumerate(power):
            for j, b in enumerate(other):
                coeffs[i + j] = F.add(coeffs[i + j], F.mul(a, b))
    assert F.poly_roots(coeffs) == _roots_by_horner(F, coeffs)


def test_poly_roots_degenerate_inputs():
    F = _ROOT_FIELDS[(3, 1, 2)]
    assert F.poly_roots([]) == [] and F.poly_roots([0, 0]) == []
    assert F.poly_roots([5]) == []
    assert F.poly_roots([0, 1]) == [(0, 1)]
    assert F.poly_roots([0, 0, 0, 1]) == [(0, 3)]
