import pytest
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


@pytest.mark.parametrize("p, s, m", _TEST_FIELDS)
def test_frobenius_tables_against_pow_slow(p, s, m):
    """The p-power table read off the logs equals repeated squaring on the
    polynomial representation; the p^k tables are its k-fold compositions
    and k is taken mod s*m."""
    F = FiniteField(p, s, m)
    frob = [F.pow_slow(a, p) for a in range(F.size)]
    assert F.frob_table(1) == frob
    want = list(range(F.size))
    for k in range(s * m + 1):
        assert F.frob_table(k) == want
        assert F.frob_table(k - s * m) == want
        assert [F.frob_p(a, k) for a in range(F.size)] == want
        want = [frob[a] for a in want]
    assert F.frob_table(s * m) == list(range(F.size))
