import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab import cinf
from drinfeldlab.cinf import CInfApprox, FieldConfig, INF
from drinfeldlab.errors import (ConfigError, DivisionByApparentZero,
                                GridTooCoarse, IndeterminateValuation,
                                NoConvergence)
from drinfeldlab.fields import FiniteField

# q = 3 over F_9 with a short window, so dense quotients stay cheap
CFG_SHORT = FieldConfig(3, 1, 2, e=18, prec=60)


def test_identity_cases(cfg_small):
    th = cfg_small.theta()
    assert (th * th.inverse()).terms == {0: 1}
    # characteristic-p cancellation: (1 + th^-1) + (p-1)*1 = th^-1
    a = cfg_small.one() + cfg_small.theta(-1)
    b = a + cfg_small.one() * 2
    assert b.terms == {18: 1}


def test_geometric_series_oracle(cfg_small):
    # 1/(1 - th^-1) = 1 + th^-1 + ... ; certify by multiplying back
    d = cfg_small.one() - cfg_small.theta(-1)
    g = d.inverse()
    assert g.terms[0] == 1 and g.terms[18] == 1 and g.terms[36] == 1
    back = g * d - cfg_small.one()
    assert back.is_apparent_zero()
    assert back.vbound() >= cfg_small.rel_prec - cfg_small.e


def test_valuation_and_abs(cfg_small):
    assert cfg_small.theta().valuation() == -18
    assert cfg_small.zero(INF).valuation() == INF
    with pytest.raises(IndeterminateValuation):
        cfg_small.zero(100).valuation()


def test_division_by_apparent_zero(cfg_small):
    with pytest.raises(DivisionByApparentZero):
        cfg_small.one() / cfg_small.zero(100)


def test_frobenius_examples(cfg_small):
    th = cfg_small.theta()
    assert cfg_small.theta(-1).frobenius(1).terms == {54: 1}
    a = cfg_small.one() + cfg_small.theta(-1)
    assert a.frobenius(1).terms == {0: 1, 54: 1}
    # inverse pair
    r = a.frobenius(1).frobenius(-1)
    assert r.terms == a.terms
    with pytest.raises(GridTooCoarse):
        cfg_small.monomial(1, 1).frobenius(-1)  # exponent 1 not divisible by 3


def _random_value(cfg, rng, exp_range=(-40, 200), nterms=5, prec=700):
    terms = {rng.randrange(*exp_range): rng.randrange(1, cfg.field.size)
             for _ in range(rng.randrange(1, nterms + 1))}
    return CInfApprox(cfg, terms, prec)


def test_ultrametric_properties(cfg_small):
    rng = random.Random(11)
    for _ in range(300):
        x = _random_value(cfg_small, rng)
        y = _random_value(cfg_small, rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_apparent_zero():
            assert s.valuation() >= min(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                assert s.valuation() == min(x.valuation(), y.valuation())


def test_frobenius_is_field_homomorphism(cfg_small):
    rng = random.Random(12)
    for _ in range(100):
        x = _random_value(cfg_small, rng)
        y = _random_value(cfg_small, rng)
        fx, fy = x.frobenius(1), y.frobenius(1)
        assert ((x * y).frobenius(1) - fx * fy).is_apparent_zero()
        assert ((x + y).frobenius(1) - (fx + fy)).is_apparent_zero()


def test_division_round_trip(cfg_small):
    rng = random.Random(13)
    for _ in range(60):
        x = _random_value(cfg_small, rng)
        y = _random_value(cfg_small, rng)
        z = x / y
        assert (z * y - x).is_zero_to(400)


def test_precision_propagation_rules(cfg_small):
    a = CInfApprox(cfg_small, {0: 1}, 100)
    b = CInfApprox(cfg_small, {5: 2}, 50)
    assert (a + b).prec == 50
    assert (a * b).prec == min(100 + 5, 50 + 0)
    # multiplying by an exact monomial shifts precision with the valuation
    th = cfg_small.theta()
    assert (a * th).prec == 100 - 18


def test_p_power_shortcut(cfg_small):
    y = (cfg_small.one() + cfg_small.theta(-1)) ** 9
    assert y.terms == {0: 1, 162: 1}
    z = (cfg_small.one() + cfg_small.theta(-1)) ** 6
    # (1+x)^6 = ((1+x)^3)^2 = (1+x^3)^2 = 1 + 2x^3 + x^6
    assert z.terms == {0: 1, 54: 2, 108: 1}


def test_config_validation():
    with pytest.raises(ConfigError):
        FieldConfig(3, 1, 2, e=12)  # not divisible by (q-1)q^2 = 18
    with pytest.raises(ConfigError):
        FieldConfig(2, 1, 2)  # char 2 needs the explicit flag
    cfg = FieldConfig(2, 1, 2, e=8, allow_char2=True, depth=2)
    assert cfg.q == 2
    with pytest.raises(ConfigError):
        FieldConfig(9, 1, 2)  # 9 is not prime
    # s = 0 made q = 1 and the grid check divided by zero
    for s, m in [(0, 2), (-1, 2), (True, 2), ("1", 2), (1, 0), (1, -3),
                 (1, True), (1, False)]:
        with pytest.raises(ConfigError):
            FieldConfig(3, s, m, e=72)
    # the other integer fields want plain ints too; "3" and depth "x"
    # raised TypeError, e = 72.0 was accepted and prec = 1.5 became 1
    for name in ("p", "e", "depth", "prec", "rel_prec", "t_terms",
                 "exp_depth", "tower_cap", "pole_count"):
        for bad in ("3", 72.0, 1.5, True, False, "x"):
            args = dict(p=3, s=1, m=2, e=72, prec=240)
            args[name] = bad
            with pytest.raises(ConfigError, match=name):
                FieldConfig(**args)
    for name in ("p", "depth", "prec", "t_terms", "exp_depth", "tower_cap"):
        with pytest.raises(ConfigError, match=name):
            FieldConfig(**dict(dict(p=3, s=1, m=2, e=72), **{name: None}))
    cfg = FieldConfig(3, 1, 2, e=None, rel_prec=None, pole_count=None)
    assert (cfg.e, cfg.rel_prec, cfg.pole_count) == (18, 960, None)
    # and values in range: prec = -5 gave the pass threshold -4, which
    # every residual cleared
    for name, bad in [("prec", 0), ("prec", -5), ("t_terms", 0),
                      ("t_terms", -2), ("exp_depth", 0), ("tower_cap", 0),
                      ("pole_count", 0), ("depth", -1)]:
        args = dict(p=3, s=1, m=2, e=72, prec=240)
        args[name] = bad
        with pytest.raises(ConfigError, match=name):
            FieldConfig(**args)
    cfg = FieldConfig(3, 1, 2, e=2, depth=0, prec=1, t_terms=1, exp_depth=1,
                      tower_cap=1, pole_count=1)
    assert (cfg.prec, cfg.depth) == (1, 0)


def test_mixed_config_rejected(cfg_small):
    other = FieldConfig(3, 1, 2, e=36, prec=240)
    with pytest.raises(ConfigError):
        cfg_small.one() + other.one()


def test_apparent_zero_propagation(cfg_small):
    # zero-to-precision values degrade knowledge but never lie
    fuzzy = cfg_small.zero(50)
    x = cfg_small.theta(-2)  # valuation 36
    prod = fuzzy * x
    assert prod.is_apparent_zero()
    assert prod.prec == 50 + 36
    s = fuzzy + cfg_small.one()
    assert s.terms == {0: 1} and s.prec == 50
    # exact zero times anything is exactly zero
    assert (cfg_small.zero(INF) * x).is_exact_zero()


def _full_window_inverse(b):
    """The reference inverse: every Newton sweep works on the full window
    and the iterate is truncated to it."""
    cfg = b.cfg
    F = cfg.field
    v, lead = b.leading()
    if len(b.terms) == 1:
        return CInfApprox(cfg, {-v: F.inv(lead)},
                          INF if b.prec == INF else b.prec - 2 * v)
    window = cfg.rel_prec if b.prec == INF else min(b.prec - v, cfg.rel_prec)
    bt = b.truncate(v + window)
    x = CInfApprox(cfg, {-v: F.inv(lead)}, INF)
    one = cfg.one()
    for _ in range(64):
        err = one - bt * x
        if err.vbound() >= window:
            break
        x = (x + x * err).truncate(-v + window)
    else:
        raise AssertionError("reference inverse did not converge")
    prec = (-v + window) if b.prec == INF else b.prec - 2 * v
    return x.truncate(min(prec, -v + window))


def _assert_same_inverse(b):
    got, want = b.inverse(), _full_window_inverse(b)
    assert got.terms == want.terms
    assert got.prec == want.prec


def test_inverse_matches_full_window_reference():
    rng = random.Random(31)
    cfg = CFG_SHORT
    size = cfg.field.size
    for case in range(120):
        v = rng.randrange(-60, 60)
        kind = case % 4
        if kind == 0:
            # two terms, gap anywhere from one grid step to past the window
            gap = rng.choice([1, 2, 17, 18, 100, 239, 240, 241, 500])
            terms = {v: rng.randrange(1, size),
                     v + gap: rng.randrange(1, size)}
        elif kind == 1:
            # a wide gap after the leading term, then a dense cluster
            gap = rng.randrange(30, 260)
            terms = {v: rng.randrange(1, size)}
            for _ in range(rng.randrange(1, 6)):
                terms[v + gap + rng.randrange(40)] = rng.randrange(1, size)
        else:
            terms = {v + rng.randrange(60): rng.randrange(1, size)
                     for _ in range(rng.randrange(1, 8))}
            terms[v] = rng.randrange(1, size)
        # finite precision on kinds 2 and 3: window below rel_prec, and
        # sometimes cutting the value to its leading term
        prec = INF if kind < 2 else v + 1 + rng.randrange(300)
        _assert_same_inverse(CInfApprox(cfg, terms, prec))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(v=st.integers(-80, 80),
       rest=st.dictionaries(st.integers(1, 320), st.integers(1, 8),
                            max_size=6),
       lead=st.integers(1, 8),
       depth=st.one_of(st.none(), st.integers(1, 400)))
def test_inverse_matches_full_window_reference_hypothesis(v, rest, lead,
                                                          depth):
    terms = {v + d: c for d, c in rest.items()}
    terms[v] = lead
    prec = INF if depth is None else v + depth
    _assert_same_inverse(CInfApprox(CFG_SHORT, terms, prec))


def test_inverse_sweep_limit(monkeypatch):
    # 1/(1 - th^-1) fills its window of 240 in five sweeps: the window
    # grows 18 -> 36, 72, 144, 240, and the fifth sweep certifies it
    d = CFG_SHORT.one() - CFG_SHORT.theta(-1)
    monkeypatch.setattr(cinf, "_INVERSE_SWEEPS", 4)
    with pytest.raises(NoConvergence):
        d.inverse()
    monkeypatch.setattr(cinf, "_INVERSE_SWEEPS", 5)
    _assert_same_inverse(d)


# -- add/mul/Frobenius against a naive dense reference ---------------------


def _dense_span(x):
    """Every grid exponent from the lowest known term to the highest."""
    return range(min(x.terms), max(x.terms) + 1) if x.terms else range(0)


def _ref_add(a, b):
    """(terms, prec) of a + b, one exponent at a time."""
    F = a.cfg.field
    prec = min(a.prec, b.prec)
    lo = min(list(a.terms) + list(b.terms), default=0)
    hi = max(list(a.terms) + list(b.terms), default=-1)
    out = {}
    for e in range(lo, hi + 1):
        c = F.add(a.terms.get(e, 0), b.terms.get(e, 0))
        if c and e < prec:
            out[e] = c
    return out, prec


def _ref_mul(a, b):
    """(terms, prec) of a * b by the schoolbook product over the dense
    spans, zeros included; prec = min(prec_a + v(b), prec_b + v(a))."""
    F = a.cfg.field
    prec = min(a.prec + b.vbound(), b.prec + a.vbound())
    out = {}
    for ea in _dense_span(a):
        for eb in _dense_span(b):
            e = ea + eb
            if e < prec:
                out[e] = F.add(out.get(e, 0),
                               F.mul(a.terms.get(ea, 0), b.terms.get(eb, 0)))
    return {e: c for e, c in out.items() if c}, prec


def _as_pair(x):
    return x.terms, x.prec


_SPARSE_TERMS = st.dictionaries(st.integers(-40, 160), st.integers(1, 8),
                                max_size=5)
_DENSE_TERMS = st.builds(
    lambda lo, codes: {lo + i: c for i, c in enumerate(codes)},
    st.integers(-40, 40), st.lists(st.integers(0, 8), min_size=1,
                                   max_size=60))
_VALUES = st.builds(lambda terms, prec: CInfApprox(CFG_SHORT, terms, prec),
                    st.one_of(_SPARSE_TERMS, _DENSE_TERMS),
                    st.one_of(st.just(INF), st.integers(-40, 260)))
_ORACLE = settings(max_examples=120, deadline=None, database=None,
                   derandomize=True)


@_ORACLE
@given(a=_VALUES, b=_VALUES)
def test_mul_matches_dense_reference(a, b):
    assert _as_pair(a * b) == _ref_mul(a, b)


@_ORACLE
@given(a=_VALUES, b=_VALUES, n=st.integers(1, 2))
def test_frobenius_precision_rules(a, b, n):
    fa = a.frobenius(n)
    qn = CFG_SHORT.q ** n
    assert fa.prec == (INF if a.prec == INF else qn * a.prec)
    assert _as_pair(fa.frobenius(-n)) == _as_pair(a)
    # a homomorphism in terms and in precision
    assert _as_pair((a * b).frobenius(n)) == _as_pair(fa * b.frobenius(n))
    assert _as_pair((a + b).frobenius(n)) == _as_pair(fa + b.frobenius(n))
    # a^q by reference products agrees below both precisions
    if n == 1:
        cube, cprec = _ref_mul(CInfApprox(CFG_SHORT, *_ref_mul(a, a)), a)
        below = min(cprec, fa.prec)
        assert {e: c for e, c in fa.terms.items() if e < below} == \
            {e: c for e, c in cube.items() if e < below}


# -- the sum-of-products kernel against summed dense references ---------------

# F_9 (the short grid above), F_625, and F_81 built as F_9[x]/(f) (s = 2)
_DOT_CFGS = [CFG_SHORT, FieldConfig(5, 1, 4, prec=60),
             FieldConfig(3, 2, 2, depth=0, prec=60)]


def _ref_dot(pairs, cap=INF):
    """(terms, prec) of sum a * b: each product by the dense reference,
    added one exponent at a time and cut at the lowest precision."""
    prec = cap
    acc = {}
    F = None
    for a, b in pairs:
        F = a.cfg.field
        terms, p = _ref_mul(a, b)
        prec = min(prec, p)
        for e, c in terms.items():
            acc[e] = F.add(acc.get(e, 0), c)
    if prec != INF:
        prec = int(prec)
    return {e: c for e, c in acc.items() if c and e < prec}, prec


def _dot_values(cfg):
    size = cfg.field.size
    sparse = st.dictionaries(st.integers(-20, 80), st.integers(1, size - 1),
                             max_size=5)
    dense = st.builds(
        lambda lo, codes: {lo + i: c for i, c in enumerate(codes)},
        st.integers(-20, 20), st.lists(st.integers(0, size - 1), min_size=1,
                                       max_size=30))
    # exact values, finite precisions, exact zeros and zeros to precision
    return st.builds(lambda terms, prec: CInfApprox(cfg, terms, prec),
                     st.one_of(sparse, dense, st.just({})),
                     st.one_of(st.just(INF), st.integers(-20, 140)))


def _dense_values(cfg, min_size=20, max_size=80):
    """Long dense values, exact or with a finite precision."""
    size = cfg.field.size
    return st.builds(
        lambda lo, codes, prec: CInfApprox(
            cfg, {lo + i: c for i, c in enumerate(codes)}, prec),
        st.integers(-20, 20),
        st.lists(st.integers(0, size - 1), min_size=min_size,
                 max_size=max_size),
        st.one_of(st.just(INF), st.integers(0, 160)))


def _ref_neg(a):
    F = a.cfg.field
    return CInfApprox(a.cfg, {e: F.neg(c) for e, c in a.terms.items()},
                      a.prec)


def test_add_matches_dense_reference():
    # a + b, a - b, -a and scale read the Zech, log and negation tables
    # directly; the reference adds and multiplies through the field, over
    # each of the three fields of the dot oracle
    for cfg in _DOT_CFGS:
        F = cfg.field
        values = st.one_of(_dot_values(cfg), _dense_values(cfg, 1, 40))
        if cfg is CFG_SHORT:
            values = st.one_of(values, _VALUES)

        @_ORACLE
        @given(a=values, b=values, code=st.integers(0, F.size - 1))
        def check(a, b, code):
            assert _as_pair(a + b) == _ref_add(a, b)
            assert _as_pair(a - b) == _ref_add(a, _ref_neg(b))
            assert _as_pair(a + b) == _as_pair(b + a)
            assert _as_pair(-a) == _as_pair(_ref_neg(a))
            assert _as_pair(a.scale(code)) == (
                {e: F.mul(c, code) for e, c in a.terms.items() if code},
                INF if code == 0 else a.prec)
            # a - a cancels in full, at a's precision
            assert _as_pair(a - a) == ({}, a.prec)

        check()


def _mono_values(cfg):
    """One-term values c0 theta^(-e0/e): code 1 or any other code, exact
    or with a finite precision (at or below e0 it is zero to precision)."""
    return st.builds(lambda e0, c0, prec: CInfApprox(cfg, {e0: c0}, prec),
                     st.integers(-20, 80),
                     st.one_of(st.just(1),
                               st.integers(1, cfg.field.size - 1)),
                     st.one_of(st.just(INF), st.integers(-20, 140)))


def _mono_case(cfg):
    """(pairs, cap): 1-5 pairs with a one-term operand on either side, its
    partner a long dense value, any value or another monomial; at times a
    general pair too; then the negations of none, some or all of them,
    so that the sum cancels in part or in full."""
    mono = _mono_values(cfg)
    partner = st.one_of(_dense_values(cfg), _dot_values(cfg), mono)
    pair = st.one_of(st.tuples(mono, partner), st.tuples(partner, mono))
    general = st.tuples(_dense_values(cfg, 2, 20), _dot_values(cfg))

    def build(ps, extra, cancel):
        ps = ps + extra
        return ps + [(-a, b) for a, b in ps[:cancel]]

    return st.tuples(st.builds(build, st.lists(pair, min_size=1, max_size=5),
                               st.lists(general, max_size=1),
                               st.integers(0, 6)),
                     st.one_of(st.just(INF), st.integers(-40, 200)))


@pytest.mark.parametrize("cfg", _DOT_CFGS, ids=["F9", "F625", "F81-s2"])
def test_monomial_pairs_match_summed_dense_reference(cfg):
    @_ORACLE
    @given(case=_mono_case(cfg))
    def check(case):
        pairs, cap = case
        got = cinf.dot(cfg, pairs, cap)
        assert _as_pair(got) == _ref_dot(pairs, cap)
        assert all(c for c in got.terms.values())
        for a, b in pairs:
            assert _as_pair(a * b) == _as_pair(b * a) == _ref_dot([(a, b)])

    check()


def _dot_case(cfg):
    """(pairs, cap): 0-4 pairs, sometimes followed by the negation of one of
    them, so that part or all of the sum cancels."""
    values = _dot_values(cfg)
    pairs = st.lists(st.tuples(values, values), max_size=4)
    cancel = st.one_of(st.none(), st.integers(0, 3))

    def build(ps, k):
        if k is not None and ps:
            a, b = ps[k % len(ps)]
            ps = ps + [(-a, b)]
        return ps

    return st.tuples(st.builds(build, pairs, cancel),
                     st.one_of(st.just(INF), st.integers(-40, 200)))


@pytest.mark.parametrize("cfg", _DOT_CFGS, ids=["F9", "F625", "F81-s2"])
def test_dot_matches_summed_dense_reference(cfg, monkeypatch):
    @_ORACLE
    @given(case=_dot_case(cfg))
    def check(case):
        pairs, cap = case
        # cutoff 0 sends every pair of two multi-term operands to the
        # packed product, INF sends none to it
        for cutoff in (0, INF):
            monkeypatch.setattr(cinf, "_PACK_MIN", cutoff)
            got = cinf.dot(cfg, pairs, cap)
            assert _as_pair(got) == _ref_dot(pairs, cap)
            assert all(c for c in got.terms.values())
            if len(pairs) == 1:
                a, b = pairs[0]
                assert _as_pair(a * b) == _ref_dot(pairs)

    check()



@pytest.mark.parametrize("cfg", _DOT_CFGS, ids=["F9", "F625", "F81-s2"])
def test_exact_one_and_zero_pass_through(cfg):
    # a lone pair with the exact one is the other factor cut at the cap,
    # the reference's terms and precision, and the value itself when the
    # cap cuts nothing; a sum with the exact zero is the other operand
    @_ORACLE
    @given(b=_dot_values(cfg),
           cap=st.one_of(st.just(INF), st.integers(-40, 200)))
    def check(b, cap):
        one, zero = cfg.one(), cfg.zero(INF)
        want = _ref_dot([(one, b)], cap)
        for pair in ((one, b), (b, one)):
            got = cinf.dot(cfg, [pair], cap)
            assert _as_pair(got) == want
            assert (got is b) == (cap >= b.prec)
        assert _as_pair(one * b) == _ref_dot([(one, b)])
        for got in (b + zero, zero + b, b - zero):
            assert got is b or (b.is_exact_zero() and got is zero)
        assert _as_pair(zero - b) == _as_pair(-b)

    check()


# F_625 as F_25[x]/(f): n = s*m = 4 digits, a digit product at most 16, so
# one pair's slots reach min(len a, len b) * 64: 8-bit slots up to three
# terms, 16-bit slots from four
_EDGE_CFG = FieldConfig(5, 2, 2, depth=0, prec=60)


def test_packed_slots_at_the_bound_edge(monkeypatch):
    """Dense operands whose every digit is p - 1 fill the middle slot of
    an aligned product to the bound exactly; one to three pairs of three to
    five terms cross from 8-bit to 16-bit slots, some strided, some cut."""
    monkeypatch.setattr(cinf, "_PACK_MIN", 0)
    cfg = _EDGE_CFG
    top = cfg.field.size - 1  # every digit 4

    def value(data):
        n = data.draw(st.integers(3, 5))
        lo = data.draw(st.integers(-10, 10))
        step = data.draw(st.sampled_from([1, 1, 2, 3]))
        codes = data.draw(st.lists(st.sampled_from([top, top, top, 1]),
                                   min_size=n, max_size=n))
        prec = data.draw(st.one_of(st.just(INF), st.integers(0, 60)))
        return CInfApprox(cfg, {lo + step * i: c for i, c in enumerate(codes)},
                          prec)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def check(data):
        pairs = [(value(data), value(data))
                 for _ in range(data.draw(st.integers(1, 3)))]
        cap = data.draw(st.one_of(st.just(INF), st.integers(-20, 80)))
        assert _as_pair(cinf.dot(cfg, pairs, cap)) == _ref_dot(pairs, cap)

    check()


def test_packed_slot_bound_falls_back_past_16_bits(monkeypatch):
    """Past 16 bits the packed product declines and the loop forms the
    pairs; just below it the packed product agrees with the loop."""
    from drinfeldlab import packed
    cfg = _EDGE_CFG
    top = cfg.field.size - 1
    x = CInfApprox(cfg, {i: top for i in range(128)}, INF)
    y = CInfApprox(cfg, {i: top for i in range(127)}, INF)
    F = cfg.field
    # 8 * 128 * 64 = 65536 needs 17 bits; 7 * 128 + 127 = 1023 pairs fit
    assert packed.dense_sum(F, [(x, x)] * 8, INF) is None
    fits = [(x, x)] * 7 + [(y, x)]
    got = packed.dense_sum(F, fits, INF)
    monkeypatch.setattr(cinf, "_PACK_MIN", INF)
    want = cinf.dot(cfg, fits)
    assert got == want.terms
    monkeypatch.setattr(cinf, "_PACK_MIN", 0)
    assert _as_pair(cinf.dot(cfg, [(x, x)] * 8)) == _as_pair(
        cinf.dot(cfg, [(x, x)] * 4 + [(-x, x)] * 4 + [(x, x)] * 8))


def test_monomial_sums_first_pass_cases():
    """A sum of monomial pairs alone is written as codes: its longest pass
    first, as a copy, a shift, a cut or a scaling, the others merged
    through the Zech logarithms."""
    cfg = _DOT_CFGS[1]
    F = cfg.field
    long = CInfApprox(cfg, {i: 1 + (7 * i) % (F.size - 1) for i in range(40)},
                      50)
    short = CInfApprox(cfg, {3: 5, 9: 7}, INF)
    one, th = cfg.one(), cfg.monomial(4)
    two = cfg.from_coeff(2)
    cut_one = CInfApprox(cfg, {0: 1}, 20)
    zero, dust = cfg.zero(INF), cfg.zero(30)
    cases = [
        [(one, long)],                      # a copy
        [(long, th)],                       # a shift
        [(cut_one, long)],                  # a cut: prec 20 < 50
        [(two, long), (short, one)],        # a scaling, then a merge
        [(one, long), (th, short), (zero, long), (long, zero)],
        [(one, long), (cfg.from_coeff(F.neg(1)), long)],  # full cancellation
        [(one, short), (th, long), (dust, one)],
        [(zero, short)],                    # exact zeros only
    ]
    for pairs in cases:
        for cap in (INF, 25, -5):
            got = cinf.dot(cfg, pairs, cap)
            assert _as_pair(got) == _ref_dot(pairs, cap)
    assert _as_pair(cinf.dot(cfg, cases[5])) == ({}, 50)
    assert _as_pair(cinf.dot(cfg, cases[7])) == ({}, INF)


def test_dot_precision_cases():
    cfg = CFG_SHORT
    a = CInfApprox(cfg, {0: 1, 3: 2, 7: 5}, INF)
    b = CInfApprox(cfg, {-2: 4, 5: 1}, 40)
    zero = cfg.zero(INF)
    dust = cfg.zero(25)
    # empty sum: the exact zero
    assert _as_pair(cinf.dot(cfg, [])) == ({}, INF)
    # exact zeros add nothing to the precision; zeros to precision cap it
    assert cinf.dot(cfg, [(a, b), (zero, b), (a, zero)]).prec == 40
    assert cinf.dot(cfg, [(a, b), (dust, a)]).prec == 25
    assert cinf.dot(cfg, [(dust, b)]).prec == 23
    # full cancellation leaves no term, at the lowest precision
    got = cinf.dot(cfg, [(a, b), (-a, b)])
    assert got.terms == {} and got.prec == 40
    # cap below and above the products' precision
    assert _as_pair(cinf.dot(cfg, [(a, b)], 6)) == _ref_dot([(a, b)], 6)
    assert cinf.dot(cfg, [(a, b)], 400).prec == 40
    # operands over a different grid are refused
    with pytest.raises(ConfigError):
        cinf.dot(cfg, [(a, FieldConfig(3, 1, 2, e=36).one())])


# -- the two Zech merge helpers against the field's add and mul --------------


def _check_merge_pair(F, x, y, l0):
    """{e: x} merged into {e + e0: y} (y = 0: into an empty dict) at the
    scale g^l0, against F.add(y, F.mul(x, g^l0)), uncut and cut."""
    order = F.size - 1
    log = F._log
    e, e0 = 7, -3
    want = F.add(y, F.mul(x, F._exp[l0]))
    for limit in (INF, e + 1, e):
        kept = want if limit > e else y
        got = cinf._merge_codes(F, {e + e0: y} if y else {}, {e: x}, e0, l0,
                                limit)
        assert got == ({e + e0: kept} if kept else {})
        logs = {e + e0: log[y]} if y else {}
        cinf._merge_logs(F, logs, [(e, log[x])], e0, l0, limit)
        assert logs == ({e + e0: log[kept]} if kept else {})
        assert all(0 <= k < order for k in logs.values())


def _check_merge_runs(F, rng):
    """Many-term passes: every exponent shifted by e0 and cut at the
    limit exactly, against a reference summed one term at a time."""
    order = F.size - 1
    log, exp = F._log, F._exp
    for _ in range(60):
        out = {e: rng.randrange(1, F.size) for e in rng.sample(range(40), 15)}
        terms = {e: rng.randrange(1, F.size)
                 for e in rng.sample(range(-10, 40), 20)}
        e0, l0 = rng.randrange(-5, 6), rng.randrange(order)
        limit = rng.choice([INF, rng.randrange(-10, 45)])
        want = dict(out)
        for e, c in terms.items():
            if e < limit:
                want[e + e0] = F.add(want.get(e + e0, 0),
                                     F.mul(c, exp[l0]))
        want = {e: c for e, c in want.items() if c}
        assert cinf._merge_codes(F, dict(out), terms, e0, l0, limit) == want
        logs = {e: log[c] for e, c in out.items()}
        cinf._merge_logs(F, logs, [(e, log[c]) for e, c in terms.items()],
                         e0, l0, limit)
        assert logs == {e: log[c] for e, c in want.items()}
        assert all(0 <= k < order for k in logs.values())


@pytest.mark.parametrize("F", [FiniteField(3, 2, 1), FiniteField(2, 2, 2)],
                         ids=["F9-s2", "F16-s2"])
def test_merge_helpers_exhaustive(F):
    order = F.size - 1
    for x, y, l0 in itertools.product(range(1, F.size), range(F.size),
                                      range(order)):
        _check_merge_pair(F, x, y, l0)
    # x = -y at l0 = 0 cancels: the exponent is deleted
    for y in range(1, F.size):
        assert cinf._merge_codes(F, {4: y}, {4: F.neg(y)}, 0, 0, INF) == {}
    _check_merge_runs(F, random.Random(F.size))


def test_merge_helpers_sampled_over_f625():
    F = FiniteField(5, 1, 4)
    rng = random.Random(625)
    for _ in range(4000):
        _check_merge_pair(F, rng.randrange(1, F.size), rng.randrange(F.size),
                          rng.randrange(F.size - 1))
    _check_merge_runs(F, rng)


def test_merge_codes_into_an_empty_dict():
    # a copy, a shift, a cut or a scaling; a new dict, never the input
    F = FiniteField(3, 2, 1)
    terms = {0: 1, 2: 5, 9: 3}
    copy = cinf._merge_codes(F, {}, terms, 0, 0, INF)
    assert copy == terms and copy is not terms
    assert cinf._merge_codes(F, {}, terms, 4, 0, INF) == {4: 1, 6: 5, 13: 3}
    assert cinf._merge_codes(F, {}, terms, 0, 0, 9) == {0: 1, 2: 5}
    assert cinf._merge_codes(F, {}, terms, 1, 2, 3) == {
        1: F._exp[2], 3: F.mul(5, F._exp[2])}


# -- pole inverses, written per config ---------------------------------------


@pytest.mark.parametrize("cfg", [CFG_SHORT, FieldConfig(3, 1, 4, e=72, prec=480),
                                 FieldConfig(5, 1, 4, e=600, prec=240),
                                 FieldConfig(3, 2, 2, depth=0, prec=60),
                                 FieldConfig(3, 1, 2, e=36, prec=60,
                                             rel_prec=333)])
def test_pole_inverse_table(cfg):
    # the closed-form series against Newton inversion of theta^(q^k) - theta
    th = cfg.theta()
    for k in (3, 1, 6, 2):
        got = cfg.pole_inverse(k)
        want = (th.frobenius(k) - th).inverse()
        assert got.terms == want.terms and got.prec == want.prec
    with pytest.raises(ConfigError):
        cfg.pole_inverse(0)


# -- one field per (p, s, m, modulus) and process -----------------------------


def _tables(F):
    return (F.modulus, F.generator, F._neg, F._exp, F._log, F._zech)


def test_configs_share_one_field():
    a = FieldConfig(3, 1, 4, e=72, prec=240)
    b = FieldConfig(3, 1, 4, e=108, prec=480, depth=3)
    assert a.field is b.field
    # the modulus is part of the key: the same field under its default
    # modulus spelled out, and a different one under another irreducible
    default = FieldConfig(3, 1, 2).field
    spelled = FieldConfig(3, 1, 2, modulus=[1, 0, 1]).field
    other = FieldConfig(3, 1, 2, modulus=[2, 1, 1]).field
    assert spelled.modulus == default.modulus == (1, 0, 1)
    assert _tables(spelled) == _tables(default)
    assert other is not default and other.modulus == (2, 1, 1)
    assert other._log != default._log
    assert FieldConfig(3, 1, 2, modulus=(2, 1, 1)).field is other


def test_configs_built_in_two_threads_share_identical_tables(monkeypatch):
    import threading
    monkeypatch.setattr(cinf, "_FIELDS", {})
    start = threading.Barrier(2)
    got = [None, None]

    def build(i):
        start.wait()
        got[i] = FieldConfig(5, 1, 4, e=600)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got[0].field is got[1].field
    assert _tables(got[0].field) == _tables(cinf.FiniteField(5, 1, 4))


def test_each_config_keeps_its_pole_inverses():
    a = FieldConfig(3, 1, 4, e=72, prec=240)
    b = FieldConfig(3, 1, 4, e=72, prec=480)
    assert a.field is b.field
    # the same pole to each config's own relative precision
    x, y = a.pole_inverse(1), b.pole_inverse(1)
    assert x.prec < y.prec
    assert {e: c for e, c in y.terms.items() if e < x.prec} == x.terms


# -- minima of integer lines ---------------------------------------------------


_LINES = st.lists(st.tuples(st.integers(1, 40),
                            st.one_of(st.just(INF), st.integers(-400, 400))),
                  max_size=6)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(lines=_LINES, target=st.integers(-400, 400))
def test_least_v_is_the_least_passing_integer(lines, target):
    # every line reaches the target from _least_v on and one misses it just
    # below; with no finite line every v passes
    v = cinf._least_v(lines, target)
    holds = lambda x: all(c + s * x >= target for s, c in lines)
    if all(c == INF for _, c in lines):
        assert v == -INF
    else:
        assert holds(v) and not holds(v - 1)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(lines=_LINES, xs=st.lists(st.integers(-800, 800), max_size=8))
def test_lower_envelope_reads_the_minimum(lines, xs):
    # one bisection into the envelope gives the least line at each integer
    # x; lines of equal slope keep the lowest, as the library feeds them
    best = {}
    for s, c in lines:
        if c != INF:
            best[s] = min(c, best.get(s, c))
    hull, cuts = cinf._lower_envelope(sorted(best.items(), reverse=True))
    for x in xs:
        if hull:
            s, c = hull[bisect.bisect_left(cuts, x)]
            assert c + s * x == min(c + s * x for s, c in best.items())
