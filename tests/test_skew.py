import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab.cinf import INF, CInfApprox, FieldConfig
from drinfeldlab.errors import ConfigError, DrinfeldLabError
from drinfeldlab.skew import SigmaPoly, SkewPoly


def _random_poly(cfg, rng, degree, exp_scale):
    """Coefficients mix constants and monomials whose exponents stay on the
    grid under inverse twists up to depth 2*degree."""
    coeffs = []
    for _ in range(degree + 1):
        c = cfg.from_coeff(rng.randrange(cfg.field.size)) \
            + cfg.monomial(exp_scale * rng.randrange(-1, 2),
                           rng.randrange(cfg.field.size))
        coeffs.append(c)
    return SkewPoly(cfg, coeffs)


def test_ore_law(cfg_small):
    tau = SkewPoly.from_list(cfg_small, [0, 1])
    c = cfg_small.from_coeff(5)
    prod = tau * SkewPoly(cfg_small, [c])
    assert prod.coeff(0).is_exact_zero()
    assert (prod.coeff(1) - c.frobenius(1)).is_exact_zero()


def test_carlitz_square(cfg_small):
    # (theta + tau)^2 = theta^2 + (theta + theta^q) tau + tau^2
    th = cfg_small.theta()
    Ct = SkewPoly(cfg_small, [th, cfg_small.one()])
    sq = Ct * Ct
    assert (sq.coeff(0) - th * th).is_exact_zero()
    assert (sq.coeff(1) - (th + th.frobenius(1))).is_exact_zero()
    assert (sq.coeff(2) - cfg_small.one()).is_exact_zero()


def test_multiplicative_identity(cfg_small):
    th = cfg_small.theta()
    f = SkewPoly(cfg_small, [th, cfg_small.one(), th * th])
    assert f * SkewPoly.from_list(cfg_small, [1]) == f


def test_adjoint_examples(cfg_small):
    c = cfg_small.from_coeff(5)
    f = SkewPoly(cfg_small, [cfg_small.zero(INF), c])
    fs = f.adjoint()
    assert isinstance(fs, SigmaPoly)
    assert (fs.coeff(1) - c.frobenius(-1)).is_exact_zero()
    # constants are fixed
    g = SkewPoly(cfg_small, [c])
    assert (g.adjoint().coeff(0) - c).is_exact_zero()


def test_adjoint_antihomomorphism(cfg_small):
    rng = random.Random(7)
    scale = cfg_small.q ** 8
    for _ in range(100):
        f = _random_poly(cfg_small, rng, rng.randrange(4), scale)
        g = _random_poly(cfg_small, rng, rng.randrange(4), scale)
        lhs = (f * g).adjoint()
        rhs = g.adjoint() * f.adjoint()
        assert lhs == rhs
        assert (f + g).adjoint() == f.adjoint() + g.adjoint()


def test_adjoint_round_trip(cfg_small):
    rng = random.Random(8)
    f = _random_poly(cfg_small, rng, 3, cfg_small.q ** 8)
    assert f.adjoint().adjoint() == f


def test_ore_associativity(cfg_small):
    rng = random.Random(9)
    scale = cfg_small.q ** 8
    for _ in range(40):
        f = _random_poly(cfg_small, rng, 2, scale)
        g = _random_poly(cfg_small, rng, 3, scale)
        h = _random_poly(cfg_small, rng, 2, scale)
        assert (f * g) * h == f * (g * h)


def test_eval_examples(cfg_small):
    tau = SkewPoly.from_list(cfg_small, [0, 1])
    c = cfg_small.from_coeff(7)
    assert (tau(c) - c.frobenius(1)).is_exact_zero()
    Ct = SkewPoly(cfg_small, [cfg_small.theta(), cfg_small.one()])
    assert Ct(cfg_small.zero(INF)).is_exact_zero()


def test_eval_is_ring_action(cfg_small):
    rng = random.Random(10)
    scale = cfg_small.q ** 8
    for _ in range(25):
        f = _random_poly(cfg_small, rng, 2, scale)
        g = _random_poly(cfg_small, rng, 2, scale)
        x = cfg_small.theta(-1) + cfg_small.from_coeff(rng.randrange(9))
        assert ((f * g)(x) - f(g(x))).is_exact_zero()


def test_eval_is_fq_linear(cfg_small):
    rng = random.Random(14)
    f = _random_poly(cfg_small, rng, 2, cfg_small.q ** 8)
    x = cfg_small.theta(-1)
    y = cfg_small.one() + cfg_small.theta(-2)
    assert (f(x + y) - (f(x) + f(y))).is_exact_zero()
    for c in cfg_small.field.base_field_elements():
        assert (f(x.scale(c)) - f(x).scale(c)).is_exact_zero()


def test_mixing_rings_rejected(cfg_small):
    tau = SkewPoly.from_list(cfg_small, [0, 1])
    sigma = tau.adjoint()
    with pytest.raises(ConfigError):
        tau * sigma


# -- products and evaluation against the term-by-term loops the kernel replaced


def _ref_ore_mul(f, g):
    cfg = f.cfg
    if f.is_zero() or g.is_zero():
        return type(f)(cfg, [])
    out = [cfg.zero(INF) for _ in range(len(f.coeffs) + len(g.coeffs) - 1)]
    for i, a in enumerate(f.coeffs):
        if a.is_exact_zero():
            continue
        for j, b in enumerate(g.coeffs):
            if b.is_exact_zero():
                continue
            out[i + j] = out[i + j] + a * b.frobenius(f.sign * i)
    return type(f)(cfg, out)


def _ref_eval(f, x):
    acc = f.cfg.zero(INF)
    for i, a in enumerate(f.coeffs):
        if a.is_exact_zero():
            continue
        acc = acc + a * x.frobenius(f.sign * i)
    return acc


def _same(x, y):
    return x.terms == y.terms and x.prec == y.prec


def _same_poly(f, g):
    return type(f) is type(g) and len(f.coeffs) == len(g.coeffs) and \
        all(_same(a, b) for a, b in zip(f.coeffs, g.coeffs))


def _ore_cfgs(cfg_small):
    """cfg_small's F_9 (q = 3), F_625 (q = 5) and F_81 over q = 9 (s = 2),
    each with a partner grid of twice the e, whose values the product must
    refuse to mix with the first's."""
    cfgs = [cfg_small, FieldConfig(5, 1, 4), FieldConfig(3, 2, 2)]
    return [(cfg, FieldConfig(cfg.p, cfg.s, cfg.m, e=2 * cfg.e))
            for cfg in cfgs]


@st.composite
def _ore_coeff(draw, cfg):
    """An exact, finite-precision, zero-to-precision or exact-zero value.
    Exponents are multiples of 1, p or q^3, so a sigma twist by up to 3
    steps may or may not stay on the grid, and precisions fall anywhere,
    so a sigma precision is often not a multiple of the twist."""
    kind = draw(st.sampled_from(["exact", "finite", "zero-to-prec",
                                 "exact-zero"]))
    if kind == "exact-zero":
        return cfg.zero(INF)
    step = draw(st.sampled_from([1, cfg.p, cfg.q ** 3, cfg.q ** 3]))
    prec = draw(st.integers(-4 * step, 8 * step))
    if kind == "zero-to-prec":
        return cfg.zero(prec)
    terms = draw(st.dictionaries(st.integers(-3, 6).map(lambda k: k * step),
                                 st.integers(1, cfg.field.size - 1),
                                 min_size=1, max_size=4))
    return CInfApprox(cfg, terms, INF if kind == "exact" else prec)


def _outcome(fn):
    """("ok", the value's (terms, prec) or the polynomial's class and
    coefficients as (terms, prec)), or the error's class, message, hint
    and needed_factor."""
    try:
        f = fn()
    except DrinfeldLabError as exc:
        return (type(exc), str(exc), exc.hint,
                getattr(exc, "needed_factor", None))
    if isinstance(f, CInfApprox):
        return ("ok", f.terms, f.prec)
    return ("ok", type(f), [(c.terms, c.prec) for c in f.coeffs])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_ore_products_match_reference_loops(cfg_small, data):
    cfg, other = data.draw(st.sampled_from(_ore_cfgs(cfg_small)))
    cls = data.draw(st.sampled_from([SkewPoly, SigmaPoly]))
    f, g = [cls(cfg, data.draw(st.lists(_ore_coeff(cfg), min_size=1,
                                        max_size=4)))
            for _ in range(2)]
    got = _outcome(lambda: f * g)
    assert got == _outcome(lambda: _ref_ore_mul(f, g))
    x = data.draw(_ore_coeff(cfg))
    assert _outcome(lambda: f(x)) == _outcome(lambda: _ref_eval(f, x))
    # g over a grid of twice the e: the twists come first, so a coarse
    # twist still raises GridTooCoarse; else two nonzero operands raise
    # ConfigError
    g2 = cls(other, [CInfApprox(other, c.terms, c.prec) for c in g.coeffs])
    mixed = _outcome(lambda: f * g2)
    if got[0] != "ok":
        assert mixed == got
    elif f.is_zero() or g.is_zero():
        assert mixed[0] == "ok"
    else:
        assert mixed[0] is ConfigError


@pytest.mark.parametrize("name", ["ctx3", "ctx5"])
def test_ore_products_match_reference_loops_on_modules(name, request):
    ctx = request.getfixturevalue(name)
    rho = ctx.module.skew()
    lat = ctx.lattice
    for f, g in [(rho, rho), (rho.adjoint(), rho.adjoint())]:
        assert _same_poly(f * g, _ref_ore_mul(f, g))
    for x in (lat.omega1, lat.omega2, lat.towers[0].chain[0]):
        assert _same(rho(x), _ref_eval(rho, x))
