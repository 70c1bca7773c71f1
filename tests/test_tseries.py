import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab.cinf import INF, CInfApprox
from drinfeldlab.errors import (ConfigError, DivergentEvaluation,
                                PrecisionExhausted, ShapeMismatch)
from drinfeldlab.motive import difference_residual
from drinfeldlab.tseries import TMatrix, TSeries


def _random_series(cfg, rng, T):
    return TSeries(cfg, [cfg.theta(rng.randrange(-1, 2))
                         .scale(rng.randrange(1, cfg.field.size))
                         for _ in range(T)], tail=0)


def _random_t_multiple(cfg, rng, T):
    """t times a random series of length T, cut back to T: one exact zero
    in front, then truncate, which folds the last coefficient into the
    tail."""
    F = _random_series(cfg, rng, T)
    return TSeries(cfg, [cfg.zero(INF)] + F.coeffs, F.tail).truncate(T)


def test_twist_examples(cfg_small):
    F = TSeries(cfg_small, [cfg_small.zero(INF), cfg_small.theta(-1)],
                tail=INF)
    G = F.twist(1)
    assert G.coeff(1).terms == {54: 1}
    # zero twist is the identity
    assert F.twist(0) is F
    with pytest.raises(ConfigError):
        F.twist(-1)


@pytest.mark.parametrize("tail", [None, INF, 5])
def test_scale_by_exact_one_keeps_the_coefficients(cfg_small, tail):
    cfg = cfg_small
    F = TSeries(cfg, [cfg.theta(-1).scale(2), CInfApprox(cfg, {3: 1}, 40),
                      cfg.zero(INF), cfg.zero(7)], tail)
    G = F.scale(cfg.one())
    # the same values, precisions and tail
    assert G.tail == tail
    assert [(x.terms, x.prec) for x in G.coeffs] == \
        [(x.terms, x.prec) for x in F.coeffs]
    # an inexact one is a product, and a one over another config raises
    one = CInfApprox(cfg, {0: 1}, 20)
    assert [x.prec for x in F.scale(one).coeffs] == \
        [(one * x).prec for x in F.coeffs] == [38, 23, INF, 7]
    other = type(cfg)(3, 1, 4, e=72, prec=240)
    with pytest.raises(ConfigError):
        F.scale(other.one())


def test_truncate_folds_dropped_coefficients_into_tail(cfg_small):
    th = cfg_small.theta()
    poly = TSeries.from_poly(cfg_small, [cfg_small.one(), th.frobenius(-1),
                                         cfg_small.theta(-2), th])
    cut = poly.truncate(2)
    assert cut.T == 2 and cut.tail == -cfg_small.e
    with pytest.raises(PrecisionExhausted):
        cut.coeff(2)
    padded = poly.truncate(6)
    assert padded.tail == INF and padded.coeff(5).is_exact_zero()
    # a truncated series keeps the lower of its tail and the dropped
    # coefficients; no tail stays no tail
    s = TSeries(cfg_small, poly.coeffs[:3], 10)
    assert s.truncate(1).tail == min(10, -cfg_small.e // 3)
    assert s.truncate(2).tail == 10
    assert TSeries(cfg_small, poly.coeffs, None).truncate(1).tail is None
    zeros = TSeries.from_poly(cfg_small, [cfg_small.one(),
                                          cfg_small.zero(INF)])
    assert zeros.truncate(1).tail == INF


def test_twist_is_ring_homomorphism(cfg_small):
    rng = random.Random(3)
    for _ in range(25):
        A = _random_series(cfg_small, rng, 6)
        B = _random_series(cfg_small, rng, 6)
        L = (A * B).twist(1)
        R = A.twist(1) * B.twist(1)
        for i in range(L.T):
            assert (L.coeff(i) - R.coeff(i)).is_apparent_zero() or \
                (L.coeff(i) - R.coeff(i)).is_exact_zero()


def test_polynomial_specialize_anywhere(cfg_small):
    th = cfg_small.theta()
    F = TSeries.from_poly(cfg_small, [1, 1])  # 1 + t
    v = F.specialize(th)
    assert (v - (cfg_small.one() + th)).is_exact_zero()
    assert (F.specialize(cfg_small.zero(INF))
            - cfg_small.one()).is_exact_zero()


def test_series_specialize_needs_certificate(cfg_small):
    th = cfg_small.theta()
    F = TSeries(cfg_small, [cfg_small.one()] * 4, tail=None)
    with pytest.raises(DivergentEvaluation):
        F.specialize(th)
    G = TSeries(cfg_small, [cfg_small.one()] * 4, tail=100)
    with pytest.raises(DivergentEvaluation):
        G.specialize(th)  # |theta| > 1 is out of the certified disc
    v = G.specialize(cfg_small.theta(-1))
    assert v.prec == 100 + 4 * 18


def test_series_division(cfg_small):
    one = cfg_small.one()
    A = TSeries(cfg_small, [one, cfg_small.theta(-1), cfg_small.theta(-2)],
                tail=54)
    Q = TSeries.constant(cfg_small, one).truncate(3).divide(A)
    chk = Q * A
    assert (chk.coeff(0) - one).is_exact_zero() or \
        (chk.coeff(0) - one).is_apparent_zero()
    assert chk.coeff(1).is_apparent_zero()
    assert chk.coeff(2).is_apparent_zero()


def test_matrix_identities(cfg_small):
    I2 = TMatrix.identity(cfg_small, 2)
    K = I2.kronecker(I2)
    assert K.shape == (4, 4)
    for i in range(4):
        for j in range(4):
            want = cfg_small.one() if i == j else cfg_small.zero(INF)
            assert (K.entry(i, j).coeff(0) - want).is_exact_zero()


def test_phi_determinant(cfg_small):
    # det [[0, 1], [t - theta, -kappa]] = -(t - theta)
    tm = TSeries.t_minus_theta(cfg_small)
    zero = TSeries.constant(cfg_small, cfg_small.zero(INF))
    one = TSeries.constant(cfg_small, cfg_small.one())
    Phi = TMatrix([[zero, one],
                   [tm, TSeries.constant(cfg_small, -cfg_small.one())]])
    d = Phi.det()
    ref = -tm
    for i in range(2):
        assert (d.coeff(i) - ref.coeff(i)).is_exact_zero()


def test_matrix_inverse_via_division(cfg_small):
    # A * A^{-1} = I for an invertible 2x2 sample, entrywise through T
    rng = random.Random(4)
    one = TSeries.constant(cfg_small, cfg_small.one()).truncate(4)
    zero = TSeries.constant(cfg_small, cfg_small.zero(INF)).truncate(4)
    A = TMatrix([[one + _random_t_multiple(cfg_small, rng, 4),
                  _random_t_multiple(cfg_small, rng, 4)],
                 [_random_t_multiple(cfg_small, rng, 4),
                  one + _random_t_multiple(cfg_small, rng, 4)]])
    det = A.det().truncate(4)
    adj = TMatrix([[A.entry(1, 1), -A.entry(0, 1)],
                   [-A.entry(1, 0), A.entry(0, 0)]])
    inv = TMatrix([[adj.entry(i, j).truncate(4).divide(det)
                    for j in range(2)] for i in range(2)])
    P = A * inv
    for i in range(2):
        for j in range(2):
            want = cfg_small.one() if i == j else cfg_small.zero(INF)
            d = P.entry(i, j).coeff(0) - want
            assert d.is_apparent_zero() or d.is_exact_zero()
            for k in range(1, 4):
                assert P.entry(i, j).coeff(k).is_apparent_zero()


def test_twist_commutes_with_matrix_product(cfg_small):
    rng = random.Random(5)
    M = TMatrix([[_random_series(cfg_small, rng, 4) for _ in range(2)]
                 for _ in range(2)])
    N = TMatrix([[_random_series(cfg_small, rng, 4) for _ in range(2)]
                 for _ in range(2)])
    assert ((M * N).twist(1) - M.twist(1) * N.twist(1)).is_zero_to(10 ** 9)


def test_shape_mismatch(cfg_small):
    I2 = TMatrix.identity(cfg_small, 2)
    I3 = TMatrix.identity(cfg_small, 3)
    with pytest.raises(ShapeMismatch):
        I2 * I3
    with pytest.raises(ShapeMismatch):
        TMatrix([I2.rows[0], I3.rows[0]])


# -- products against the product-by-product loops the kernel replaced ---------


def _ref_len(x, y, conv=False):
    la = INF if x.tail == INF else x.T
    lb = INF if y.tail == INF else y.T
    n = min(la, lb)
    if conv and n == INF:
        n = x.T + y.T - 1
    if n == INF:
        n = max(x.T, y.T)
    return int(n)


def _ref_series_mul(x, y):
    """x * y with each coefficient product formed and added on its own."""
    cfg = x.cfg
    n = _ref_len(x, y, conv=True)
    out = [cfg.zero(INF) for _ in range(n)]
    for i in range(min(x.T, n)):
        a = x.coeffs[i]
        if a.is_exact_zero():
            continue
        for j in range(min(y.T, n - i)):
            b = y.coeffs[j]
            if b.is_exact_zero():
                continue
            out[i + j] = out[i + j] + a * b
    tail = None
    if x.tail is not None and y.tail is not None:
        va = min([c.vbound() for c in x.coeffs] + [x.tail])
        vb = min([c.vbound() for c in y.coeffs] + [y.tail])
        tail = min(x.tail + vb, y.tail + va)
        # the known pairs that land past the output are dropped too
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                if i + j >= n:
                    tail = min(tail, a.vbound() + b.vbound())
    return TSeries(cfg, out, tail)


def _ref_matrix_mul(A, B):
    """A * B as a sum of series products, added one at a time."""
    n, k = A.shape
    m = B.shape[1]
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = _ref_series_mul(A.rows[i][0], B.rows[0][j])
            for l in range(1, k):
                acc = acc + _ref_series_mul(A.rows[i][l], B.rows[l][j])
            row.append(acc)
        rows.append(row)
    return TMatrix(rows)


def _assert_same_series(got, want):
    assert got.T == want.T and got.tail == want.tail
    for a, b in zip(got.coeffs, want.coeffs):
        assert a.terms == b.terms and a.prec == b.prec


def _assert_same_matrix(got, want):
    assert got.shape == want.shape
    for ra, rb in zip(got.rows, want.rows):
        for a, b in zip(ra, rb):
            _assert_same_series(a, b)


def _mixed_series(cfg, rng):
    """Random length and tail (none, exact, finite); coefficients include
    exact zeros and zeros to precision."""
    coeffs = []
    for _ in range(rng.randrange(0, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            coeffs.append(cfg.zero(INF))
        elif kind == 1:
            coeffs.append(cfg.zero(rng.randrange(-20, 60)))
        else:
            terms = {rng.randrange(-20, 60): rng.randrange(1, cfg.field.size)
                     for _ in range(rng.randrange(1, 6))}
            prec = INF if kind == 2 else rng.randrange(-20, 80)
            coeffs.append(CInfApprox(cfg, terms, prec))
    return TSeries(cfg, coeffs, rng.choice([None, INF, rng.randrange(0, 60)]))


def test_products_match_reference_loops_random(cfg_small):
    rng = random.Random(81)
    for _ in range(300):
        x, y = _mixed_series(cfg_small, rng), _mixed_series(cfg_small, rng)
        _assert_same_series(x * y, _ref_series_mul(x, y))
    for n, k, m in [(2, 2, 2), (1, 3, 2), (3, 1, 1)] * 20:
        A = TMatrix([[_mixed_series(cfg_small, rng) for _ in range(k)]
                     for _ in range(n)])
        B = TMatrix([[_mixed_series(cfg_small, rng) for _ in range(m)]
                     for _ in range(k)])
        _assert_same_matrix(A * B, _ref_matrix_mul(A, B))


def _exact_zero_series(cfg):
    return TSeries.constant(cfg, cfg.zero(INF))


def test_products_with_exact_zero_entries_match_reference_loops(cfg_small):
    # whole exact-zero entries, as the block systems and the identity hold
    # them: every pair through such an entry is left out of the product
    rng = random.Random(83)

    def entry():
        if rng.randrange(3) == 0:
            return _exact_zero_series(cfg_small)
        return _mixed_series(cfg_small, rng)

    for _ in range(200):
        x, y = entry(), entry()
        _assert_same_series(x * y, _ref_series_mul(x, y))
    for n, k, m in [(2, 2, 2), (3, 3, 3), (1, 3, 2), (3, 1, 1)] * 15:
        A = TMatrix([[entry() for _ in range(k)] for _ in range(n)])
        B = TMatrix([[entry() for _ in range(m)] for _ in range(k)])
        _assert_same_matrix(A * B, _ref_matrix_mul(A, B))
    zero = TMatrix([[_exact_zero_series(cfg_small)] * 2] * 2)
    I = TMatrix.identity(cfg_small, 2)
    for A, B in [(zero, zero), (zero, I), (I, I)]:
        _assert_same_matrix(A * B, _ref_matrix_mul(A, B))


def test_frob_p_of_exact_zero_is_the_exact_zero(cfg_small):
    # a padded exact polynomial twists its zeros without copying them: the
    # value is the one the termwise copy gave, {} to precision INF
    zero = cfg_small.zero(INF)
    for k in range(-3, 4):
        z = zero.frob_p(k)
        assert z is zero and z.terms == {} and z.prec == INF
        assert zero.frobenius(k) is zero
    # a zero to precision still moves its precision, rounded up under an
    # inverse twist
    assert cfg_small.zero(10).frob_p(1).prec == 30
    assert cfg_small.zero(10).frob_p(-1).prec == 4
    padded = TSeries.from_poly(cfg_small, [cfg_small.theta()]).truncate(4)
    _assert_same_series(padded.twist(2), TSeries(
        cfg_small, [cfg_small.theta(9)] + [zero] * 3, INF))


def test_product_tail_holds_the_dropped_pairs(cfg_small):
    # (1 + t)^2 over F_9 known to t^2 with tail 100: the dropped t^2
    # coefficient is 1, so the value at t = 1, 1 + 2 = 0 from the kept
    # coefficients, is known to valuation 0 only; the true value is 4 = 1
    cfg = cfg_small
    x = TSeries(cfg, [cfg.one(), cfg.one()], 100)
    sq = x * x
    assert sq.T == 2 and sq.tail == 0
    value = sq.specialize(cfg.one())
    assert value.prec == 0 and not value.terms
    assert (value - cfg.one()).vbound() >= value.prec


@pytest.mark.parametrize("name", ["ctx3", "ctx5"])
def test_products_match_reference_loops_on_psi(name, request):
    # the inputs of Psi = xi Omega [[...]] and of Psi - Phi^(1) Psi^(1)
    mot = request.getfixturevalue(name).motive()
    T, k = mot.T, mot.module.kappa
    f1, f2 = mot.agf1.series(T), mot.agf2.series(T)
    scale = mot.omega.product.truncate(T).scale(mot.xi)
    for f in (f1, f2):
        f_1, f_2 = f.twist(1), f.twist(2)
        for a in (-f_1, f_1.scale(k) + f_2):
            _assert_same_series(scale * a, _ref_series_mul(scale, a))
    psi = TMatrix([[a.truncate(T) for a in r] for r in mot.psi.rows])
    for A, B in [(mot.phi.twist(1), psi.twist(1)), (psi, psi)]:
        _assert_same_matrix(A * B, _ref_matrix_mul(A, B))
    # Phi (x) Phi against Psi (x) Psi, as the tensor-square residual forms
    # them, and the block shape [[Phi, 0], [A, I]] of the log layer with
    # A = (alpha, 0): whole exact-zero entries on both sides
    cfg = mot.cfg
    phi2, psi2 = mot.phi.kronecker(mot.phi), psi.kronecker(psi)
    for A, B in [(phi2.twist(1), psi2.twist(1)), (phi2, phi2)]:
        _assert_same_matrix(A * B, _ref_matrix_mul(A, B))
    zero, one = _exact_zero_series(cfg), TSeries.constant(cfg, cfg.one())
    alpha = TSeries.constant(cfg, cfg.theta(-1))
    block = TMatrix([r + [zero] for r in mot.phi.rows]
                    + [[alpha, zero, one]])
    lower = TMatrix([r + [zero] for r in psi.rows]
                    + [[psi.rows[0][0], psi.rows[1][1], one]])
    for A, B in [(block.twist(1), lower.twist(1)), (block, block)]:
        _assert_same_matrix(A * B, _ref_matrix_mul(A, B))


# -- the kept valuation summaries against the reference loops --------------


def _ref_kronecker(A, B):
    """A (x) B with every entry product formed by the reference loop."""
    return TMatrix([[_ref_series_mul(a, b) for a in ra for b in rb]
                    for ra in A.rows for rb in B.rows])


def _ref_difference_residual(phi, psi, T):
    """psi - phi^(1) psi^(1) through T, the product by the reference loop."""
    psi = TMatrix([[a if a.T <= T else a.truncate(T) for a in r]
                   for r in psi.rows])
    return (psi - _ref_matrix_mul(phi.twist(1), psi.twist(1))).truncate(T)


def _draw_coefficient(data, cfg):
    kind = data.draw(st.sampled_from(["exact", "inexact", "zero to prec",
                                      "exact zero"]))
    if kind == "exact zero":
        return cfg.zero(INF)
    if kind == "zero to prec":
        return cfg.zero(data.draw(st.integers(-20, 80)))
    terms = data.draw(st.dictionaries(
        st.integers(-20, 60), st.integers(1, cfg.field.size - 1),
        min_size=1, max_size=5))
    if kind == "exact":
        return CInfApprox(cfg, terms, INF)
    return CInfApprox(cfg, terms, data.draw(st.integers(min(terms) + 1, 81)))


def _draw_series(data, cfg):
    n = data.draw(st.integers(0, 20))
    tail = data.draw(st.one_of(st.none(), st.just(INF),
                               st.integers(-20, 80)))
    return TSeries(cfg, [_draw_coefficient(data, cfg) for _ in range(n)],
                   tail)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_kept_summaries_match_reference_loops(cfg_small, data):
    # a pool of three series, each an operand of many products on both
    # sides and in several shapes, so that a product reads the summary an
    # earlier one kept: series products, matrix products, Kronecker
    # products and the difference residual against the reference loops,
    # which keep nothing
    cfg = cfg_small
    pool = [_draw_series(data, cfg) for _ in range(3)]

    def pick():
        return pool[data.draw(st.integers(0, len(pool) - 1))]

    def matrix(n, m):
        return TMatrix([[pick() for _ in range(m)] for _ in range(n)])

    for x in pool:
        assert x.min_vbound() == min([c.vbound() for c in x.coeffs] + [INF])
    for x in pool:
        for y in pool:
            _assert_same_series(x * y, _ref_series_mul(x, y))
    for n, k, m in [(2, 2, 2), (1, 2, 3), (3, 1, 2)]:
        A, B = matrix(n, k), matrix(k, m)
        _assert_same_matrix(A * B, _ref_matrix_mul(A, B))
        _assert_same_matrix(A.kronecker(B), _ref_kronecker(A, B))
    phi, psi = matrix(2, 2), matrix(2, 2)
    T = data.draw(st.integers(0, 20))
    _assert_same_matrix(difference_residual(phi, psi, T),
                        _ref_difference_residual(phi, psi, T))
    for x in pool:
        assert x.min_vbound() == min([c.vbound() for c in x.coeffs] + [INF])
