"""The generic root finder for dense polynomials over K_{m,e}: the oracle
the torsion tests compare drinfeldlab.roots against.

The library once found torsion points with it; it is kept here as an
independent reference, with torsion_polynomial(module) giving the dense
rho_t(x)/x it was run on.

Convention: for f = sum a_i X^i the polygon is the lower convex hull of the
points (i, v(a_i)) (grid-unit valuations).  A segment of slope s and
horizontal length L certifies L roots of valuation -s.  Slopes are exact
Fractions; a root can only be represented when its slope is an integer
number of grid units, otherwise GridTooCoarse reports the missing divisor.

Roots are located by the classical descent: each segment yields a residual
polynomial over F_{q^m}; a simple residual root gives a Newton-ready seed,
a multiple residual root shifts the polynomial and recurses on the strictly
smaller slopes.  Root differences of the separable polynomials that appear
here are bounded away from each other, so the descent terminates.  Every
root, at every descent level, must make the top-level polynomial vanish to
the pass threshold, as the library certifies its roots.
"""

import math

from drinfeldlab.cinf import INF, dot
from drinfeldlab.errors import (DrinfeldLabError, GridTooCoarse,
                                IndeterminateValuation, NoConvergence,
                                ResidueFieldTooSmall)

_MAX_NEWTON_ITER = 64
_MAX_DESCENT = 32


class NewtonPolygon:
    """Lower hull of coefficient valuations.

    segments: list of (slope, length) with slope an exact Fraction in grid
    units and strictly increasing; ord0 counts exact-zero low coefficients
    (roots at the origin are not certified by the polygon).
    """

    def __init__(self, segments, ord0, degree):
        self.segments = segments
        self.ord0 = ord0
        self.degree = degree

    def root_valuations(self):
        """Multiset of certified root valuations as (valuation, count)."""
        return [(-s, l) for s, l in self.segments]

    def theta_slopes(self, e):
        from fractions import Fraction
        return [(Fraction(s) / e, l) for s, l in self.segments]

    def __repr__(self):
        return "NewtonPolygon(%s, ord0=%d)" % (self.segments, self.ord0)


def torsion_polynomial(module):
    """rho_t(x)/x as a dense list, whose roots are the nonzero t-torsion
    points of module."""
    cfg = module.cfg
    q = cfg.q
    coeffs = [cfg.zero(INF) for _ in range(q ** module.rank)]
    coeffs[0] = cfg.theta()
    coeffs[q - 1] = module.kappa
    if module.rank == 2:
        coeffs[q * q - 1] = module.u
    return coeffs


def _outcome(compute):
    """(points as (terms, prec) in torsion_points' order, failure records),
    or the error record when the computation raises."""
    key = lambda r: (r.valuation(), r.leading()[1])
    try:
        points, failures = compute()
    except DrinfeldLabError as ex:
        return ex.record()
    return [(r.terms, r.prec) for r in sorted(points, key=key)], failures


def assert_torsion_matches(module):
    """module.torsion_points, full and partial, equal this finder's roots of
    torsion_polynomial(module) exactly: terms, precisions, failure records
    and errors.  Returns the finder's (full, partial) outcomes."""
    g = torsion_polynomial(module)
    want_full = _outcome(lambda: (all_nonzero_roots(g), []))
    want_partial = _outcome(lambda: partial_nonzero_roots(g))
    assert _outcome(lambda: (module.torsion_points(), [])) == want_full
    assert _outcome(lambda: module.torsion_points(partial=True)) == \
        want_partial
    return want_full, want_partial


def _coefficient_points(coeffs):
    """(index, valuation) for determinate coefficients; precision floor of
    the indeterminate ones so the hull can be certified against them."""
    pts = []
    indeterminate = []
    for i, a in enumerate(coeffs):
        if a is None or a.is_exact_zero():
            continue
        if a.is_apparent_zero():
            indeterminate.append((i, a.prec))
        else:
            pts.append((i, a.valuation()))
    return pts, indeterminate


def newton_polygon(coeffs):
    """Polygon of a polynomial given as a dense list of CInfApprox."""
    from fractions import Fraction
    pts, indet = _coefficient_points(coeffs)
    if not pts:
        raise IndeterminateValuation("all coefficients are zero to precision")
    ord0 = pts[0][0]
    degree = pts[-1][0]
    for i, p in indet:
        if i > degree:
            raise IndeterminateValuation(
                "coefficient %d is zero to precision %s but would raise the "
                "degree" % (i, p))
    # lower hull with strictly increasing slopes
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if Fraction(y2 - y1, x2 - x1) >= Fraction(pt[1] - y1, pt[0] - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = [(Fraction(y2 - y1, x2 - x1), x2 - x1)
                for (x1, y1), (x2, y2) in zip(hull, hull[1:])]

    def hull_value(i):
        for k, ((x1, y1), (x2, y2)) in enumerate(zip(hull, hull[1:])):
            if (x1 <= i or k == 0) and i <= x2:
                return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (i - x1)
        return None

    # every coefficient must be known strictly below any level where it
    # could disturb the hull; left of the hull, the first edge extended
    for i, p in indet:
        hv = hull_value(i)
        if hv is not None and p <= hv:
            raise IndeterminateValuation(
                "coefficient %d known only to precision %s, hull needs > %s"
                % (i, p, hv))
    return NewtonPolygon(segments, ord0, degree)


def hull_edges(coeffs):
    """Edges ((i0, v0), (i1, v1)) of the lower hull of {index: CInfApprox},
    in increasing slope, by integer cross products: roots._segments as the
    library once computed it, kept as the oracle for its hull read off
    the dual lines' lower envelope.  A coefficient zero only to its
    precision must lie strictly above the hull (left of it, the first edge
    extended), else IndeterminateValuation with the library's message."""
    from fractions import Fraction
    pts, loose = [], []
    for i in sorted(coeffs):
        a = coeffs[i]
        if a.is_exact_zero():
            continue
        if a.is_apparent_zero():
            loose.append((i, a.prec))
        else:
            pts.append((i, a.valuation()))
    hull = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) < (y - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append((x, y))
    edges = list(zip(hull, hull[1:]))
    for i, p in loose:
        for k, ((x1, y1), (x2, y2)) in enumerate(edges):
            line = y1 * (x2 - x1) + (y2 - y1) * (i - x1)
            if (x1 <= i or k == 0) and i <= x2 and p * (x2 - x1) <= line:
                what = "rho_t(x0)" if i == 0 else "coefficient %d" % (i - 1)
                raise IndeterminateValuation(
                    "%s known only to precision %s, hull needs > %s"
                    % (what, p, Fraction(line, x2 - x1)))
    return edges


# ---------------------------------------------------------------------------


def _pow_cache(x, cache, n):
    """x^n with memoized binary powering (n >= 0)."""
    if n in cache:
        return cache[n]
    if n % 2 == 0:
        half = _pow_cache(x, cache, n // 2)
        val = half * half
    else:
        val = _pow_cache(x, cache, n - 1) * x
    cache[n] = val
    return val


def _power_cache(x):
    return {0: x.cfg.one(), 1: x}


def poly_eval(coeffs, x, cache=None):
    """Evaluate a dense CInfApprox polynomial; skips structural zeros.

    cache, when given, is the power cache of x shared with other
    evaluations at the same x; each power x^n is built by one fixed chain,
    so sharing changes no value."""
    if cache is None:
        cache = _power_cache(x)
    return dot(x.cfg, [(a, _pow_cache(x, cache, i))
                       for i, a in enumerate(coeffs)
                       if a is not None and not a.is_exact_zero()])


def poly_derivative(coeffs):
    cfg = coeffs[0].cfg
    out = []
    for i, a in enumerate(coeffs[1:], start=1):
        out.append(a * (i % cfg.p))
    return out if out else [cfg.zero(prec=INF)]


def poly_shift(coeffs, x0):
    """Coefficients of f(x0 + h) as a polynomial in h."""
    cfg = x0.cfg
    p = cfg.p
    deg = len(coeffs) - 1
    cache = _power_cache(x0)
    pairs = [[] for _ in range(deg + 1)]
    for i, a in enumerate(coeffs):
        if a is None or a.is_exact_zero():
            continue
        for j in range(i + 1):
            b = math.comb(i, j) % p
            if b == 0:
                continue
            pairs[j].append((a if b == 1 else a * b,
                             _pow_cache(x0, cache, i - j)))
    return [dot(cfg, pr) for pr in pairs]


def newton_iterate(coeffs, seed, check_criterion=True):
    """Newton's method x <- x - f(x)/f'(x) from the seed.

    With check_criterion the classical condition |f(x0)| < |f'(x0)|^2 is
    required up front; it guarantees a unique root in the seed's disc.
    Returns (root, iterations).  An iterate whose residual valuation does
    not rise raises NoConvergence carrying that valuation.  A residual that
    is zero only to its precision caps the root at prec(f) - v(f'), the
    precision of the correction it stands for.
    """
    deriv = poly_derivative(coeffs)

    def f_and_deriv(x):
        cache = _power_cache(x)
        return poly_eval(coeffs, x, cache), poly_eval(deriv, x, cache)

    x = seed
    fx, dfx = f_and_deriv(x)
    if check_criterion:
        if dfx.is_apparent_zero():
            raise NoConvergence("derivative vanishes at the seed")
        if not fx.is_apparent_zero() and \
                fx.valuation() <= 2 * dfx.valuation():
            raise NoConvergence(
                "Newton criterion fails: v(f) = %s <= 2 v(f') = %s"
                % (fx.valuation(), 2 * dfx.valuation()))
    last = -INF
    for it in range(_MAX_NEWTON_ITER):
        if fx.is_apparent_zero():
            if fx.prec == INF:
                return x, it
            return x.truncate(min(x.prec, fx.prec - dfx.valuation())), it
        v = fx.valuation()
        if v <= last:
            # no progress: nothing bounds the distance to a root
            raise NoConvergence(
                "Newton iteration stalled at v(f) = %s after %d iterations"
                % (v, it), residual_valuation=v)
        last = v
        x = x - fx / dfx
        fx, dfx = f_and_deriv(x)
    raise NoConvergence("Newton iteration did not stabilize in %d steps"
                        % _MAX_NEWTON_ITER)


def hensel_root(coeffs, seed):
    """The unique root inside the seed's convergence disc.

    Requires the standard criterion |f(seed)| < |f'(seed)|^2; the result
    satisfies f(root) = 0 to the propagated working precision.
    """
    root, _ = newton_iterate(coeffs, seed, check_criterion=True)
    res = poly_eval(coeffs, root)
    target = seed.cfg.pass_threshold()
    if res.vbound() < target:
        raise NoConvergence(
            "root residual v = %s below certification threshold %d"
            % (res.vbound(), target))
    return root


def _segment_residual(coeffs, hull_i0, v0, slope, length):
    """Residual polynomial of a polygon segment, low degree first."""
    out = []
    for k in range(length + 1):
        i = hull_i0 + k
        line = v0 + slope * k
        a = coeffs[i] if i < len(coeffs) else None
        if line.denominator != 1 or a is None:
            out.append(0)
        else:
            out.append(a.terms.get(int(line), 0))
    return out


def _certified(top, x, what):
    """x, once the top-level polynomial top is zero at it to the pass
    threshold, as the library certifies each root at every level: v(x
    top(x)) - v(x), with x top(x) = rho_t(x) summed from the powers
    x^(i+1), whose p-th powers CInfApprox.__pow__ takes as exact twists.
    Summed from x^i instead, top(x) keeps only prec(x) + (i - 1) v(x) of
    u x^(q^2 - 1), below the additive rho_t's bound for roots of negative
    valuation.  x None, a root whose precision nothing bounds, never
    certifies, nor does a root that is zero to its precision."""
    cfg = top[0].cfg
    threshold = cfg.pass_threshold()
    if x is not None and not x.is_apparent_zero():
        rho_t = dot(cfg, [(a, x ** (i + 1)) for i, a in enumerate(top)
                          if a is not None and not a.is_exact_zero()])
        if rho_t.vbound() - x.valuation() >= threshold:
            return x
    raise NoConvergence("%s did not certify to threshold %d"
                        % (what, threshold))


def _segment_roots(coeffs, i0, v0, slope, length, depth, top, base):
    """All roots hanging off one polygon segment (descending clusters).

    coeffs is top shifted to the exact seed base, a polynomial in h; each
    root h is certified as the root base + h of top, at every level."""
    cfg = coeffs[-1].cfg
    if slope.denominator != 1:
        raise GridTooCoarse(
            "polygon slope %s is not integral on the grid" % slope,
            hint="multiply e by %d (repeated p-denominators at deeper "
                 "descent levels indicate wildly ramified roots with no "
                 "theta-power-grid expansion at all)" % slope.denominator,
            needed_factor=slope.denominator)
    lam = int(slope)
    residual = _segment_residual(coeffs, i0, v0, slope, length)
    roots = []
    found = 0
    for z, mult in cfg.field.poly_roots(residual):
        if z == 0:
            continue
        x0 = cfg.monomial(-lam, z)
        if mult == 1:
            # Newton is invariant under affine rescaling, so a simple
            # residual root converges without the raw magnitude test
            r, _ = newton_iterate(coeffs, x0, check_criterion=False)
            _certified(top, base + r, "root from residual class %d" % z)
            roots.append(r)
        else:
            # the cluster: h = 0 once per exact zero low coefficient (x0 is
            # then itself a root), or once when f(x0) is zero only to its
            # precision, known to prec(f) - v(f') as Newton caps it; and
            # the roots on the slopes below lam
            shifted = poly_shift(coeffs, x0)
            ord0 = next(i for i, a in enumerate(shifted)
                        if not a.is_exact_zero())
            sub = [cfg.zero(INF)] * ord0
            if ord0 == 0 and shifted[0].is_apparent_zero():
                # with f'(x0) zero to its precision too, nothing bounds it
                f1 = shifted[1]
                h = (cfg.zero(shifted[0].prec - f1.valuation())
                     if f1.terms else None)
                _certified(top, None if h is None else base + x0 + h,
                           "seed root at slope %d" % lam)
                sub.append(h)
            sub += all_nonzero_roots(shifted, depth + 1, below=lam, top=top,
                                     base=base + x0)
            if len(sub) != mult:
                raise NoConvergence(
                    "cluster descent found %d of %d roots at slope %d"
                    % (len(sub), mult, lam))
            roots.extend(x0 + h for h in sub)
        found += mult
    if found != length:
        raise ResidueFieldTooSmall(
            "segment of slope %d certifies %d roots but only %d residual "
            "roots lie in F_%d" % (lam, length, found, cfg.field.size),
            hint="increase the extension degree m")
    return roots


def _iter_segments(coeffs):
    from fractions import Fraction
    polygon = newton_polygon(coeffs)
    pts, _ = _coefficient_points(coeffs)
    vals = dict(pts)
    i0 = polygon.ord0
    v0 = Fraction(vals[i0])
    for slope, length in polygon.segments:
        yield i0, v0, slope, length
        i0 += length
        v0 += slope * length


def all_nonzero_roots(coeffs, depth=0, below=None, top=None, base=None):
    """All roots of the polynomial that are units times grid monomials.

    Every segment must have an integral slope (GridTooCoarse otherwise) and
    every residual equation must split over F_{q^m} (ResidueFieldTooSmall
    otherwise); multiplicities descend recursively, and every root, at
    every level, must certify (NoConvergence otherwise).  Returns a list of
    CInfApprox roots of length = degree - ord0, or, with below, only the
    roots on the segments of slope below it.  A descent level passes the
    top-level polynomial top and its shift base, against which it
    certifies.
    """
    if depth > _MAX_DESCENT:
        raise NoConvergence("root cluster descent exceeded %d levels"
                            % _MAX_DESCENT)
    if top is None:
        top, base = coeffs, coeffs[-1].cfg.zero(INF)
    roots = []
    for i0, v0, slope, length in _iter_segments(coeffs):
        if below is not None and slope >= below:
            break
        roots.extend(_segment_roots(coeffs, i0, v0, slope, length, depth,
                                    top, base))
    return roots


def partial_nonzero_roots(coeffs):
    """Like all_nonzero_roots, but collects per-segment failures instead of
    raising: returns (roots, failures) with failures a list of error
    records.  Used to salvage the representable part of a torsion module
    whose other part is wildly ramified."""
    base = coeffs[-1].cfg.zero(INF)
    roots = []
    failures = []
    for i0, v0, slope, length in _iter_segments(coeffs):
        try:
            roots.extend(_segment_roots(coeffs, i0, v0, slope, length, 0,
                                        coeffs, base))
        except (GridTooCoarse, NoConvergence, ResidueFieldTooSmall) as ex:
            failures.append({"slope": str(slope), "length": length,
                             **ex.record()})
    return roots, failures
