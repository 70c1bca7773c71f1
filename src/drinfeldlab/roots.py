"""The t-torsion of a Drinfeld module: the nonzero roots of
rho_t(x) = theta x + kappa x^q + u x^{q^2}.

Polygon.  For sum_i a_i x^i the Newton polygon is the lower convex hull of
the points (i, v(a_i)) in grid units.  A segment of slope s and length L
holds L roots of valuation -s; they lie on the grid only when s is an
integer, otherwise GridTooCoarse names the missing divisor.  rho_t has at
most three points, (1, -e), (q, v(kappa)) and (q^2, v(u)), so the hull
comes from integer cross products.  A coefficient that is zero only to its
precision (an inexact kappa = 0) must lie strictly above the hull, else
IndeterminateValuation.

Residual roots.  The residual polynomial of a segment has the leading
coefficients of its roots as roots, with their multiplicities.  On a
segment with (1, -e) as an end point every root is simple: with the
residual written from index 1, z R(z) is additive, so R + z R' = c_theta,
and z R'(z) = c_theta != 0 at a root; from index 0 the derivative is
c_theta itself.  A segment without (1, -e) has exponents 0, q, q^2 only
relative to its start, so its residual is a q-th power and every root is
multiple.

Descent.  A multiple residual root of slope s adds its monomial to the
seed x0 and descends: rho_t is additive, so rho_t(x0 + h) =
rho_t(x0) + rho_t(h), whose polygon has the one new point
(0, v(rho_t(x0))).  Its segments of slope below s hold the roots h of
valuation above -s, the cluster, and there must be as many as the
multiplicity (NoConvergence otherwise).  A rho_t(x0) that is zero,
exactly or to its precision P, makes x0 itself a root, h = 0, which the
polygon of rho_t(h) does not count: (0, P) is not a polygon point.  An
exact x0 is returned as it is; otherwise the root is known to P + e, for
the root h of rho_t(x0) + rho_t(h) nearest 0 has the valuation
v(rho_t(x0)) + e >= P + e of the segment from (0, v(rho_t(x0))) to
(1, -e).  That segment is on the hull because (0, P) lies strictly above
the line of the first edge, extended to index 0 (IndeterminateValuation
otherwise).

Refinement.  A simple residual root gives the exact seed x0, whose last
monomial has valuation v = -s, and exactly one root r with v(r - x0) > v.
It is refined by DrinfeldModule._contract with b = 0 from d = v + 1, at any
depth.  That d is a proven distance: r - x0 is the one root of
rho_t(x0) + rho_t(h) of valuation above v, so it has the integer valuation
v(rho_t(x0)) + e of the segment from (0, v(rho_t(x0))) to (1, -e).  And
the disc v(x - r) >= d contracts: the segment ends at (1, -e), so by
convexity (q, v(kappa)) and (q^2, v(u)) lie on or above the line of slope s
through it, v(kappa) >= -e + (q - 1) s and v(u) >= -e + (q^2 - 1) s, whence
min(v(kappa) + q d, v(u) + q^2 d) + e >= q - s > 1 - s = d, and both
bounds grow with d at rate at least q.  The root is cut at
P = min(v(rho_t(x0)) + e + rel_prec, prec(kappa) + q v0 + e,
prec(u) + q^2 v0 + e), v0 = v(x0): the first term is Newton's cap on
g = rho_t(x)/x (x g' = theta - g in characteristic p, so the first
correction g/g' has valuation v(rho_t(x0)) + e), the others the precision
a step's products keep.  An exact root x0 is returned as it is.  Each root
must pass v(rho_t(r)) - v(r) >= pass_threshold().

Newton's method stays for normalize's u x^{q^2 - 1} = 1, the one equation
here that is not additive.
"""

import math

from .cinf import INF, dot
from .errors import (GridTooCoarse, IndeterminateValuation, NoConvergence,
                     ResidueFieldTooSmall)

_MAX_NEWTON_ITER = 64
_MAX_DESCENT = 32


def _slope_text(dy, dx):
    """dy/dx in lowest terms, printed as a Fraction prints it."""
    g = math.gcd(dy, dx)
    return str(dy // g) if g == dx else "%d/%d" % (dy // g, dx // g)


def _segments(coeffs):
    """Edges ((i0, v0), (i1, v1)) of the lower hull of a polynomial given
    as {index: CInfApprox}, in increasing slope."""
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
            # the hull at i is line / (x2 - x1); left of the hull, the
            # first edge extended
            line = y1 * (x2 - x1) + (y2 - y1) * (i - x1)
            if (x1 <= i or k == 0) and i <= x2 and p * (x2 - x1) <= line:
                # numbered by the power of x in rho_t(x)/x, the polynomial
                # whose roots the torsion points are; index 0 is the
                # descent's rho_t(x0)
                what = "rho_t(x0)" if i == 0 else "coefficient %d" % (i - 1)
                raise IndeterminateValuation(
                    "%s known only to precision %s, hull needs > %s"
                    % (what, p, _slope_text(line, x2 - x1)))
    return edges


def _refine(module, x0, d, z):
    """The torsion point r with v(r - x0) >= d, x0 exact from the residual
    root z: _contract with b = 0, cut as the module docstring says."""
    cfg = module.cfg
    q, e = cfg.q, cfg.e
    rho = module.skew()
    v0 = x0.valuation()
    prec = min(rho(x0).vbound() + e + cfg.rel_prec,
               module.kappa.prec + q * v0 + e,
               module.u.prec + q * q * v0 + e)
    if prec == INF:
        return x0
    return _certified(module, module._contract(cfg.zero(INF), x0, d, prec),
                      "root from residual class %d" % z)


def _certified(module, r, what):
    """r, once v(rho_t(r)) - v(r) reaches the pass threshold."""
    threshold = module.cfg.pass_threshold()
    if r.is_apparent_zero() or \
            module.skew()(r).vbound() - r.valuation() < threshold:
        raise NoConvergence("%s did not certify to threshold %d"
                            % (what, threshold))
    return r


def _segment_roots(module, coeffs, edge, seed, depth):
    """The roots seed + h of rho_t for the roots h on one polygon edge of
    coeffs, the polynomial rho_t(seed) + rho_t(h)."""
    cfg = module.cfg
    (i0, v0), (i1, v1) = edge
    length = i1 - i0
    if (v1 - v0) % length:
        g = math.gcd(v1 - v0, length)
        raise GridTooCoarse(
            "polygon slope %s is not integral on the grid"
            % _slope_text(v1 - v0, length),
            hint="multiply e by %d (repeated p-denominators at deeper "
                 "descent levels indicate wildly ramified roots with no "
                 "theta-power-grid expansion at all)" % (length // g),
            needed_factor=length // g)
    lam = (v1 - v0) // length
    residual = [0] * (length + 1)
    for i, a in coeffs.items():
        if i0 <= i <= i1:
            residual[i - i0] = a.terms.get(v0 + lam * (i - i0), 0)
    roots = []
    found = 0
    for z, mult in cfg.field.poly_roots(residual):
        if z == 0:
            continue
        x0 = seed + cfg.monomial(-lam, z)
        if mult == 1:
            roots.append(_refine(module, x0, 1 - lam, z))
        else:
            sub = _cluster(module, x0, lam, depth + 1)
            if len(sub) != mult:
                raise NoConvergence(
                    "cluster descent found %d of %d roots at slope %d"
                    % (len(sub), mult, lam))
            roots.extend(sub)
        found += mult
    if found != length:
        raise ResidueFieldTooSmall(
            "segment of slope %d certifies %d roots but only %d residual "
            "roots lie in F_%d" % (lam, length, found, cfg.field.size),
            hint="increase the extension degree m")
    return roots


def _cluster(module, seed, lam, depth, failures=None):
    """The roots of rho_t in the cluster of the exact seed: seed + h over
    the roots h of rho_t(seed) + rho_t(h) of valuation above -lam, h = 0
    among them when rho_t(seed) is zero to its precision; every nonzero
    root for seed 0 and lam INF.  With a failures list, a polygon segment
    that fails is recorded there instead of raised."""
    if depth > _MAX_DESCENT:
        raise NoConvergence("root cluster descent exceeded %d levels"
                            % _MAX_DESCENT)
    cfg = module.cfg
    coeffs = {0: module.skew()(seed), 1: cfg.theta(), cfg.q: module.kappa,
              cfg.q ** 2: module.u}
    rho0 = coeffs[0]
    roots = []
    if lam != INF and rho0.is_apparent_zero():
        # h = 0, known to P + e when rho_t(seed) is zero to precision P
        roots.append(_certified(module, seed.truncate(rho0.prec + cfg.e),
                                "seed root at slope %d" % lam))
    for edge in _segments(coeffs):
        (i0, v0), (i1, v1) = edge
        if v1 - v0 >= lam * (i1 - i0):
            break
        try:
            roots.extend(_segment_roots(module, coeffs, edge, seed, depth))
        except (GridTooCoarse, NoConvergence, ResidueFieldTooSmall) as ex:
            if failures is None:
                raise
            failures.append({"slope": _slope_text(v1 - v0, i1 - i0),
                             "length": i1 - i0, **ex.record()})
    return roots


def all_nonzero_roots(module):
    """The q^rank - 1 nonzero t-torsion points of module, unsorted; the
    first failure raises."""
    return _cluster(module, module.cfg.zero(INF), INF, 0)


def partial_nonzero_roots(module):
    """Like all_nonzero_roots, but a failing polygon segment is recorded
    instead of raised: returns (roots, failures), the failures as error
    records with the segment's slope and length.  Salvages the
    representable torsion of a module whose other part is wildly
    ramified."""
    failures = []
    return _cluster(module, module.cfg.zero(INF), INF, 0, failures), failures


# -- Newton's method, for normalize ------------------------------------------


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


def poly_eval(coeffs, x, cache=None):
    """Evaluate a dense CInfApprox polynomial; skips structural zeros.

    cache, when given, is the power cache of x shared with other
    evaluations at the same x; each power x^n is built by one fixed chain,
    so sharing changes no value."""
    if cache is None:
        cache = {0: x.cfg.one(), 1: x}
    return dot(x.cfg, [(a, _pow_cache(x, cache, i))
                       for i, a in enumerate(coeffs)
                       if a is not None and not a.is_exact_zero()])


def newton_iterate(coeffs, seed):
    """Newton's method x <- x - f(x)/f'(x) from the seed.

    Returns (root, iterations).  An iterate whose residual valuation does
    not rise raises NoConvergence carrying that valuation.  A residual that
    is zero only to its precision caps the root at prec(f) - v(f'), the
    precision of the correction it stands for.
    """
    cfg = seed.cfg
    deriv = [a * (i % cfg.p) for i, a in enumerate(coeffs) if i]

    def f_and_deriv(x):
        cache = {0: cfg.one(), 1: x}
        return poly_eval(coeffs, x, cache), poly_eval(deriv, x, cache)

    x = seed
    fx, dfx = f_and_deriv(x)
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
