"""Span and counter tracing for the benchmark, installed from outside the
library.

The tracer wraps public functions of ``drinfeldlab`` in the current
process only: every reference to a wrapped function or method inside the
package (``from .x import f`` copies included) is replaced while the tracer
is installed and restored by ``uninstall``.  Nothing in ``src/`` changes.

Three kinds of wrapper exist:

* ``span``: records (id, name, start, end, parent id, op id) in memory,
  plus calls, total time and self time (span minus its traced children);
* ``leaf``: the hot arithmetic calls (``CInfApprox.__mul__``/``__add__``/
  ``frobenius``, ``FiniteField.add``) only add to counters and summed
  time, because a span per call would cost more than the call itself;
* ``count``: ``FiniteField.mul`` is counted, not timed.

Only calls made while an op is open (``with tracer.op(i)``) are recorded,
so the benchmark's own golden checks never count.  ``total_s`` counts the
outermost activation of a function only, so recursive functions (cluster
descent, field towers) are not counted twice.  ``verify.check_*`` self time
is net of the construction spans below it (torsion, division towers,
periods, Psi), which the suite builds lazily inside whichever check first
needs them.
"""

import bisect
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_INF = float("inf")

# construction spans subtracted from the verify checks' self time
_CONSTRUCTION = frozenset([
    "drinfeld.torsion_points", "drinfeld.period_from_seed",
    "drinfeld.periods", "motive.MotiveMatrices.init",
])

_CHECKS = ("omega_difference", "carlitz_period", "agf", "periods_kernel",
           "psi", "legendre", "log_layer", "algebra")


def _term_pairs(a, b):
    """Coefficient products CInfApprox.__mul__ performs for a * b.

    Mirrors the loop bound of the product: the shorter operand drives the
    outer loop and the inner loop stops at the output precision.
    """
    if not hasattr(b, "terms") or not a.terms or not b.terms:
        return 0
    va, vb = min(a.terms), min(b.terms)
    prec = min(a.prec + vb, b.prec + va)
    ta, tb = a.sorted_terms(), b.sorted_terms()
    if len(ta) > len(tb):
        ta, tb = tb, ta
    if prec == _INF:
        return len(ta) * len(tb)
    exps = [e for e, _ in tb]
    return sum(bisect.bisect_left(exps, prec - ea) for ea, _ in ta)


def _spec(module, path, name, kind, stats, hook=None):
    return (module, path, name, kind, stats, hook)


def targets():
    """(module, attribute path, metric name, kind, stats, result hook)."""
    S_TOTAL = ("calls", "total_s")
    specs = [
        _spec("fields", "FiniteField.__init__", "fields.FiniteField.init",
              "span", S_TOTAL),
        _spec("fields", "FiniteField.add", "fields.add", "leaf",
              ("calls", "self_s")),
        _spec("fields", "FiniteField.mul", "fields.mul", "count", ("calls",)),
        _spec("cinf", "CInfApprox.__mul__", "cinf.mul", "leaf",
              ("calls", "self_s", "term_pairs", "out_terms")),
        _spec("cinf", "CInfApprox.__add__", "cinf.add", "leaf",
              ("calls", "self_s")),
        _spec("cinf", "CInfApprox.inverse", "cinf.inverse", "span",
              ("calls", "total_s", "mul_calls")),
        _spec("cinf", "CInfApprox.frobenius", "cinf.frobenius", "leaf",
              ("calls", "self_s")),
        _spec("roots", "newton_iterate", "roots.newton_iterate", "span",
              ("calls", "total_s", "iterations"), "iterations"),
        _spec("roots", "poly_eval", "roots.poly_eval", "span", S_TOTAL),
        _spec("roots", "all_nonzero_roots", "roots.all_nonzero_roots", "span",
              ("total_s",)),
        _spec("roots", "partial_nonzero_roots", "roots.partial_nonzero_roots",
              "span", ("failures",), "failures"),
        _spec("drinfeld", "DrinfeldModule.torsion_points",
              "drinfeld.torsion_points", "span", S_TOTAL),
        _spec("drinfeld", "DrinfeldModule.periods", "drinfeld.periods",
              "span", S_TOTAL),
        _spec("drinfeld", "DrinfeldModule.period_from_seed",
              "drinfeld.period_from_seed", "span", S_TOTAL, "tower_depth"),
        _spec("drinfeld", "DrinfeldModule.exp_eval", "drinfeld.exp_eval",
              "span", S_TOTAL),
        _spec("drinfeld", "DrinfeldModule.log_eval", "drinfeld.log_eval",
              "span", S_TOTAL),
        _spec("drinfeld", "DrinfeldModule.quasi_period_eval",
              "drinfeld.quasi_period_eval", "span", S_TOTAL),
        _spec("agf", "AndersonGF.__init__", "agf.AndersonGF.init", "span",
              S_TOTAL),
        _spec("agf", "AndersonGF.series", "agf.AndersonGF.series", "span",
              S_TOTAL),
        _spec("agf", "AndersonGF.eval_twisted", "agf.AndersonGF.eval_twisted",
              "span", S_TOTAL),
        _spec("tseries", "TSeries.__mul__", "tseries.TSeries.mul", "span",
              ("calls", "self_s")),
        _spec("tseries", "TSeries.twist", "tseries.TSeries.twist", "span",
              ("calls", "self_s")),
        _spec("tseries", "TMatrix.__mul__", "tseries.TMatrix.mul", "span",
              S_TOTAL),
        _spec("skew", "TwistedPoly.__mul__", "skew.TwistedPoly.mul", "span",
              ("calls", "self_s")),
        _spec("motive", "OmegaData.__init__", "motive.OmegaData.init", "span",
              S_TOTAL),
        _spec("motive", "MotiveMatrices.__init__",
              "motive.MotiveMatrices.init", "span", S_TOTAL),
        _spec("motive", "MotiveMatrices.specialization_residuals",
              "motive.specialization_residuals", "span", S_TOTAL),
        _spec("motive", "MotiveMatrices.legendre_invariant_for",
              "motive.legendre_invariant_for", "span", S_TOTAL),
        _spec("logext", "make_log_point", "logext.make_log_point", "span",
              S_TOTAL),
        _spec("logext", "ExtendedSystem.__init__", "logext.ExtendedSystem.init",
              "span", S_TOTAL),
        _spec("logext", "relation_certificate", "logext.relation_certificate",
              "span", S_TOTAL),
        _spec("encoding", "encode_cinf", "encoding.encode_cinf", "span",
              ("calls", "self_s")),
        _spec("encoding", "canonical_dumps", "encoding.canonical_dumps",
              "span", ("total_s",)),
        _spec("cli", "load_setup", "cli.load_setup", "span", ("total_s",)),
        _spec("cli", "main", "cli.main", "span", ("total_s",)),
    ]
    specs += [_spec("verify", "check_" + c, "verify.check_" + c, "check",
                    ("self_s",)) for c in _CHECKS]
    return specs


# metrics measured by the workloads rather than by a wrapper
EXTRA_METRICS = [
    ("drinfeld.tower_depth.sum", "count"),
    ("encoding.bytes_out", "bytes"),
    ("cli.import_s", "s"),
    ("verify.checks.failed", "count"),
]


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for _, _, name, _, stats, _ in targets():
        for st in stats:
            unit = "s" if st.endswith("_s") else "count"
            out.append(("%s.%s" % (name, st), unit))
        out.append((name + ".errors", "count"))
    return out + EXTRA_METRICS


class Tracer:
    """Spans and counters for the ops of one process."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.spans = []
        self.op_id = None
        self._stack = []        # frames: [span id, child time, construction]
        self._active = defaultdict(int)
        self._next_id = 0
        self._installed = []

    @contextmanager
    def op(self, op_id):
        self.op_id = op_id
        try:
            yield self
        finally:
            self.op_id = None

    def add(self, name, value):
        self.stats[name] += value

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, kind, hook):
        stats = self.stats
        stack = self._stack
        active = self._active
        perf = time.perf_counter
        k_calls, k_err = name + ".calls", name + ".errors"
        k_total, k_self = name + ".total_s", name + ".self_s"
        is_construction = name in _CONSTRUCTION
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                if tracer.op_id is not None:
                    stats[k_calls] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    if tracer.op_id is not None:
                        stats[k_err] += 1
                    raise
            return counted

        is_mul = name == "cinf.mul"

        def wrapped(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if is_mul:
                stats["cinf.mul.term_pairs"] += _term_pairs(*args)
                if active["cinf.inverse"]:
                    stats["cinf.inverse.mul_calls"] += 1
            sid = None
            if kind != "leaf":
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[k_err] += 1
                raise
            finally:
                t1 = perf()
                active[name] -= 1
                stack.pop()
                dur = t1 - t0
                stats[k_calls] += 1
                stats[k_self] += dur - frame[2 if kind == "check" else 1]
                if not active[name]:
                    stats[k_total] += dur
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                    parent[2] += dur if is_construction else frame[2]
                if sid is not None:
                    tracer.spans.append(
                        (sid, name, t0, t1,
                         parent[0] if parent is not None else None,
                         tracer.op_id))
            if is_mul:
                stats["cinf.mul.out_terms"] += len(result.terms)
            elif hook == "iterations":
                stats[name + ".iterations"] += result[1]
            elif hook == "failures":
                stats[name + ".failures"] += len(result[1])
            elif hook == "tower_depth":
                stats["drinfeld.tower_depth.sum"] += result.depth
            return result
        return wrapped

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; each package-level alias is patched too."""
        importlib.import_module("drinfeldlab.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "drinfeldlab"
                                         or n.startswith("drinfeldlab."))]
        for mod_name, path, name, kind, _, hook in targets():
            mod = importlib.import_module("drinfeldlab." + mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                wrapper = self._wrap(orig, name, kind, hook)
                for key, val in list(cls.__dict__.items()):
                    if val is orig:
                        self._patch(cls, key, orig, wrapper)
            else:
                orig = getattr(mod, path)
                wrapper = self._wrap(orig, name, kind, hook)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._installed.append((owner, key, orig))

    def uninstall(self):
        while self._installed:
            owner, key, orig = self._installed.pop()
            setattr(owner, key, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------

    def snapshot(self):
        """Per-layer metric values (every name, zero when unused)."""
        return {name: self.stats.get(name, 0.0)
                for name, _ in metric_names()}

    def merge(self, stats):
        for k, v in stats.items():
            self.stats[k] += v
