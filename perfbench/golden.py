"""Golden outputs and the comparison the benchmark applies to every op.

A serialized value (``{"e", "m", "modulus", "prec", "terms"}``, the
library's canonical encoding) agrees with its golden copy to threshold T
when both towers match, both precisions reach T and every coefficient
below T is equal: exactly the condition ``(a - b).vbound() >= T``, checked
here on the JSON alone so the library does not judge itself.  Everything
else in a document must match exactly.  A speed-up that changes working
precision therefore passes as long as the certified digits agree.
"""

import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
_VALUE_KEYS = frozenset(["e", "m", "modulus", "prec", "terms"])


def load(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        return json.load(fh)


def _prec(p):
    return float("inf") if p == "inf" else p


def is_value(obj):
    return isinstance(obj, dict) and obj.keys() == _VALUE_KEYS


def value_mismatch(got, want, threshold):
    """None when got agrees with want to threshold, else a reason."""
    for key in ("e", "m", "modulus"):
        if got[key] != want[key]:
            return "tower field %r differs" % key
    prec = min(_prec(got["prec"]), _prec(want["prec"]))
    if prec < threshold:
        if got == want:
            return None
        return "precision %s below threshold %d" % (prec, threshold)
    a = {e: c for e, c in got["terms"] if e < threshold}
    b = {e: c for e, c in want["terms"] if e < threshold}
    diff = [e for e in set(a) | set(b) if a.get(e) != b.get(e)]
    if diff:
        return "coefficient of exponent %d differs" % min(diff)
    return None


def doc_mismatch(got, want, threshold, path="$"):
    """Walk two JSON documents; values compare to threshold, the rest
    exactly.  Returns None or a reason with its JSON path."""
    if is_value(want) and is_value(got):
        why = value_mismatch(got, want, threshold)
        return None if why is None else "%s: %s" % (path, why)
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return "%s: keys differ" % path
        for k in sorted(want):
            why = doc_mismatch(got[k], want[k], threshold, "%s.%s" % (path, k))
            if why:
                return why
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return "%s: list length differs" % path
        for i, (g, w) in enumerate(zip(got, want)):
            why = doc_mismatch(g, w, threshold, "%s[%d]" % (path, i))
            if why:
                return why
        return None
    if type(got) is not type(want) or got != want:
        return "%s: %r != %r" % (path, got, want)
    return None
