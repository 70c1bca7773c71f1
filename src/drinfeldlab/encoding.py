"""Canonical JSON encodings.

Field elements always travel with the grid denominator, the extension
degree and the modulus, so that every serialized value is self-describing
and re-parses to an equal value under the same configuration.  Exponent
lists are ascending and coefficients are F_p coordinate vectors in the
power basis of F_{q^m}; all dumps use sorted keys and fixed separators so
byte-identical output is a function of the data alone.
"""

import json

from .cinf import CInfApprox, FieldConfig, INF
from .errors import ConfigError


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_valuation(v):
    """A precision or valuation bound as JSON: an int, "inf" or "-inf"."""
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return int(v)


def _prec_in(p):
    if p == "inf":
        return INF
    if type(p) is not int:
        raise ConfigError("precision %r is neither an integer nor \"inf\""
                          % (p,))
    return p


def _require(data, keys, what):
    """Reject a descriptor that is not a JSON object holding every key."""
    if not isinstance(data, dict):
        raise ConfigError("%s must be a JSON object, not %s"
                          % (what, type(data).__name__))
    missing = [k for k in keys if k not in data]
    if missing:
        raise ConfigError("%s lacks %s"
                          % (what, ", ".join(repr(k) for k in missing)))


def encode_cinf(x):
    cfg = x.cfg
    return {
        "e": cfg.e,
        "m": cfg.m,
        "modulus": list(cfg.modulus),
        "prec": encode_valuation(x.prec),
        "terms": [[e, cfg.field.to_fp_vec(c)] for e, c in x.sorted_terms()],
    }


def decode_cinf(cfg, data):
    _require(data, ("e", "m", "modulus", "prec", "terms"), "serialized value")
    if data["e"] != cfg.e or data["m"] != cfg.m \
            or data["modulus"] != list(cfg.modulus):
        raise ConfigError("serialized value belongs to a different tower")
    prec = _prec_in(data["prec"])
    if type(data["terms"]) is not list:
        raise ConfigError("'terms' must be a list of [exponent, vector] pairs")
    p, width = cfg.p, cfg.s * cfg.m
    terms = {}
    for term in data["terms"]:
        # plain ints only: a bool, float or out-of-range digit would be
        # read as some other value
        if type(term) is not list or len(term) != 2 \
                or type(term[0]) is not int or type(term[1]) is not list \
                or len(term[1]) > width \
                or any(type(c) is not int or not 0 <= c < p
                       for c in term[1]):
            raise ConfigError(
                "term %r is not [exponent, list of at most %d digits mod %d]"
                % (term, width, p))
        terms[term[0]] = cfg.field.from_fp_vec(term[1])
    return CInfApprox(cfg, terms, prec)


def encode_agf(f):
    cfg = f.cfg
    return {
        "u": encode_cinf(f.u),
        "I": f.I,
        "terms": [[encode_cinf(cfg.theta(1).frobenius(i)),
                   encode_cinf(f.numerators[i])] for i in range(f.I)],
        "tailBound": None,
    }


def encode_config(cfg):
    return {
        "p": cfg.p, "s": cfg.s, "m": cfg.m,
        "modulus": list(cfg.modulus),
        "e": cfg.e, "depth": cfg.depth,
        "prec": {
            "valuation_terms": cfg.prec,
            "rel_terms": cfg.rel_prec,
            "t_terms": cfg.t_terms,
            "depth": cfg.exp_depth,
            "pole_count": cfg.pole_count,
            "tower_cap": cfg.tower_cap,
        },
    }


# the FieldConfig arguments a descriptor holds at its top level, and its
# prec block's keys with the arguments they name
_CONFIG_KEYS = ("p", "s", "m", "modulus", "e", "depth", "allow_char2")
_PREC_KEYS = {"valuation_terms": "prec", "rel_terms": "rel_prec",
              "t_terms": "t_terms", "depth": "exp_depth",
              "pole_count": "pole_count", "tower_cap": "tower_cap"}


def decode_config(data):
    """The FieldConfig of a descriptor: only the keys it holds are passed,
    so a missing one takes FieldConfig's default."""
    _require(data, ("p",), "configuration")
    prec = data.get("prec", {})
    _require(prec, (), "'prec'")
    kwargs = {k: data[k] for k in _CONFIG_KEYS if k in data}
    kwargs.update((arg, prec[k]) for k, arg in _PREC_KEYS.items() if k in prec)
    return FieldConfig(**kwargs)


def encode_module(module):
    out = encode_config(module.cfg)
    out["rank"] = module.rank
    if module.rank == 2:
        out["kappa"] = encode_cinf(module.kappa)
        out["u"] = encode_cinf(module.u)
    else:
        out["kappa"] = None
        out["u"] = None
    return out


def decode_module(data, cfg=None):
    from .drinfeld import DrinfeldModule
    _require(data, ("rank",), "module descriptor")
    if type(data["rank"]) is not int or data["rank"] not in (1, 2):
        raise ConfigError("rank must be 1 or 2, not %r" % (data["rank"],))
    if cfg is None:
        cfg = decode_config(data)
    if data["rank"] == 1:
        return cfg, DrinfeldModule(cfg, 1)
    _require(data, ("kappa", "u"), "rank-2 module descriptor")
    kappa = decode_cinf(cfg, data["kappa"])
    u = decode_cinf(cfg, data["u"])
    return cfg, DrinfeldModule(cfg, 2, kappa, u)
