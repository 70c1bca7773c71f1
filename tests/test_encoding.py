import json

from drinfeldlab.agf import AndersonGF
from drinfeldlab.cinf import CInfApprox, FieldConfig, INF
from drinfeldlab.encoding import (canonical_dumps, decode_cinf,
                                  decode_config, decode_module, encode_agf,
                                  encode_cinf, encode_config, encode_module,
                                  encode_valuation)
from pole_count import with_pole_count


def test_cinf_round_trip(cfg_small):
    x = cfg_small.theta(2) + cfg_small.theta(-1).scale(5) + cfg_small.one()
    x = x.truncate(500)
    data = encode_cinf(x)
    # exponents ascending, coefficients as F_p vectors
    exps = [e for e, _ in data["terms"]]
    assert exps == sorted(exps)
    y = decode_cinf(cfg_small, data)
    assert y.terms == x.terms and y.prec == x.prec


def test_cinf_infinite_precision(cfg_small):
    x = cfg_small.one()
    data = encode_cinf(x)
    assert data["prec"] == "inf"
    y = decode_cinf(cfg_small, data)
    assert y.prec == INF


def test_encode_valuation():
    assert encode_valuation(INF) == "inf"
    assert encode_valuation(-INF) == "-inf"
    for v in (-108, 0, 192):
        assert type(encode_valuation(v)) is int and encode_valuation(v) == v


def test_json_serializable(cfg_small):
    x = cfg_small.theta() + cfg_small.one()
    text = canonical_dumps(encode_cinf(x))
    back = decode_cinf(cfg_small, json.loads(text))
    assert back.terms == x.terms


def test_module_round_trip(ctx3):
    data = encode_module(ctx3.module)
    cfg, module = decode_module(data)
    assert cfg.p == 3 and cfg.m == 4 and cfg.e == 72
    assert module.rank == 2
    assert module.kappa.terms == ctx3.module.kappa.terms
    # the same module arises from the decoded descriptor
    for a, b in ((module.kappa, ctx3.module.kappa),
                 (module.u, ctx3.module.u)):
        assert (a - CInfApprox(cfg, b.terms, b.prec)).is_exact_zero()


def test_config_defaults_are_field_configs():
    # a descriptor key that is missing takes FieldConfig's default; the
    # prec block's keys name other arguments
    assert encode_config(decode_config({"p": 3})) == \
        encode_config(FieldConfig(3))
    cfg = decode_config({"p": 3, "m": 2, "prec": {
        "valuation_terms": 60, "rel_terms": 90, "depth": 5, "pole_count": 4}})
    assert (cfg.m, cfg.prec, cfg.rel_prec, cfg.exp_depth, cfg.pole_count,
            cfg.t_terms) == (2, 60, 90, 5, 4, 32)


def test_agf_encoding(ctx3):
    u = ctx3.cfg.theta(-1)
    f = AndersonGF(with_pole_count(ctx3.module, 4), u)
    data = encode_agf(f)
    assert data["I"] == 4
    assert len(data["terms"]) == 4
    canonical_dumps(data)  # must be JSON-clean


def test_canonical_dumps_deterministic():
    a = canonical_dumps({"b": 1, "a": [2, {"z": 3, "y": 4}]})
    b = canonical_dumps({"a": [2, {"y": 4, "z": 3}], "b": 1})
    assert a == b
