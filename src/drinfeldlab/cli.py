"""Command-line front end.

Every command prints one JSON document on stdout (sorted keys, so output
is byte-deterministic for a fixed configuration) and machine-readable
error records on stderr.  Exit codes: 0 ok, 2 configuration error (or any
other library error), 3 precision/grid error, 4 verification failure; an
error's code is its class's ``exit_code``.

Each command imports the modules it runs (agf, motive, logext, verify,
suggest) when it runs, so a one-shot command loads no more of the library
than it needs.
"""

import argparse
import json
import re
import sys

from .cinf import _MAX_T_TERMS, INF
from .encoding import (_require, canonical_dumps, decode_cinf,
                       decode_module, encode_agf, encode_cinf, encode_module,
                       encode_valuation)
from .errors import ConfigError, DrinfeldLabError
from .samples import context_q3, context_q5_tame, context_q5_wild


# one term of a literal; compiled on first use (re caches it), so a
# command that parses no value does not pay for it
_INT = r"[+-]?[0-9]+"
_TERM = r"(%s)|(?:(%s)\*)?theta(?:\^(%s))?" % (_INT, _INT, _INT)


def parse_value(cfg, text):
    """Field value from the literal grammar.

    A literal is comma-separated terms, with spaces allowed around each
    term.  A term is ``INT``, ``[INT*]theta[^INT]`` (INT a decimal
    integer, optionally signed) or ``@file.json`` holding a serialized
    value; the value is their sum.  Anything else is a ConfigError.
    """
    acc = cfg.zero(INF)
    for term in text.split(","):
        term = term.strip()
        if term.startswith("@"):
            with open(term[1:]) as fh:
                acc = acc + decode_cinf(cfg, json.load(fh))
            continue
        match = re.fullmatch(_TERM, term)
        if match is None:
            raise ConfigError(
                "malformed term %r in value %r" % (term, text),
                hint="terms are INT, [INT*]theta[^INT] or @file.json, "
                     "separated by commas")
        const, coeff, power = match.groups()
        if const is not None:
            acc = acc + cfg.from_int(int(const))
        else:
            acc = acc + cfg.theta(int(power or 1)) * int(coeff or 1)
    return acc


def builtin_context(tag):
    if tag in ("3", "q3"):
        return context_q3()
    if tag in ("5", "q5", "5-tame"):
        return context_q5_tame()
    if tag in ("5-wild",):
        return context_q5_wild()
    raise ConfigError("unknown builtin sample %r (use 3, 5 or 5-wild)" % tag)


def load_setup(args):
    """Resolve (cfg, module) from the flags."""
    if args.prec_t is not None and args.prec_t < 1:
        raise ConfigError("--prec-t = %d must be at least 1" % args.prec_t)
    if args.prec_t is not None and args.prec_t > _MAX_T_TERMS:
        raise ConfigError("--prec-t = %d exceeds %d"
                          % (args.prec_t, _MAX_T_TERMS))
    if args.module:
        with open(args.module) as fh:
            data = json.load(fh)
        if args.prec_n is not None or args.prec_t is not None:
            _require(data, (), "module descriptor")
            prec = data.setdefault("prec", {})
            _require(prec, (), "'prec'")
            if args.prec_n is not None:
                prec["valuation_terms"] = args.prec_n
            if args.prec_t is not None:
                prec["t_terms"] = args.prec_t
        return decode_module(data)
    ctx = builtin_context("3" if args.q is None else args.q)
    cfg = ctx.cfg
    if args.prec_n is not None and args.prec_n != cfg.prec:
        raise ConfigError("builtin samples have fixed precision; use a "
                          "--module file to change it")
    return cfg, ctx.carlitz if args.rank1 else ctx.module


def emit(args, payload):
    if args.json:
        sys.stdout.write(canonical_dumps(payload) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2)
                         + "\n")


def cmd_exp_eval(args, cfg, module):
    z = parse_value(cfg, args.z)
    return {"command": "exp-eval", "value": encode_cinf(module.exp_eval(z))}


def cmd_log_eval(args, cfg, module):
    z = parse_value(cfg, args.z)
    return {"command": "log-eval", "value": encode_cinf(module.log_eval(z))}


def cmd_torsion(args, cfg, module):
    if args.partial:
        points, failures = module.torsion_points(partial=True)
    else:
        points, failures = module.torsion_points(), []
    return {
        "command": "torsion",
        "points": [encode_cinf(x) for x in points],
        "failures": failures,
    }


def cmd_periods(args, cfg, module):
    lat = module.periods()
    out = {
        "command": "periods",
        "omega1": encode_cinf(lat.omega1),
        "tower_depths": [t.depth for t in lat.towers],
    }
    if lat.omega2 is not None:
        out["omega2"] = encode_cinf(lat.omega2)
    return out


def cmd_quasi_period(args, cfg, module):
    if args.z is not None:
        z = parse_value(cfg, args.z)
        return {"command": "quasi-period",
                "value": encode_cinf(module.quasi_period_eval(z))}
    lat = module.periods()
    out = {"command": "quasi-period"}
    for i, om in enumerate(lat.basis(), start=1):
        out["F(omega%d)" % i] = encode_cinf(
            module.quasi_period_eval(om, lattice=lat))
    return out


def cmd_agf(args, cfg, module):
    from .agf import AndersonGF
    u = parse_value(cfg, args.u)
    f = AndersonGF(module, u)
    return {"command": "agf", "agf": encode_agf(f)}


def cmd_omega(args, cfg, module):
    from .motive import OmegaData
    om = OmegaData(cfg)
    # --prec-t sets T on a built-in sample too, as for psi and extend
    res = om.difference_residual(args.prec_t)
    return {
        "command": "omega",
        "I": om.I,
        "pi_tilde": encode_cinf(om.pi_tilde()),
        "difference_residual_valuations":
            [encode_valuation(v) for v in res.vbounds()],
        "threshold": cfg.pass_threshold(),
    }


def _motive_for(args, module):
    from .motive import MotiveMatrices
    T = 16 if args.prec_t is None else args.prec_t
    return MotiveMatrices(module, module.periods(), T=T)


def cmd_psi(args, cfg, module):
    mot = _motive_for(args, module)
    sres, x0 = mot.sigma_invariance_residual()
    out = {"command": "psi", "T": mot.T, "threshold": cfg.pass_threshold()}
    for key, res in (("difference_residual", mot.difference_residual()),
                     ("tensor_residual", mot.tensor_difference_residual()),
                     ("wedge_residual", mot.wedge_residual()),
                     ("sigma_invariance_residual", sres)):
        out[key] = [encode_valuation(res.min_vbound())]
    return out


def cmd_specialize(args, cfg, module):
    mot = _motive_for(args, module)
    P, M = mot.period_matrix()
    spec = mot.specialization_residuals()
    li = mot.legendre_invariant()
    return {
        "command": "specialize",
        "psi_theta": [[encode_cinf(M[i][j]) for j in range(2)]
                      for i in range(2)],
        "period_matrix": [[encode_cinf(P[i][j]) for j in range(2)]
                          for i in range(2)],
        "cross_check_valuations": [[encode_valuation(x.vbound())
                                    for x in row] for row in spec],
        "legendre": dict(li, unit_tail_valuation=encode_valuation(
            li["unit_tail_valuation"])),
        "threshold": cfg.pass_threshold(),
    }


def cmd_log_point(args, cfg, module):
    from .logext import make_log_point
    lam = parse_value(cfg, args.z) if args.z else None
    alpha = parse_value(cfg, args.alpha) if args.alpha else None
    P = make_log_point(module, lam=lam, alpha=alpha)
    return {
        "command": "log-point",
        "lambda": encode_cinf(P.lam),
        "alpha": encode_cinf(P.alpha),
        "provenance": P.provenance,
    }


def cmd_extend(args, cfg, module):
    from .logext import ExtendedSystem, make_log_point
    mot = _motive_for(args, module)
    points = [make_log_point(module, alpha=parse_value(cfg, a.strip()))
              for a in args.alphas.split(";")]
    system = ExtendedSystem(mot, points)
    res = system.difference_residual()
    return {
        "command": "extend",
        "n": system.n,
        "points": [{"lambda": encode_cinf(p.lam),
                    "alpha": encode_cinf(p.alpha)} for p in points],
        "difference_residual_valuation": encode_valuation(res.min_vbound()),
        "generators": [{"name": n, "value": encode_cinf(v)}
                       for n, v in system.generators()],
        "threshold": cfg.pass_threshold(),
    }


def cmd_verify(args, cfg, module):
    from .verify import run_suite
    return run_suite(timings=args.timings)


def cmd_suggest(args, cfg, module):
    from .suggest import suggest_config
    kappa = [int(c) for c in (args.kappa_poly or "1").split(",")]
    u = [int(c) for c in (args.u_poly or "1").split(",")]
    rank = 1 if args.rank1 else 2
    out = suggest_config(args.p or 3, s=args.s or 1, rank=rank,
                         kappa_poly=kappa, u_poly=u)
    out["command"] = "suggest"
    return out


_COMMANDS = {
    "exp-eval": cmd_exp_eval,
    "log-eval": cmd_log_eval,
    "torsion": cmd_torsion,
    "periods": cmd_periods,
    "quasi-period": cmd_quasi_period,
    "agf": cmd_agf,
    "omega": cmd_omega,
    "psi": cmd_psi,
    "specialize": cmd_specialize,
    "log-point": cmd_log_point,
    "extend": cmd_extend,
    "verify": cmd_verify,
    "suggest": cmd_suggest,
}

# the value flag each command cannot run without
_NEEDS = {"exp-eval": "z", "log-eval": "z", "agf": "u", "extend": "alphas"}

# the flags that choose a config, and the commands that read none of them:
# verify runs its built-in samples only, and suggest proposes a config from
# --p, --s and the theta-polynomials, reading --rank1 alone of these
_SETUP_FLAGS = ("module", "q", "rank1", "prec_n", "prec_t")
_UNSET = {"verify": ("runs the built-in samples", _SETUP_FLAGS),
          "suggest": ("proposes a config", ("module", "q", "prec_n",
                                            "prec_t"))}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="drinfeldlab",
        description="Exact-arithmetic identity checks for rank-1/2 Drinfeld "
                    "modules: periods, quasi-periods, logarithms and their "
                    "Frobenius difference systems.")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--module", help="JSON module descriptor")
    ap.add_argument("--q", help="builtin sample: 3, 5 or 5-wild")
    ap.add_argument("--rank1", action="store_true",
                    help="use the Carlitz module over the chosen sample field")
    ap.add_argument("--prec-n", type=int, help="valuation precision override")
    ap.add_argument("--prec-t", type=int, help="t-truncation override")
    ap.add_argument("--json", action="store_true",
                    help="compact canonical JSON (default is indented)")
    ap.add_argument("--timings", action="store_true",
                    help="include wall_time in verify reports")
    ap.add_argument("--partial", action="store_true",
                    help="torsion: return the representable part plus "
                         "failure records instead of erroring")
    ap.add_argument("--z", help="input value (literal grammar or @file)")
    ap.add_argument("--alpha", help="exponential image for log-point")
    ap.add_argument("--u", help="generating-function argument")
    ap.add_argument("--alphas", help="semicolon-separated alpha list (extend)")
    ap.add_argument("--p", type=int, help="characteristic (suggest)")
    ap.add_argument("--s", type=int, help="q = p^s exponent (suggest)")
    ap.add_argument("--kappa-poly", help="theta-polynomial of kappa as "
                    "comma-separated integers, low degree first (suggest)")
    ap.add_argument("--u-poly", help="theta-polynomial of u (suggest)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        need = _NEEDS.get(args.command)
        if need and getattr(args, need) is None:
            raise ConfigError("%s needs --%s" % (args.command, need))
        if args.command in _UNSET:
            what, flags = _UNSET[args.command]
            # identity, not equality: --prec-n 0 is given, not False
            given = [f for f in flags if getattr(args, f) is not None
                     and getattr(args, f) is not False]
            if given:
                raise ConfigError("%s %s and takes no --%s" % (
                    args.command, what, given[0].replace("_", "-")))
        if args.command == "suggest":
            payload = cmd_suggest(args, None, None)
        else:
            cfg, module = load_setup(args)
            payload = _COMMANDS[args.command](args, cfg, module)
            payload["config"] = encode_module(module)
    except DrinfeldLabError as ex:
        sys.stderr.write(canonical_dumps(ex.record()) + "\n")
        return ex.exit_code
    except (OSError, ValueError) as ex:
        sys.stderr.write(canonical_dumps(
            {"error": type(ex).__name__, "message": str(ex)}) + "\n")
        return 2
    emit(args, payload)
    if args.command == "verify" and not payload["pass"]:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
