import json
from pathlib import Path

import pytest

from drinfeldlab import cli, errors
from drinfeldlab.cinf import INF, FieldConfig
from drinfeldlab.cli import main, parse_value
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.encoding import encode_cinf, encode_module
from drinfeldlab.errors import ShapeMismatch
from drinfeldlab.logext import GVector, make_log_point
from drinfeldlab.motive import MotiveMatrices
from drinfeldlab.samples import context_q3


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cm_q3():
    return json.loads((Path(__file__).parent / "data" / "cm_q3.json")
                      .read_text())


def _assert_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_exp_eval_zero(capsys):
    code, out, _ = run_cli(capsys, "exp-eval", "--q", "3", "--z", "0",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"]["terms"] == []


def test_value_grammar(cfg_small):
    v = parse_value(cfg_small, "2*theta^1, 1, theta^-2")
    assert v.terms == {-18: 2, 0: 1, 36: 1}


@pytest.mark.parametrize("text, terms", [
    ("0", {}), ("-1", {0: 2}), ("1,2", {}), (" theta ", {-18: 1}),
    ("theta^-1", {18: 1}), ("2*theta^-1", {18: 2}),
    ("+2*theta^+3", {-54: 2}), ("-1*theta", {-18: 2}),
    ("theta^-1,theta^-2", {18: 1, 36: 1}),
    ("theta^-1 , theta^-1", {18: 2}), ("3*theta^-1", {})])
def test_value_grammar_terms(cfg_small, text, terms):
    v = parse_value(cfg_small, text)
    assert v.terms == terms and v.prec == INF


def test_every_benchmark_literal_parses(cfg_small):
    # the benchmark goldens key every --z/--u/--alpha/--alphas literal of
    # the workloads, a superset of those in the README and the CI pins
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    texts = set(json.loads((golden / "deep_q3.json").read_text()))
    for key in json.loads((golden / "cli_cold.json").read_text()):
        argv = key.split(" ")
        for flag in ("--z", "--u", "--alpha", "--alphas"):
            if flag in argv:
                texts.update(argv[argv.index(flag) + 1].split(";"))
    assert len(texts) == 5
    for text in texts:
        assert parse_value(cfg_small, text).terms


def test_file_term_adds_to_the_sum(cfg_small, tmp_path):
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps(encode_cinf(cfg_small.theta(-1))))
    v = parse_value(cfg_small, " @%s , 1" % vfile)
    assert v.terms == {18: 1, 0: 1}


@pytest.mark.parametrize("text", [
    "5theta", "junk theta^1", "2*3*theta", "thetaXYZ^2", "theta^",
    "*theta", "theta^1.5", "1 2", "", "1,,2", "2 * theta", "0x10", "1_0",
    "theta^-1;theta^-2", "theta**2", "2*", "1.0"])
def test_malformed_literal_is_a_config_error(capsys, text):
    # before, 5theta and "junk theta^1" gave theta, 2*3*theta gave
    # 2 theta and thetaXYZ^2 gave theta^2
    _assert_config_error(capsys, ["exp-eval", "--q", "3", "--z", text])
    _assert_config_error(capsys, ["agf", "--q", "3", "--u", text])


def test_torsion_and_periods(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--q", "3", "--rank1",
                           "--json")
    assert code == 0
    assert len(json.loads(out)["points"]) == 2
    code, out, _ = run_cli(capsys, "periods", "--q", "3", "--rank1",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["omega1"]["terms"][0][0] == -108


def test_config_error_exit_code(capsys, tmp_path):
    no_m = encode_module(context_q3().module)
    del no_m["kappa"]["m"], no_m["u"]["m"]
    # a non-prime p, a missing rank, values without "m", a non-object
    for descriptor in ({"p": 4, "rank": 1}, {"p": 3}, no_m, [1, 2]):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(descriptor))
        code, _, err = run_cli(capsys, "periods", "--module", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"
    # precision overrides are applied only to a well-formed descriptor
    bad_prec = dict(encode_module(context_q3().module), prec=[240])
    for descriptor in ([1, 2], bad_prec):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(descriptor))
        for flags in (["--prec-n", "200"], ["--prec-t", "8"]):
            code, _, err = run_cli(capsys, "periods", "--module", str(bad),
                                   *flags)
            assert code == 2
            assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("key,value", [
    ("rank", 3), ("rank", 0), ("rank", True), ("rank", "x"), ("rank", None),
    ("s", 0), ("m", 0), ("s", True), ("m", True)])
def test_bad_rank_or_degree_is_a_config_error(capsys, tmp_path, key, value):
    # before, any rank but 1 built a rank-2 module (True built Carlitz) and
    # "s": 0 raised ZeroDivisionError in FieldConfig, exit 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(encode_module(context_q3().module),
                                   **{key: value})))
    code, out, err = run_cli(capsys, "exp-eval", "--module", str(bad),
                             "--z", "theta^-1", "--json")
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("key,value", [
    ("p", "3"), ("e", 72.0), ("e", True), ("depth", "x")])
def test_mistyped_config_field_is_a_config_error(capsys, tmp_path, key,
                                                 value):
    # before, "p": "3" and "depth": "x" exited 1 with a TypeError traceback,
    # and "e": 72.0 and "e": true were accepted
    data = json.loads((Path(__file__).parent / "data" / "cm_q3.json")
                      .read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (["exp-eval", "--z", "theta^-1"], ["psi"]):
        code, out, err = run_cli(capsys, *argv, "--module", str(bad),
                                 "--json")
        assert code == 2 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("valuation_terms,flags", [
    (-5, []), (0, []), (240, ["--prec-n", "0"]), (240, ["--prec-t", "0"]),
    (240, ["--prec-t", "-2"])])
def test_non_positive_precision_is_a_config_error(capsys, tmp_path,
                                                  valuation_terms, flags):
    # before, N = -5 or 0 passed every check (threshold int(0.8 N) <= 0),
    # --prec-n 0 and --prec-t 0 were ignored and --prec-t -2 exited 3
    data = _cm_q3()
    data["prec"]["valuation_terms"] = valuation_terms
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (["periods"], ["exp-eval", "--z", "theta^-1"], ["psi"]):
        _assert_config_error(capsys, argv + ["--module", str(bad)] + flags)
    if valuation_terms == 240:
        _assert_config_error(capsys, ["psi", "--q", "3"] + flags)


@pytest.mark.parametrize("where", ["z", "kappa"])
@pytest.mark.parametrize("key,value", [
    ("terms", [[0, 5]]), ("terms", [[0, [7]]]), ("terms", [[0.5, [1]]]),
    ("terms", [[True, [1]]]), ("terms", [[0, [1, 0, 0, 0, 0]]]),
    ("terms", [[0, [True]]]), ("terms", [[0]]), ("terms", "x"),
    ("prec", 1.5), ("prec", None), ("prec", True), ("modulus", 5)])
def test_malformed_value_is_a_config_error(capsys, tmp_path, where, key,
                                           value):
    # before, [0, 5] raised a TypeError traceback and digit 7 over F_3,
    # exponent 0.5 and "prec": 1.5 were read as 1, 0 and 1
    data = _cm_q3()
    if where == "z":
        z = dict(data["u"], **{key: value})
        path = tmp_path / "z.json"
        path.write_text(json.dumps(z))
        _assert_config_error(capsys, ["exp-eval", "--q", "3", "--z",
                                      "@%s" % path])
    else:
        data["kappa"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        _assert_config_error(capsys, ["exp-eval", "--module", str(path),
                                      "--z", "theta^-1"])


@pytest.mark.parametrize("modulus", [5, [2, 1, 0, 0, 7], [2, 1, 0, 0, True]])
def test_malformed_modulus_is_a_config_error(capsys, tmp_path, modulus):
    # before, 5 raised a TypeError traceback, and the 7 and the true over
    # F_3 were read as 1
    data = _cm_q3()
    data["modulus"] = modulus
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    _assert_config_error(capsys, ["exp-eval", "--module", str(path),
                                  "--z", "theta^-1"])


def test_modulus_coefficients_are_fq_codes():
    # over F_9 the default modulus of F_81 has the code 4, which is not a
    # digit mod 3: the rule is m + 1 codes in [0, q)
    cfg = FieldConfig(3, 2, 2)
    assert cfg.modulus == (4, 0, 1)
    assert FieldConfig(3, 2, 2, modulus=[4, 0, 1]).same_as(cfg)


# every library error and the exit code main reports for it
_EXIT_CODES = {
    "DrinfeldLabError": 2, "ConfigError": 2, "ShapeMismatch": 2,
    "GridTooCoarse": 3, "PrecisionExhausted": 3, "ResidueFieldTooSmall": 3,
    "NoConvergence": 3, "DivergentEvaluation": 3,
    "IndeterminateValuation": 3, "PoleHit": 3, "DivisionByApparentZero": 3,
    "VerificationFailed": 4, "NotAUnit": 4, "SingularSpecialization": 4,
    "IndependenceFailure": 4,
}


def test_exit_code_table_lists_every_error():
    seen, todo = set(), [errors.DrinfeldLabError]
    while todo:
        cls = todo.pop()
        seen.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    assert seen == set(_EXIT_CODES)


@pytest.mark.parametrize("name,code", sorted(_EXIT_CODES.items()))
def test_library_error_exit_code(capsys, monkeypatch, name, code):
    cls = getattr(errors, name)

    def broken(args, cfg, module):
        raise cls("forced")

    monkeypatch.setitem(cli._COMMANDS, "torsion", broken)
    got, out, err = run_cli(capsys, "torsion", "--q", "3", "--json")
    assert cls.exit_code == code and got == code
    assert out == ""
    assert json.loads(err) == {"error": name, "message": "forced"}


def test_other_library_error_exit_code(capsys, monkeypatch):
    # a DrinfeldLabError outside the listed families is still a typed record
    def broken(args, cfg, module):
        raise ShapeMismatch("2x2 times 3x1")

    monkeypatch.setitem(cli._COMMANDS, "torsion", broken)
    code, out, err = run_cli(capsys, "torsion", "--q", "3", "--json")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ShapeMismatch",
                               "message": "2x2 times 3x1"}


def test_precision_error_exit_code(capsys):
    # the wild q=5 module cannot enumerate its full torsion
    code, _, err = run_cli(capsys, "torsion", "--q", "5-wild", "--json")
    assert code == 3
    assert json.loads(err)["error"] == "GridTooCoarse"


def test_partial_torsion(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--q", "5-wild", "--partial",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 4
    assert data["failures"][0]["error"] == "GridTooCoarse"


def test_module_file_round_trip(capsys, tmp_path):
    ctx = context_q3()
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(encode_module(ctx.module)))
    code, out, _ = run_cli(capsys, "exp-eval", "--module", str(path),
                           "--z", "theta^-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["e"] == 72


def test_cm_module_file_commands(capsys):
    # theta + tau^2 over q = 3: before the log certificate skipped its zero
    # coefficients, periods ran into a tower that did not return
    path = str(Path(__file__).parent / "data" / "cm_q3.json")
    code, out, _ = run_cli(capsys, "periods", "--module", path, "--json")
    assert code == 0
    assert json.loads(out)["tower_depths"] == [1, 1]
    code, out, _ = run_cli(capsys, "log-eval", "--module", path,
                           "--z", "theta^-5", "--json")
    assert code == 0


def test_inexact_cm_module_torsion_precision(capsys):
    # theta + tau^2 with kappa = 0 and u = 1 known to 400: the torsion
    # points have valuation -9, so they are known to
    # min(400 - 3 * 9, 400 - 9 * 9) + 72 = 391, not exactly
    path = str(Path(__file__).parent / "data" / "cm_q3_inexact.json")
    code, out, _ = run_cli(capsys, "torsion", "--module", path, "--json")
    assert code == 0
    points = json.loads(out)["points"]
    assert len(points) == 8
    assert all(p["prec"] == 391 for p in points)
    # the exact module's points agree with them below 391
    exact = json.loads(run_cli(capsys, "torsion", "--module", path.replace(
        "_inexact", ""), "--json")[1])["points"]
    assert [p["terms"] for p in points] == \
        [[t for t in p["terms"] if t[0] < 391] for p in exact]


def test_omega_command(capsys):
    code, out, _ = run_cli(capsys, "omega", "--q", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pi_tilde"]["terms"][0][0] == -108
    assert all(v == "inf" or v >= data["threshold"]
               for v in data["difference_residual_valuations"])


def test_omega_honours_prec_t_on_builtin_samples(capsys):
    # --prec-t sets T for omega on a built-in sample, as for psi: the
    # residuals are the first T of the default run's t_terms = 32
    full = json.loads(run_cli(capsys, "omega", "--q", "3", "--json")[1])
    code, out, _ = run_cli(capsys, "omega", "--q", "3", "--prec-t", "4",
                           "--json")
    assert code == 0
    short = json.loads(out)["difference_residual_valuations"]
    assert len(full["difference_residual_valuations"]) == 32
    assert short == full["difference_residual_valuations"][:4]


@pytest.mark.parametrize("argv", [
    ["omega", "--q", "3"], ["psi", "--q", "3"], ["specialize", "--q", "5"],
    ["extend", "--q", "3", "--alphas", "theta^-1"],
    ["omega", "--module", str(Path(__file__).parent / "data" / "cm_q3.json")]],
    ids=["omega", "psi", "specialize", "extend", "omega-module"])
def test_prec_t_is_echoed_in_the_config(capsys, argv):
    # the config names the T the residuals ran to, where a built-in sample
    # printed its own t_terms = 32; nothing else changes: omega's residuals
    # are the first T of its default run, and psi, specialize and extend at
    # their default T = 16 print what they print without the flag
    def run(*flags):
        code, out, _ = run_cli(capsys, *argv, *flags, "--json")
        assert code == 0
        return json.loads(out)

    base = run()
    T = 4 if argv[0] == "omega" else 16
    got = run("--prec-t", str(T))
    assert got["config"]["prec"]["t_terms"] == T
    got["config"]["prec"]["t_terms"] = base["config"]["prec"]["t_terms"]
    if argv[0] == "omega":
        assert len(got["difference_residual_valuations"]) == T
        del base["difference_residual_valuations"][T:]
    assert got == base
    if argv[0] == "psi":
        got = run("--prec-t", "4")
        assert got["T"] == got["config"]["prec"]["t_terms"] == 4


def test_log_point_command(capsys):
    code, out, _ = run_cli(capsys, "log-point", "--q", "3",
                           "--alpha", "theta^-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["provenance"] == "lifted-from-alpha"


@pytest.mark.parametrize("argv", [
    ["exp-eval"], ["log-eval"], ["agf"], ["extend"], ["log-point"],
    ["log-point", "--z", "theta^-1", "--alpha", "theta^-1"]],
    ids=["exp-eval-z", "log-eval-z", "agf-u", "extend-alphas",
         "log-point-neither", "log-point-both"])
def test_missing_value_flag_is_a_config_error(capsys, argv):
    # a usage error: exit 2 with one record, never a traceback or exit 4
    _assert_config_error(capsys, argv + ["--q", "3"])


@pytest.mark.parametrize("flags", [
    ["--module", str(Path(__file__).parent / "data" / "cm_q3.json")],
    ["--q", "3"], ["--rank1"], ["--prec-n", "0"], ["--prec-t", "16"]],
    ids=["module", "q", "rank1", "prec-n", "prec-t"])
def test_verify_rejects_config_flags(capsys, flags):
    # verify runs its built-in samples: a config flag would be stamped on
    # a report that never ran it
    _assert_config_error(capsys, ["verify"] + flags)


@pytest.mark.parametrize("flags", [
    ["--module", "nope.json"], ["--q", "5"], ["--prec-n", "7"],
    ["--prec-t", "16"]], ids=["module", "q", "prec-n", "prec-t"])
def test_suggest_rejects_config_flags(capsys, flags):
    # suggest proposes a config from --p and the theta-polynomials; a
    # config flag would be ignored, and --module never opened
    _assert_config_error(capsys, ["suggest", "--p", "3"] + flags)


def test_suggest_reads_rank1(capsys):
    code, out, _ = run_cli(capsys, "suggest", "--p", "3", "--rank1",
                           "--json")
    assert code == 0 and json.loads(out)["command"] == "suggest"


def test_empty_builtin_tag_is_a_config_error(capsys):
    # an empty --q names no sample; it used to run the q3 one
    _assert_config_error(capsys, ["exp-eval", "--q", "", "--z", "0"])


def test_serialized_values_reparse(capsys, tmp_path):
    # round-trip: serialize a value, feed it back via @file
    code, out, _ = run_cli(capsys, "log-point", "--q", "3",
                           "--alpha", "theta^-1", "--json")
    lam = json.loads(out)["lambda"]
    vfile = tmp_path / "lam.json"
    vfile.write_text(json.dumps(lam))
    code, out2, _ = run_cli(capsys, "exp-eval", "--q", "3",
                            "--z", "@" + str(vfile), "--json")
    assert code == 0
    val = json.loads(out2)["value"]
    # exp(lambda) = theta^{-1}: the leading term survives
    assert val["terms"][0][0] == 72


@pytest.mark.slow
def test_verify_deterministic_and_green(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--json")
    assert code1 == 0
    code2, out2, _ = run_cli(capsys, "verify", "--json")
    assert code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["pass"] is True


def _assert_only_failures(capsys, names):
    # a failed yes/no identity is a record with residual "-inf" and exit 4;
    # before, encoding -inf raised OverflowError, exit 1
    code, out, err = run_cli(capsys, "verify", "--json")
    assert code == 4 and err == ""
    data = json.loads(out)
    failed = [r for r in data["checks"] if not r["pass"]]
    assert [r["check"] for r in failed] == names
    assert all(r["residual_valuations"] == ["-inf"] and r["pass"] is False
               for r in failed)
    assert data["pass"] is False


@pytest.mark.slow
def test_failed_cm_commutation_is_reported(capsys, monkeypatch):
    monkeypatch.setattr("drinfeldlab.verify.verify_morphism",
                        lambda e_poly, rho: {"is_morphism": False,
                                             "adjoint_ok": True})
    _assert_only_failures(capsys, ["cm-commutation[q3]"])


@pytest.mark.slow
def test_failed_legendre_rescale_is_reported(capsys, monkeypatch):
    original = MotiveMatrices.legendre_invariant_for

    def not_minus_one(self, lattice):
        return dict(original(self, lattice), invariant_code=0)

    monkeypatch.setattr(MotiveMatrices, "legendre_invariant_for",
                        not_minus_one)
    _assert_only_failures(capsys, ["legendre-rescale[q3]",
                                   "legendre-rescale[q5-tame]"])


@pytest.mark.slow
def test_verify_json_matches_benchmark_golden(capsys):
    # perfbench/golden/suite.json holds the verify --json bytes the
    # benchmark checks every suite op against
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" \
        / "suite.json"
    want = json.loads(golden.read_text())["stdout"]
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    assert out == want


@pytest.mark.slow
def test_cli_commands_match_benchmark_golden(capsys):
    # perfbench/golden/cli_cold.json keys each argv of the cli-cold stream
    # (space-joined, --json appended when run) to its exit code and stdout
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" \
        / "cli_cold.json"
    for key, want in json.loads(golden.read_text()).items():
        code, out, _ = run_cli(capsys, *key.split(" "), "--json")
        assert code == want["exit_code"], key
        assert json.loads(out) == want["stdout"], key


@pytest.mark.slow
def test_deep_q3_matches_benchmark_golden():
    # perfbench/golden/deep_q3.json keys each alpha literal of the deep-q3
    # workload to the periods, quasi-periods, log point, tower depths,
    # Legendre fields and residuals of its chain at N = 1920; every value
    # must match in all its terms and its precision
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" \
        / "deep_q3.json"
    for alpha, want in json.loads(golden.read_text()).items():
        cfg = FieldConfig(3, 1, 4, e=72, prec=1920)
        rho = DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
        lat = rho.periods()
        mot = MotiveMatrices(rho, lat, T=16)
        diff = mot.difference_residual()
        spec = mot.specialization_residuals()
        li = mot.legendre_invariant()
        point = make_log_point(rho, alpha=parse_value(cfg, alpha))
        r1, r2 = GVector(mot, point).specialization_residuals()
        F = [rho.quasi_period_eval(om, lattice=lat) for om in lat.basis()]
        residuals = ([diff.min_vbound()]
                     + [spec[i][j].vbound() for i in range(2)
                        for j in range(2)]
                     + [li["unit_tail_valuation"], r1.vbound(), r2.vbound()])
        got = {
            "omega1": encode_cinf(lat.omega1),
            "omega2": encode_cinf(lat.omega2),
            "F(omega1)": encode_cinf(F[0]),
            "F(omega2)": encode_cinf(F[1]),
            "lambda": encode_cinf(point.lam),
            "tower_depths": [t.depth for t in lat.towers],
            "legendre": {k: li[k] for k in ("invariant_code", "is_minus_one")},
            "residuals": [r if r != INF else "inf" for r in residuals],
        }
        assert json.loads(json.dumps(got)) == want, alpha


def test_more_commands(capsys):
    code, out, _ = run_cli(capsys, "log-eval", "--q", "3", "--z",
                           "theta^-1", "--json")
    assert code == 0
    code, out, _ = run_cli(capsys, "quasi-period", "--q", "3", "--z",
                           "theta^-1", "--json")
    assert code == 0
    code, out, _ = run_cli(capsys, "agf", "--q", "3", "--u", "theta^-1",
                           "--json")
    assert code == 0
    assert json.loads(out)["agf"]["I"] >= 4


@pytest.mark.slow
def test_psi_specialize_extend_commands(capsys):
    code, out, _ = run_cli(capsys, "psi", "--q", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(v == "inf" or v >= data["threshold"]
               for v in data["difference_residual"])
    code, out, _ = run_cli(capsys, "specialize", "--q", "3", "--json")
    assert code == 0
    assert json.loads(out)["legendre"]["is_minus_one"] is True
    code, out, _ = run_cli(capsys, "extend", "--q", "3",
                           "--alphas", "theta^-1;theta^-2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    rv = data["difference_residual_valuation"]
    assert rv == "inf" or rv >= data["threshold"]


def test_suggest_command(capsys):
    code, out, _ = run_cli(capsys, "suggest", "--p", "3",
                           "--kappa-poly", "1", "--u-poly", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 4 and data["e"] == 72


# -- sizes bounded before any work -----------------------------------------

_HUGE_P = 1000000000000000003


def _run_capped(argv):
    """The CLI in a child process under a 1.5 GB address-space cap, killed
    after 10 s: an input that starts unbounded work fails the test."""
    import os
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))

    src = str(Path(__file__).parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-m", "drinfeldlab", *argv, "--json"],
        capture_output=True, text=True, timeout=10, preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("key,value,named", [
    ("s", 10 ** 9, "1000000000"), ("depth", 10 ** 9, "^1000000000"),
    ("p", _HUGE_P, str(_HUGE_P))], ids=["s", "depth", "p"])
def test_huge_descriptor_sizes_rejected_first(tmp_path, key, value, named):
    # a field past 2^20 elements or a q^depth past 2^32 is refused before
    # any power of it or primality test is formed
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(dict(_cm_q3(), **{key: value})))
    done = _run_capped(["periods", "--module", str(path)])
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    record = json.loads(done.stderr)
    assert record["error"] == "ConfigError" and named in record["message"]


def _cm_q3_deep():
    return json.loads((Path(__file__).parent / "data" / "cm_q3_deep.json")
                      .read_text())


@pytest.mark.parametrize("key,value,argv", [
    ("depth", 600, ["periods"]),
    ("depth", 600, ["exp-eval", "--z", "theta^-1"]),
    ("pole_count", 640, ["periods"])],
    ids=["depth-periods", "depth-exp-eval", "pole_count-periods"])
def test_deep_ladder_rejected_first(tmp_path, key, value, argv):
    # an exponential depth or pole count whose grid exponents q^(n + 66) e
    # rel_prec pass 2^768 is refused up front; past 2^1023 such an exponent
    # no longer adds to INF, and the run ended in an OverflowError
    data = _cm_q3()
    data["prec"] = dict(data["prec"], **{key: value})
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(data))
    if key == "depth":
        # the descriptor the CI step runs
        assert _cm_q3_deep() == data
    done = _run_capped([argv[0], "--module", str(path)] + argv[1:])
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    record = json.loads(done.stderr)
    assert record["error"] == "ConfigError"
    assert "%s = %d" % ("exp_depth" if key == "depth" else key, value) \
        in record["message"]


@pytest.mark.parametrize("q,e,N,rows", [(3, 72, 240, 309), (3, 72, 1920, 308),
                                        (5, 600, 240, 183)])
def test_ladder_depth_bound_is_the_stated_one(q, e, N, rows):
    # (n + 66) bits of q plus those of e and rel_prec at most 768: n = 309
    # on q3 at N = 240, 183 on q5-tame; every sample's exp_depth 12 and a
    # pole count of 100 pass, one row more is refused, naming the value
    for name in ("exp_depth", "pole_count"):
        for n in (12, 100, rows):
            FieldConfig(q, 1, 4, e=e, prec=N, **{name: n})
        with pytest.raises(errors.ConfigError, match=r"past 2\^768") as ex:
            FieldConfig(q, 1, 4, e=e, prec=N, **{name: rows + 1})
        assert "%s = %d" % (name, rows + 1) in str(ex.value)


@pytest.mark.parametrize("argv,named", [
    (["psi", "--q", "3", "--prec-t", "100000"], "--prec-t = 100000"),
    (["psi", "--module", None, "--prec-t", "100000"], "--prec-t = 100000"),
    (["psi", "--module", None], "t_terms = 100000"),
    (["omega", "--module", None], "t_terms = 100000")],
    ids=["prec-t", "prec-t-module", "t_terms-psi", "t_terms-omega"])
def test_huge_t_terms_rejected_first(tmp_path, argv, named):
    # psi --q 3 --prec-t 100000 ran past 20 s; a T above 512, from the
    # flag or the descriptor's prec.t_terms, is refused before any work
    data = _cm_q3()
    if "--prec-t" not in argv:
        data["prec"] = dict(data["prec"], t_terms=100000)
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(data))
    done = _run_capped([str(path) if a is None else a for a in argv])
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    record = json.loads(done.stderr)
    assert record["error"] == "ConfigError" and named in record["message"]
    assert "exceeds 512" in record["message"]


def test_t_terms_bound_is_the_stated_one(capsys):
    # every sample's T (16 for psi, 24 for the AGF checks, t_terms 32)
    # and the bound itself pass; one more is refused
    FieldConfig(3, 1, 4, e=72, prec=240, t_terms=512)
    with pytest.raises(errors.ConfigError, match="t_terms = 513 exceeds 512"):
        FieldConfig(3, 1, 4, e=72, prec=240, t_terms=513)
    assert main(["psi", "--q", "3", "--prec-t", "513", "--json"]) == 2
    assert "--prec-t = 513 exceeds 512" in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [
    (["--p", "3", "--s", "1000000000"], "1000000000"),
    (["--p", str(_HUGE_P)], str(_HUGE_P))], ids=["s", "p"])
def test_huge_suggest_sizes_rejected_first(flags, named):
    done = _run_capped(["suggest"] + flags)
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    record = json.loads(done.stderr)
    assert record["error"] == "ConfigError" and named in record["message"]


@pytest.mark.parametrize("argv,named", [
    (["suggest", "--p", "4093"], "4093^(1 * 2)"),
    (["periods", "--module", None], "3^(1 * 14)")], ids=["suggest", "module"])
def test_fields_past_2_20_rejected_first(tmp_path, argv, named):
    # suggest's first field F_(4093^2), 16.8M elements, and a descriptor's
    # F_(3^14), whose tables took 746 MB, are refused before any table is
    # built
    data = {k: v for k, v in _cm_q3().items() if k != "modulus"}
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(dict(data, m=14)))
    done = _run_capped([str(path) if a is None else a for a in argv])
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    record = json.loads(done.stderr)
    assert record["error"] == "ConfigError" and named in record["message"]
    assert "exceeds 2^20" in record["message"]


def test_suggest_stops_at_the_field_bound():
    # the search raised m 2 -> 4 -> ... -> 10 and built the tables of
    # F_(5^10), 9.8M elements: a MemoryError traceback under this cap after
    # 29 s; it now stops before the first field past 2^20 elements
    done = _run_capped(["suggest", "--p", "5", "--kappa-poly", "4,3",
                        "--u-poly", "2,1"])
    assert done.returncode == 3 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    record = json.loads(done.stderr)
    assert record["error"] == "ResidueFieldTooSmall"
    assert "stopped at m = 10" in record["message"]


@pytest.mark.parametrize("p,s,m,depth,named", [
    (2, 25, 1, 0, "2^(25 * 1)"), (4099, 1, 2, 0, "4099^(1 * 2)"),
    ((1 << 24) + 1, 1, 1, 0, "16777217^(1 * 1)"), (3, 1, 1, 21, "3^21"),
    (2, 21, 1, 0, "2^(21 * 1)"), (1031, 1, 2, 0, "1031^(1 * 2)"),
    (3, 1, 13, 0, "3^(1 * 13)"), ((1 << 20) + 7, 1, 1, 0, "1048583^(1 * 1)"),
    (2, 2, 1, 17, "4^17"), (3, 1, 1, 20, None), (2, 2, 1, 16, None)])
def test_size_bounds_are_the_stated_ones(p, s, m, depth, named):
    # past 2^20 field elements (2^21, 1031^2, 3^13, the prime 2^20 + 7) or
    # a q^depth of 2^32 (3^21, 4^17) is refused, naming the value; 3^20
    # and 4^16 pass.  The largest admitted fields (2^20, 1021^2, 3^12) are
    # not built here: their tables take seconds
    if named is None:
        FieldConfig(p, s, m, depth=depth, allow_char2=True)
        return
    with pytest.raises(errors.ConfigError, match=r"exceeds 2\^") as ex:
        FieldConfig(p, s, m, depth=depth, allow_char2=True)
    assert named in str(ex.value)


# -- rank 1 is told it needs rank 2, not normalize() -----------------------

@pytest.mark.parametrize("argv", [
    ["psi"], ["specialize"], ["extend", "--alphas", "theta^-1"]],
    ids=["psi", "specialize", "extend"])
def test_rank1_trivialization_names_rank_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--q", "3", "--rank1", "--json")
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "rank-2" in record["message"]
    assert "normalize" not in record["message"]


def test_exp_eval_past_the_tail_scan_is_exit_3(capsys):
    # exp is entire, but the tail floor reads a 64-line scan, which does
    # not stabilize this far out: the value is refused, not guessed
    code, out, err = run_cli(capsys, "exp-eval", "--q", "3",
                             "--z", "theta^40", "--json")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "DivergentEvaluation",
        "message": "tail bound for exp evaluation did not stabilize"}
