import json
from pathlib import Path

import pytest

from drinfeldlab import cli
from drinfeldlab.cinf import INF, FieldConfig
from drinfeldlab.cli import main, parse_value
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.encoding import encode_cinf, encode_module
from drinfeldlab.errors import ShapeMismatch
from drinfeldlab.logext import GVector, make_log_point
from drinfeldlab.motive import MotiveMatrices
from drinfeldlab.verify import context_q3


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exp_eval_zero(capsys):
    code, out, _ = run_cli(capsys, "exp-eval", "--q", "3", "--z", "0",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"]["terms"] == []


def test_value_grammar(cfg_small):
    v = parse_value(cfg_small, "2*theta^1, 1, theta^-2")
    assert v.terms == {-18: 2, 0: 1, 36: 1}


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


def test_other_library_error_exit_code(capsys, monkeypatch):
    # a DrinfeldLabError outside the listed families is still a typed record
    def broken(args, cfg, module, ctx):
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


def test_omega_command(capsys):
    code, out, _ = run_cli(capsys, "omega", "--q", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pi_tilde"]["terms"][0][0] == -108
    assert all(v == "inf" or v >= data["threshold"]
               for v in data["difference_residual_valuations"])


def test_log_point_command(capsys):
    code, out, _ = run_cli(capsys, "log-point", "--q", "3",
                           "--alpha", "theta^-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["provenance"] == "lifted-from-alpha"


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
