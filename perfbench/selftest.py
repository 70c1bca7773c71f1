"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The golden check rejects deliberately perturbed results of every
   workload, and accepts a change below the certified digits.
2. Two traced runs of each workload give identical counts, and every
   traced op passes the same golden check as an untraced one.
3. Uninstalling the tracer restores every wrapped function.

Exits 0 when all pass; prints each failure otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import golden  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def test_suite_golden():
    wl = workloads.Suite()
    text = wl.want
    expect(wl.check(None, (0, text)) is None, "suite: golden bytes pass")
    expect(wl.check(None, (4, text)) is not None,
           "suite: exit code 4 is rejected")
    bumped = text.replace('"pass":true', '"pass":false', 1)
    expect(wl.check(None, (0, bumped)) is not None,
           "suite: one flipped pass flag is rejected")
    expect(wl.check(None, (0, text.replace("\n", " \n"))) is not None,
           "suite: a whitespace change is rejected (byte identity)")


def _with_term(value, exponent):
    out = dict(value)
    terms = [t for t in value["terms"] if t[0] != exponent]
    coeff = [1] + [0] * (len(value["terms"][0][1]) - 1)
    out["terms"] = sorted(terms + [[exponent, coeff]])
    return out


def test_cli_golden():
    wl = workloads.CliCold()
    argv = ["exp-eval", "--q", "3", "--z", "theta^-1"]
    want = wl.want[workloads.cli_key(argv)]
    doc = want["stdout"]
    thr = workloads.CLI_THRESHOLD

    def check(d, rc=0):
        return wl.check(argv, (rc, json.dumps(d)))

    expect(check(doc) is None, "cli-cold: golden document passes")
    expect(check(doc, rc=3) is not None, "cli-cold: exit code is checked")
    low = dict(doc, value=_with_term(doc["value"], thr - 1))
    expect(check(low) is not None,
           "cli-cold: a changed coefficient below the threshold is rejected")
    high = dict(doc, value=_with_term(doc["value"], thr))
    expect(check(high) is None,
           "cli-cold: a change at or beyond the threshold is accepted")
    short = dict(doc, value=dict(doc["value"], prec=thr - 1))
    expect(check(short) is not None,
           "cli-cold: precision below the threshold is rejected")
    renamed = dict(doc, command="log-eval")
    expect(check(renamed) is not None,
           "cli-cold: a non-value field must match exactly")
    periods = wl.want["periods --q 3"]["stdout"]
    deeper = dict(periods, tower_depths=[d + 1
                                         for d in periods["tower_depths"]])
    expect(wl.check(["periods", "--q", "3"], (0, json.dumps(deeper)))
           is not None, "cli-cold: tower depths must match exactly")


def test_deep_golden():
    wl = workloads.DeepQ3()
    dl = wl.dl
    alpha = workloads.LITERALS[0]
    res = wl.run(alpha)
    expect(wl.check(alpha, res) is None, "deep-q3: a real op passes")
    lat = res["lat"]
    cfg = lat.omega1.cfg
    thr = workloads.DEEP_THRESHOLD

    def with_omega1(delta):
        out = dict(res)
        out["lat"] = dl.Lattice(lat.omega1 + delta, lat.omega2, lat.towers)
        return out

    expect(wl.check(alpha, with_omega1(cfg.monomial(thr - 1)))
           is not None, "deep-q3: omega1 changed below 1536 is rejected")
    expect(wl.check(alpha, with_omega1(cfg.monomial(thr))) is None,
           "deep-q3: omega1 changed at 1536 is accepted")
    low = dict(res, residuals=res["residuals"][:-1] + [thr - 1])
    expect(wl.check(alpha, low) is not None,
           "deep-q3: a residual below the threshold is rejected")
    flipped = dict(res, legendre=dict(res["legendre"], is_minus_one=False))
    expect(wl.check(alpha, flipped) is not None,
           "deep-q3: the Legendre flag must match exactly")
    expect(wl.check(workloads.LITERALS[1], res) is not None,
           "deep-q3: another alpha's golden does not match")


def test_uninstall():
    from tracer import Tracer
    import drinfeldlab.cinf as cinf
    import drinfeldlab.drinfeld as drinfeld
    before = (cinf.CInfApprox.__mul__, cinf.CInfApprox.__rmul__,
              drinfeld.newton_iterate)
    with Tracer().installed():
        during = (cinf.CInfApprox.__mul__, cinf.CInfApprox.__rmul__,
                  drinfeld.newton_iterate)
    after = (cinf.CInfApprox.__mul__, cinf.CInfApprox.__rmul__,
             drinfeld.newton_iterate)
    expect(all(a is not b for a, b in zip(before, during)),
           "tracer: methods and imported aliases are wrapped")
    expect(before == after, "tracer: uninstall restores every original")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, timeout=600)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_traced_counts():
    for name in workloads.WORKLOADS:
        runs = [traced_run(name, 7) for _ in range(2)]
        if None in runs:
            expect(False, "%s: traced run exited non-zero" % name)
            continue
        expect(all(r["correct"] and r["failed"] == 0 for r in runs),
               "%s: every traced op passes the golden check" % name)
        counts = [{k: m["value"] for k, m in r["metrics"].items()
                   if m["unit"] in ("count", "bytes")} for r in runs]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        expect(not diff, "%s: %d counts repeat exactly%s"
               % (name, len(counts[0]), "" if not diff else
                  " (differ: %s)" % ", ".join(diff)))


def main():
    test_suite_golden()
    test_cli_golden()
    test_deep_golden()
    test_uninstall()
    test_traced_counts()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
