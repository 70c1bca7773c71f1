"""The three benchmark workloads: their inputs, one op each, and the check
of every op's output against the golden outputs.

Each workload turns the seed into an endless input stream (the library
only ever sees the generated inputs), runs one op per input and checks it.
All three are single-client closed loops: the next op starts when the
previous one has returned.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

import golden

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# literals for --z/--u/--alpha and the deep-q3 alpha; all certify
LITERALS = ["theta^-1", "theta^-2", "theta^-3", "2*theta^-1",
            "theta^-1,theta^-2"]
ALPHA_PAIRS = ["theta^-1;theta^-2", "theta^-2;theta^-3",
               "theta^-3;theta^-1", "2*theta^-1;theta^-1,theta^-2"]

# every command except verify, over the builtin samples, rank 1 and suggest
CLI_COMMANDS = [
    ["exp-eval", "--q", "3", "--z", "{lit}"],
    ["log-eval", "--q", "3", "--z", "{lit}"],
    ["torsion", "--q", "3"],
    ["periods", "--q", "3"],
    ["quasi-period", "--q", "3"],
    ["agf", "--q", "3", "--u", "{lit}"],
    ["omega", "--q", "3"],
    ["psi", "--q", "3"],
    ["specialize", "--q", "3"],
    ["log-point", "--q", "3", "--alpha", "{lit}"],
    ["extend", "--q", "3", "--alphas", "{pair}"],
    ["periods", "--q", "5"],
    ["psi", "--q", "5"],
    ["torsion", "--q", "5-wild", "--partial"],
    ["exp-eval", "--q", "3", "--rank1", "--z", "{lit}"],
    ["suggest", "--p", "3", "--kappa-poly", "1", "--u-poly", "1"],
]

DEEP_PREC = 1920
DEEP_THRESHOLD = int(0.8 * DEEP_PREC)
CLI_THRESHOLD = int(0.8 * 240)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def cli_family():
    """Every argv the cli-cold stream can produce (the golden keys)."""
    out = []
    for tpl in CLI_COMMANDS:
        if "{lit}" in tpl:
            out += [[a.replace("{lit}", v) for a in tpl] for v in LITERALS]
        elif "{pair}" in tpl:
            out += [[a.replace("{pair}", v) for a in tpl]
                    for v in ALPHA_PAIRS]
        else:
            out.append(list(tpl))
    return out


def cli_key(argv):
    return " ".join(argv)


# ---------------------------------------------------------------------------


class Suite:
    """The headline ``verify --json`` path, in process."""

    name = "suite"
    trace_window = 2

    def __init__(self):
        import drinfeldlab.cli
        self.cli = drinfeldlab.cli
        self.want = golden.load("suite")["stdout"]

    def inputs(self, rng):
        while True:
            yield None

    def run(self, _):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = self.cli.main(["verify", "--json"])
        return rc, buf.getvalue()

    def check(self, _, out):
        rc, text = out
        if rc != 0:
            return "exit code %d" % rc
        if text != self.want:
            return "verify --json bytes differ from golden"
        return None

    def layer_counts(self, out):
        text = out[1]
        report = json.loads(text)
        return {"encoding.bytes_out": len(text.encode()),
                "verify.checks.failed":
                    sum(1 for c in report["checks"] if not c["pass"])}


def deep_q3_op(dl, parse_value, alpha_text, lap=lambda: None):
    """Periods, Psi, Legendre invariant and a logarithm at N = 1920.

    ``lap`` is called between stages, so the caller can time a 3 s op in
    shorter pieces."""
    cfg = dl.FieldConfig(3, 1, 4, e=72, prec=DEEP_PREC)
    rho = dl.DrinfeldModule(cfg, 2, cfg.one(), cfg.one())
    lat = rho.periods()
    lap()
    mot = dl.MotiveMatrices(rho, lat, T=16)
    diff = mot.difference_residual()
    lap()
    spec = mot.specialization_residuals()
    lap()
    li = mot.legendre_invariant()
    lap()
    point = dl.make_log_point(rho, alpha=parse_value(cfg, alpha_text))
    r1, r2 = dl.GVector(mot, point).specialization_residuals()
    lap()
    F = [rho.quasi_period_eval(om, lattice=lat) for om in lat.basis()]
    return {"lat": lat, "F": F, "point": point, "legendre": li,
            "residuals": [diff.min_vbound()]
            + [spec[i][j].vbound() for i in range(2) for j in range(2)]
            + [li["unit_tail_valuation"], r1.vbound(), r2.vbound()]}


def deep_q3_doc(encode_cinf, res):
    """The checked, serializable part of one deep-q3 result."""
    lat = res["lat"]
    return {
        "omega1": encode_cinf(lat.omega1),
        "omega2": encode_cinf(lat.omega2),
        "F(omega1)": encode_cinf(res["F"][0]),
        "F(omega2)": encode_cinf(res["F"][1]),
        "lambda": encode_cinf(res["point"].lam),
        "tower_depths": [t.depth for t in lat.towers],
        "legendre": {k: res["legendre"][k]
                     for k in ("invariant_code", "is_minus_one")},
        "residuals": [r if r != float("inf") else "inf"
                      for r in res["residuals"]],
    }


class DeepQ3:
    """Deep precision: one op is the whole period/quasi-period chain on a
    fresh q3 context at N = 1920, with a seeded logarithm point."""

    name = "deep-q3"
    trace_window = len(LITERALS)

    def __init__(self):
        import drinfeldlab
        import drinfeldlab.cli
        import drinfeldlab.encoding
        self.dl = drinfeldlab
        self.parse_value = drinfeldlab.cli.parse_value
        self.encode = drinfeldlab.encoding.encode_cinf
        self.want = golden.load("deep_q3")
        self.lap = lambda: None

    def inputs(self, rng):
        while True:
            cycle = list(LITERALS)
            rng.shuffle(cycle)
            yield from cycle

    def run(self, alpha):
        return deep_q3_op(self.dl, self.parse_value, alpha, self.lap)

    def doc(self, out):
        return deep_q3_doc(self.encode, out)

    def check(self, alpha, out):
        got = self.doc(out)
        low = [r for r in got["residuals"]
               if r != "inf" and r < DEEP_THRESHOLD]
        if low:
            return "residual %s below threshold %d" % (low[0],
                                                       DEEP_THRESHOLD)
        want = dict(self.want[alpha])
        want["residuals"] = got["residuals"]
        return golden.doc_mismatch(got, want, DEEP_THRESHOLD)

    def layer_counts(self, out):
        return {}


class CliCold:
    """One ``python -m drinfeldlab <cmd> --json`` per op, one child at a
    time, each in a fresh interpreter."""

    name = "cli-cold"
    trace_window = len(CLI_COMMANDS)

    def __init__(self):
        self.want = golden.load("cli_cold")
        self.env = child_env()

    def inputs(self, rng):
        while True:
            cycle = list(CLI_COMMANDS)
            rng.shuffle(cycle)
            for argv in cycle:
                lit, pair = rng.choice(LITERALS), rng.choice(ALPHA_PAIRS)
                yield [a.replace("{lit}", lit).replace("{pair}", pair)
                       for a in argv]

    def command(self, argv, trace_file=None):
        if trace_file is None:
            return [sys.executable, "-m", "drinfeldlab"] + argv + ["--json"]
        return ([sys.executable, os.path.join(HERE, "child.py"), "cli",
                 trace_file] + argv + ["--json"])

    def run(self, argv, trace_file=None):
        proc = subprocess.run(self.command(argv, trace_file), cwd=ROOT,
                              env=self.env, capture_output=True,
                              timeout=120)
        return proc.returncode, proc.stdout.decode()

    def check(self, argv, out):
        rc, text = out
        want = self.want[cli_key(argv)]
        if rc != want["exit_code"]:
            return "exit code %d, golden %d" % (rc, want["exit_code"])
        try:
            got = json.loads(text)
        except ValueError:
            return "stdout is not one JSON document"
        return golden.doc_mismatch(got, want["stdout"], CLI_THRESHOLD)

    def layer_counts(self, out):
        return {"encoding.bytes_out": len(out[1].encode())}


WORKLOADS = {w.name: w for w in (Suite, DeepQ3, CliCold)}


def make_rng(seed, name):
    return random.Random("%s:%d" % (name, seed))
