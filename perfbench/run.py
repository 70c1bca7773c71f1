"""drinfeldlab benchmark.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--trace 1]

One run measures one workload (suite, deep-q3 or cli-cold) in a
single-client closed loop for --seconds, checks every op against the golden
outputs, and prints one JSON line last on stdout:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run wraps the library's public
functions (tracer.py) and reports per-layer counts and times summed over a
fixed window of ops, plus the tracing overhead.  --all runs every workload
in its own process and prints the metric tables.

The library is imported from ``src/`` next to this directory; without it
the run fails with exit code 2.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 9
# seconds per reference-kernel run at the reference speed: the kernel's
# time on an uncontended core of the 2-vCPU VM the baseline was measured on
REF_S = 0.02
# the tail is the highest percentile with at least this many samples above
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1

END_TO_END = [
    ("op_ref.p50", "ref"), ("op_ref.tail", "ref"), ("ops_per_kref", "1/kref"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
TRACE_METRICS = [
    ("trace.op_ref.p50", "ref"), ("trace.untraced_op_ref.p50", "ref"),
    ("trace.overhead_ratio", "ratio"),
]


def tail(durations):
    """(value, level in percent) of the highest percentile that has
    TAIL_BEYOND samples above it."""
    d = sorted(durations)
    i = len(d) - 1 - TAIL_BEYOND
    return d[i], 100.0 * (i + 1) / len(d)


def _kernel_loop():
    table = list(range(97))
    acc = {}
    t0 = time.perf_counter()
    for i in range(80000):
        k = (table[i % 97] + i) & 1023
        cur = acc.get(k)
        if cur is None:
            acc[k] = i
        else:
            acc[k] = cur ^ i
    return time.perf_counter() - t0


def reference_kernel():
    """Seconds one fixed pure-Python loop takes right now.

    The loop does the interpreter work the library's hot paths do (dict
    lookups, integer arithmetic, branches) and none of the library's code,
    so no change to the library moves it.  Host contention slows it by the
    same factor it slows an op, so an op's duration divided by the kernel
    times around it is steady where raw wall time is not.  Only the second
    of two runs is timed: the first re-warms the caches that an op, or a
    child process, has just evicted.
    """
    _kernel_loop()
    return _kernel_loop()


def measure_setup(workload):
    """Set-up time of SETUP_REPS fresh interpreters.

    Each set-up is divided by the reference-kernel times around it, like an
    op, and the median is converted to seconds at REF_S per kernel run, so
    host contention does not move it.  Returns (that median, the median of
    the raw seconds)."""
    from workloads import child_env
    times, costs = [], []
    ref = reference_kernel()
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "setup",
             workload], cwd=ROOT, env=child_env(), capture_output=True,
            check=True, timeout=120)
        times.append(float(out.stdout.decode().split()[-1]))
        nxt = reference_kernel()
        costs.append(times[-1] / (0.5 * (ref + nxt)))
        ref = nxt
    return REF_S * statistics.median(costs), statistics.median(times)


class Loop:
    """Closed-loop runner: one op at a time, each checked.

    An op is timed in laps: the workload may call ``lap()`` between the
    stages of a long op, and the loop ends the last lap itself.  Each lap
    is followed by one reference-kernel run, and a lap's cost is its
    duration over the mean of the kernel times just before and after it.
    An op's cost is the sum over its laps.
    """

    def __init__(self, wl, rng):
        self.wl = wl
        wl.lap = self.lap
        self.inputs = wl.inputs(rng)
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.ref = reference_kernel()

    def lap(self):
        dt = time.perf_counter() - self._t0
        ref = reference_kernel()
        self._seconds += dt
        self._cost += dt / (0.5 * (self.ref + ref))
        self.ref = ref
        self._t0 = time.perf_counter()

    def op(self, run=None, inp=None):
        """Run and check one op; returns (seconds, cost in ref units)."""
        if inp is None:
            inp = next(self.inputs)
        run = run or self.wl.run
        self.attempted += 1
        self._seconds = self._cost = 0.0
        self._t0 = time.perf_counter()
        try:
            out = run(inp)
            why = None
        except Exception as ex:     # a raising op is a failed op
            out, why = None, "raised %s: %s" % (type(ex).__name__, ex)
        self.lap()
        if why is None:
            why = self.wl.check(inp, out)
        if why is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("%s: %s" % (inp, why))
        return self._seconds, self._cost


def run_untraced(wl, rng, seconds):
    loop = Loop(wl, rng)
    durations, costs = [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline or len(costs) < MIN_OPS:
        dt, cost = loop.op()
        durations.append(dt)
        costs.append(cost)
    elapsed = time.perf_counter() - t_start
    who = (resource.RUSAGE_CHILDREN if wl.name == "cli-cold"
           else resource.RUSAGE_SELF)
    value, level = tail(costs)
    metrics = {
        "op_ref.p50": statistics.median(costs),
        "op_ref.tail": value,
        "ops_per_kref": 1000.0 * len(costs) / sum(costs),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    raw_tail, _ = tail(durations)
    notes = ["op_ref.tail is p%.1f of %d ops" % (level, len(costs)),
             "raw wall time: op_s.p50 %.4f s, op_s.tail %.4f s, "
             "ops_per_s %.4f, reference kernel median %.5f s"
             % (statistics.median(durations), raw_tail,
                len(durations) / elapsed,
                statistics.median(d / c for d, c in zip(durations, costs)))]
    return loop, metrics, notes


def run_traced(wl, rng, seconds, seed, import_s):
    """Trace a fixed window of ops (exactly repeatable counts), then
    alternate untraced and traced ops on the same inputs to measure the
    tracing overhead."""
    from tracer import Tracer
    tracer = Tracer()
    loop = Loop(wl, rng)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR)
    op_id = [0]
    spans = []

    def traced_run(inp):
        i = op_id[0]
        op_id[0] += 1
        if wl.name == "cli-cold":
            path = os.path.join(tmp, "%d.json" % i)
            out = wl.run(inp, trace_file=path)
            with open(path) as fh:
                child = json.load(fh)
            os.remove(path)
            base = len(spans)
            spans.extend((sid + base, name, t0, t1,
                          None if parent is None else parent + base, i)
                         for sid, name, t0, t1, parent, _ in child["spans"])
            tracer.merge(child["stats"])
        else:
            with tracer.installed(), tracer.op(i):
                out = wl.run(inp)
        for k, v in wl.layer_counts(out).items():
            tracer.add(k, v)
        return out

    t_start = time.perf_counter()
    try:
        traced = [loop.op(traced_run)[1] for _ in range(wl.trace_window)]
        window = tracer.snapshot()
        window_spans = spans + tracer.spans
        tracer.spans = []
        untraced = []
        while not untraced or time.perf_counter() < t_start + seconds:
            inp = next(loop.inputs)
            untraced.append(loop.op(inp=inp)[1])
            traced.append(loop.op(traced_run, inp=inp)[1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if wl.name != "cli-cold":
        window["cli.import_s"] = import_s
    p50_t = statistics.median(traced)
    p50_u = statistics.median(untraced)
    window.update({"trace.op_ref.p50": p50_t,
                   "trace.untraced_op_ref.p50": p50_u,
                   "trace.overhead_ratio": p50_t / p50_u})
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (wl.name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": seed,
                   "window_ops": wl.trace_window, "metrics": window,
                   "span_fields": ["id", "name", "start", "end", "parent",
                                   "op"],
                   "spans": window_spans}, fh)
    notes = ["counts and times summed over the first %d ops; %d spans "
             "written to %s" % (wl.trace_window, len(window_spans),
                                os.path.relpath(path, ROOT))]
    return loop, window, notes


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "drinfeldlab", "__init__.py")):
        sys.stderr.write("perfbench: no library at %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    setup_s, setup_raw = measure_setup(args.workload)
    t0 = time.perf_counter()
    import drinfeldlab.cli  # noqa: F401  (paid once, before any op)
    import_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS[args.workload]()
    rng = workloads.make_rng(args.seed, args.workload)
    if args.trace:
        loop, values, notes = run_traced(wl, rng, args.seconds, args.seed,
                                         import_s)
        names = tracer_metric_names()
    else:
        loop, values, notes = run_untraced(wl, rng, args.seconds)
        values["setup_s"] = setup_s
        notes.append("raw wall time: setup %.4f s" % setup_raw)
        names = END_TO_END
    metrics = {}
    for name, unit in names:
        v = values[name]
        if unit in ("count", "bytes"):
            v = int(round(v))
        metrics[name] = {"value": v, "unit": unit}
    for name, m in metrics.items():
        sys.stderr.write("%-48s %14.6g %s\n" % (name, m["value"], m["unit"]))
    for line in notes + loop.reasons:
        sys.stderr.write(line + "\n")
    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": metrics}))
    return 0


def tracer_metric_names():
    from tracer import metric_names
    return metric_names() + TRACE_METRICS


def run_all(args):
    """Every workload in its own process; prints each metric table."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stderr.decode())
            return proc.returncode
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        print("== %s: correct=%s attempted=%d failed=%d failed_frac=%g"
              % (name, result["correct"], result["attempted"],
                 result["failed"], result["failed"] / result["attempted"]))
        for metric, m in result["metrics"].items():
            print("  %-46s %14.6g %s" % (metric, m["value"], m["unit"]))
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["suite", "deep-q3", "cli-cold"])
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print the metric tables")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
