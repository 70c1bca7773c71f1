"""Child processes of the benchmark.

``child.py setup <workload>`` imports the library, builds the contexts the
workload starts from (FieldConfig and FiniteField tables) and prints the
seconds that took.  ``child.py cli <trace-file> <argv...>`` runs one CLI
command like ``python -m drinfeldlab`` does, traced, and writes its
per-layer counters and spans to the trace file.
"""

import json
import sys
import time


def setup(workload):
    t0 = time.perf_counter()
    if workload == "deep-q3":
        import drinfeldlab
        drinfeldlab.FieldConfig(3, 1, 4, e=72, prec=1920)
    else:
        import drinfeldlab.cli
        for tag in ("3", "5", "5-wild"):
            drinfeldlab.cli.builtin_context(tag)
    print(repr(time.perf_counter() - t0))
    return 0


def traced_cli(trace_file, argv):
    t0 = time.perf_counter()
    import drinfeldlab.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer
    tracer = Tracer()
    tracer.add("cli.import_s", import_s)
    with tracer.installed(), tracer.op(0):
        rc = drinfeldlab.cli.main(argv)
    sys.stdout.flush()
    with open(trace_file, "w") as fh:
        json.dump({"stats": tracer.stats, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
