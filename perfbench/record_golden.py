"""Record the golden outputs every benchmark op is checked against.

    python3 perfbench/record_golden.py

Run once, on the commit whose outputs define "correct"; the files under
perfbench/golden/ are committed.  It covers the whole input family of each
workload, so every seed's ops have a golden copy.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import golden  # noqa: E402
import workloads  # noqa: E402


def write(name, data):
    os.makedirs(golden.GOLDEN_DIR, exist_ok=True)
    with open(os.path.join(golden.GOLDEN_DIR, name + ".json"), "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def main():
    proc = subprocess.run([sys.executable, "-m", "drinfeldlab", "verify",
                           "--json"], cwd=workloads.ROOT,
                          env=workloads.child_env(), capture_output=True,
                          check=True)
    write("suite", {"stdout": proc.stdout.decode()})

    import drinfeldlab
    import drinfeldlab.cli
    import drinfeldlab.encoding
    deep = {}
    for alpha in workloads.LITERALS:
        res = workloads.deep_q3_op(drinfeldlab, drinfeldlab.cli.parse_value,
                                   alpha)
        deep[alpha] = workloads.deep_q3_doc(
            drinfeldlab.encoding.encode_cinf, res)
    write("deep_q3", deep)

    cli = {}
    for argv in workloads.cli_family():
        proc = subprocess.run([sys.executable, "-m", "drinfeldlab"] + argv
                              + ["--json"], cwd=workloads.ROOT,
                              env=workloads.child_env(), capture_output=True)
        cli[workloads.cli_key(argv)] = {
            "exit_code": proc.returncode,
            "stdout": json.loads(proc.stdout.decode()),
        }
    write("cli_cold", cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
