"""Record the reference output of every CLI command the benchmark runs.

    python3 perfbench/record_reference.py

Runs each command of workloads.CLI_COMMANDS once as a cold process and
writes its stdout, and the SHA-256 of every file it writes, to
perfbench/reference/cli.json.  The benchmark counts any later run whose
bytes differ as a failed operation, so run this again only for a change
that alters the output on purpose, and say so in CHANGES.md.
"""

import json
import os
import shutil
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = workloads.bench_env(os.path.join(os.path.dirname(HERE), "src"))
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ref-", dir=out)
    try:
        reference = {}
        for name, args in workloads.CLI_COMMANDS:
            outcome = workloads.run_cli(name, args, workdir, env)
            if outcome["returncode"] != 0:
                print(f"{name} exited with {outcome['returncode']}",
                      file=sys.stderr)
                return 1
            reference[name] = workloads.reference_entry(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.dirname(workloads.REFERENCE), exist_ok=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
