"""One benchmark process: a set-up probe or the closed loop of a workload.

    python3 perfbench/worker.py --workload W --seed S --setup-only
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1

Both forms print "ready" as soon as the workload's inputs are built; the
set-up probe then exits.  The closed loop is a single caller: it issues
the next operation only when the previous one has returned, and it runs
whole cycles over the workload's operations until T seconds have passed.
It prints one JSON document with every sample.  With --trace 1 the first
half of the time runs untraced and the second half traced; then every
CLI command runs once, cold.  The spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import speed
import workloads
from spans import Tracer, eig_residual, layer_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: seconds of closed loop between two runs of the reference work
REF_EVERY = 0.5


def blas_threads():
    """Threads each loaded OpenBLAS will use, by library file name."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    found[os.path.basename(path)] = int(getattr(lib, sym)())
                    break
    return found


def closed_loop(ops, seconds, tracer=None):
    """Whole cycles over `ops` until `seconds` have passed.

    Every REF_EVERY seconds, between two operations, the loop also times
    the reference work (see speed.py).  That time, and the time of the
    eigenpair checks of a traced loop, are not the program's and are
    left out of `elapsed_s`.
    """
    samples, eig, ref = [], [], []
    speed.reference_work()              # builds its inputs
    aside = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    next_ref = start
    cycle = 0
    while True:
        for i, op in enumerate(ops):
            if time.perf_counter() >= next_ref:
                t0 = time.perf_counter()
                speed.reference_work()
                ref.append([t0 - start, time.perf_counter() - t0])
                aside += ref[-1][1]
                next_ref = t0 + REF_EVERY
            if tracer is not None:
                tracer.op = len(samples)
                root = tracer.begin("op", tracer.op)
            outcome, problem = None, None
            t0 = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:  # the op failed; keep the loop going
                problem = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(root, problem and problem.split(":")[0])
                tracer.op = -1
                tracer.paused = True
                t1 = time.perf_counter()
                eig += [[res.n, eig_residual(a, b, res)]
                        for a, b, res in tracer.captured]
                aside += time.perf_counter() - t1
                tracer.captured.clear()
                tracer.paused = False
            rel = None
            if problem is None:
                try:
                    rel, problem = op.check(outcome)
                except Exception as exc:  # a malformed outcome fails
                    problem = f"check raised {type(exc).__name__}: {exc}"
            samples.append({"op": i, "cycle": cycle, "t": t0 - start, "s": dt,
                            "rel_err": rel if op.exact else None,
                            "problem": problem})
        cycle += 1
        if time.perf_counter() >= deadline:
            break
    return {"cycles": cycle,
            "elapsed_s": time.perf_counter() - start - aside,
            "samples": samples, "eig": eig, "ref_s": ref}


def traced_run(ops, seconds, workload, seed, env):
    """Untraced half, traced half, then one cold pass over the CLI."""
    untraced = closed_loop(ops, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(ops, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    traced["layers"] = layer_totals(tracer.spans)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    tracer.dump(path)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        cli = workloads.cli_pass(workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return [untraced, traced], cli, os.path.relpath(path, ROOT)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = {"labels": [op.label for op in ops],
              "exact": [op.exact for op in ops],
              "blas_threads": blas_threads()}
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        env = workloads.bench_env(os.path.join(ROOT, "src"))
        result["phases"], result["cli"], result["spans_file"] = traced_run(
            ops, args.seconds, args.workload, args.seed, env)
    else:
        result["phases"] = [closed_loop(ops, args.seconds)]
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
