"""Benchmark workloads and CLI commands: inputs, operations and checks.

Every operation is checked.  A check returns the operation's relative
error against an exact value (or None where no closed form exists) and
a problem string (or None when the operation passed).  Exact values are
written out independently of the package:

* ((4/pi) arctan L^(-1/2))^(-2) for the square wave bar-a:L with a = b,
* (mean a)^2 for a reciprocal pair (a, 1/a),
* bound_power of the extremal pair (gamma, 1), gamma = bar-gamma:M,1,0,
  where the paper proves equality.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass

WORKLOADS = ("solve-matrix", "pwc-many", "verify-characterize")

#: an operation whose relative error exceeds this counts as failed
ACCURACY_GATE = 1e-5

#: slack for "computed constant <= closed-form bound"; Richardson
#: extrapolation may overshoot an attained bound by ~1e-10
BOUND_TOL = 1e-6

#: seconds one cold CLI process may take before it counts as failed
CLI_TIMEOUT = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "cli.json")


@dataclass(frozen=True)
class Op:
    """One operation of a workload's cycle."""

    label: str
    run: object          # () -> outcome
    check: object        # outcome -> (rel_err | None, problem | None)
    exact: bool          # False where no closed form exists


def bar_a_exact(L):
    return ((4.0 / math.pi) * math.atan(L ** -0.5)) ** -2


def pq_exact(M):
    """C(gamma, 1) for gamma = bar-gamma:M,1,0, equal to bound_power."""
    c = 2.0 / (1.0 + M ** -0.5)
    mean_sqrt = 0.5 * c + (1.0 - 0.5 * c) * math.sqrt(M)
    return (mean_sqrt / ((4.0 / math.pi) * math.atan(M ** -0.25))) ** 2


def _rel(value, exact):
    return abs(value - exact) / abs(exact)


def _check_constant(c, exact, bound):
    if not math.isfinite(c):
        return None, f"non-finite constant {c!r}"
    rel = None if exact is None else _rel(c, exact)
    if c > bound * (1.0 + BOUND_TOL):
        return rel, f"constant {c!r} above its bound {bound!r}"
    if rel is not None and rel > ACCURACY_GATE:
        return rel, f"relative error {rel:.3g} above {ACCURACY_GATE:g}"
    return rel, None


def _solve_op(label, a, b, n, exact, bound):
    from wirtinger import spectral

    def run():
        # attribute lookup at call time, so a traced run sees the wrapper
        return spectral.best_constant(a, b, n).constant

    return Op(label, run, lambda c: _check_constant(c, exact, bound),
              exact is not None)


# -- solve-matrix -----------------------------------------------------------

#: (a, b, exact C(a, b) or None)
SOLVE_CELLS = (
    ("bar-a:4", "bar-a:4", bar_a_exact(4.0)),
    ("bar-gamma:4,1,0", "const:1", pq_exact(4.0)),
    ("sine:4", "const:1", None),
    ("sine:4", "inv:sine:4", 2.5 ** 2),     # mean of sine:4 is 2.5
    ("bar-a:4", "inv:bar-a:4", 2.5 ** 2),   # mean of bar-a:4 is 2.5
)
SOLVE_N = (2048, 8192, 32768)
#: kept on purpose: the fixed shift -lambda_est/2 loses accuracy here
SOLVE_EXTRA = (("bar-a:4", "bar-a:4", bar_a_exact(4.0), 65536),)

#: ops per cycle of each cell with n >= 32768; the others run once.
#: Large solves are where the eigensolve dominates, and with this weight
#: op_s_p50 falls inside the n = 32768 ops instead of the ~30 ms n = 8192
#: ops, whose times drift about twice as much from run to run.
SOLVE_LARGE_WEIGHT = 3


def _solve_matrix():
    from wirtinger import cli, sharpness
    cells = [(a, b, exact, n) for a, b, exact in SOLVE_CELLS
             for n in SOLVE_N] + list(SOLVE_EXTRA)
    ops = []
    for a_spec, b_spec, exact, n in cells:
        a, b = cli.parse_weight(a_spec), cli.parse_weight(b_spec)
        bound = sharpness.bound_general(a, b)
        op = _solve_op(f"best_constant {a_spec} {b_spec} n={n}",
                       a, b, n, exact, bound)
        ops += [op] * (SOLVE_LARGE_WEIGHT if n >= 32768 else 1)
    return ops


# -- pwc-many ---------------------------------------------------------------

#: breakpoint counts of the generated weights, one weight each; fixed so
#: that every seed does the same amount of work
PWC_BREAKPOINTS = (500, 714, 929, 1143, 1357, 1571, 1786, 2000)
PWC_N = (2048, 8192)
PWC_RANGE = (1.0, 4.0)


def pwc_weight(rng, count):
    """Breakpoints uniform on [0, 2pi), values uniform on PWC_RANGE."""
    import numpy as np
    while True:
        bp = np.unique(rng.uniform(0.0, 2.0 * math.pi, count))
        if bp.size == count:
            break
    return bp, rng.uniform(*PWC_RANGE, count)


def _pwc_many(seed):
    import numpy as np
    from wirtinger import sharpness, weights
    rng = np.random.default_rng(seed)
    one = weights.PeriodicWeight.constant(1.0)
    ops = []
    for count in PWC_BREAKPOINTS:
        bp, vals = pwc_weight(rng, count)
        # independent mean: the last value also covers [0, bp[0])
        widths = np.diff(np.concatenate((bp, [bp[0] + 2.0 * math.pi])))
        mean_a = float(np.dot(vals, widths)) / (2.0 * math.pi)
        a = weights.PeriodicWeight.piecewise(bp, vals)
        inv_a = a.power(-1.0)
        bound_one = sharpness.bound_general(a, one)
        for n in PWC_N:
            ops.append(_solve_op(f"best_constant pwc{count} inv n={n}",
                                 a, inv_a, n, mean_a ** 2, mean_a ** 2))
            ops.append(_solve_op(f"best_constant pwc{count} const:1 n={n}",
                                 a, one, n, None, bound_one))
    return ops


# -- verify-characterize ----------------------------------------------------

#: (gamma, p, q, expected verdict, exact constant or None)
VERIFY_CASES = (
    ("bar-gamma:4,1,0", 1.0, 0.0, True, pq_exact(4.0)),
    ("bar-gamma:9,1,1", 1.0, 1.0, True, bar_a_exact(9.0)),
    ("bar-a:4", 1.0, 1.0, True, bar_a_exact(4.0)),
    ("sine:4", 1.0, 0.0, False, None),
)


def _verify_op(spec, gamma, p, q, sharp, exact):
    from wirtinger import sharpness

    def run():
        # what `wirtinger verify` does, in-process
        pair = sharpness.PowerWeightPair.create(gamma, p, q)
        report = sharpness.verify_sharpness(pair)
        is_sharp, _, _ = sharpness.sharpness_characterization(
            pair.a, pair.b, cross_check=False)
        return report.computed, report.bound, report.sharp, is_sharp

    def check(outcome):
        computed, bound, verdict, characterized = outcome
        rel, problem = _check_constant(computed, exact, bound)
        if verdict != sharp or characterized != sharp:
            problem = (f"verdicts {verdict}/{characterized}, "
                       f"expected {sharp}")
        elif exact is not None and _rel(bound, exact) > ACCURACY_GATE:
            problem = f"bound {bound!r} differs from exact {exact!r}"
        return rel, problem

    return Op(f"verify {spec} p={p:g} q={q:g}", run, check, exact is not None)


def _verify_characterize():
    from wirtinger import cli
    return [_verify_op(spec, cli.parse_weight(spec), p, q, sharp, exact)
            for spec, p, q, sharp, exact in VERIFY_CASES]


# -- command line -----------------------------------------------------------

#: each command runs once, as a cold `wirtinger` process, per traced run
CLI_COMMANDS = (
    ("bound", ("bound", "--a", "bar-a:4", "--b", "inv:bar-a:4")),
    ("extremal", ("extremal", "--family", "pq", "--M", "4", "--p", "1",
                  "--q", "0", "--samples", "4096", "--out", "ext.json")),
    ("solve", ("solve", "--a", "sine:4", "--b", "const:1", "--n", "2048")),
    ("verify", ("verify", "--gamma", "bar-gamma:4,1,0", "--p", "1",
                "--q", "0")),
)

#: files a command writes into its working directory
CLI_FILES = {"extremal": ("ext.json", "ext.json.fn.csv")}

_WALL = re.compile(rb"wall-time: ([0-9.]+)s")


def bench_env(src):
    """Environment of every process the benchmark starts.

    The checkout's own sources come first on the path, and BLAS runs
    one thread, so the single closed-loop caller uses one core.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_cli(name, args, workdir, env):
    """One cold `python -m wirtinger.cli` process; its outcome dict."""
    for fname in CLI_FILES.get(name, ()):
        path = os.path.join(workdir, fname)
        if os.path.exists(path):
            os.remove(path)
    try:
        proc = subprocess.run([sys.executable, "-m", "wirtinger.cli", *args],
                              cwd=workdir, env=env, capture_output=True,
                              timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"returncode": None, "stdout": b"", "files": {},
                "handler_s": None}
    files = {}
    for fname in CLI_FILES.get(name, ()):
        path = os.path.join(workdir, fname)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[fname] = fh.read()
    match = _WALL.search(proc.stderr)
    return {"returncode": proc.returncode, "stdout": proc.stdout,
            "files": files,
            "handler_s": float(match.group(1)) if match else None}


def reference_entry(outcome):
    """Stdout verbatim and the SHA-256 of each file written."""
    return {"stdout": outcome["stdout"].decode(),
            "files": {k: hashlib.sha256(v).hexdigest()
                      for k, v in outcome["files"].items()}}


def _cli_values(name, res, bound_solve):
    """(rel_err, problem) from the numbers of a report's results."""
    if name == "bound":
        # the general bound is attained by a reciprocal pair
        return _check_constant(res["bound"], 2.5 ** 2, math.inf)
    if name == "solve":
        return _check_constant(res["constant"], None, bound_solve)
    if name == "verify":
        rel, problem = _check_constant(res["computed"], pq_exact(4.0),
                                       res["bound"])
        ch = res["characterization"]["is_sharp"]
        if not (res["sharp"] and ch):
            problem = f"verdicts {res['sharp']}/{ch}, expected True"
        return rel, problem
    M = 4.0
    rel = max(_rel(res["constants"]["c_pq"], 2.0 / (1.0 + M ** -0.5)),
              _rel(res["constants"]["mu"],
                   ((4.0 / math.pi) * math.atan(M ** -0.25)) ** 2))
    return rel, (None if rel <= ACCURACY_GATE else
                 f"extremal constants off by {rel:.3g}")


def cli_pass(workdir, env):
    """Every CLI command once, cold and checked; one sample per command.

    A command fails if it exits nonzero, if its stdout or a file it
    writes differs from reference/cli.json, or if its numbers fail the
    same checks as the in-process operations.
    """
    from wirtinger import cli, sharpness
    bound_solve = sharpness.bound_general(cli.parse_weight("sine:4"),
                                          cli.parse_weight("const:1"))
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    samples = []
    for name, args in CLI_COMMANDS:
        t0 = time.perf_counter()
        outcome = run_cli(name, args, workdir, env)
        wall = time.perf_counter() - t0
        rel, problem = None, None
        if outcome["returncode"] != 0:
            problem = f"exit code {outcome['returncode']}"
        elif reference_entry(outcome) != reference[name]:
            problem = "output bytes differ from the reference"
        else:
            text = (outcome["files"]["ext.json"] if name == "extremal"
                    else outcome["stdout"])
            try:
                rel, problem = _cli_values(name, json.loads(text)["results"],
                                           bound_solve)
            except (KeyError, ValueError) as exc:
                problem = f"unreadable report: {exc!r}"
        samples.append({"label": f"wirtinger {' '.join(args)}", "s": wall,
                        "handler_s": outcome["handler_s"],
                        "returncode": outcome["returncode"],
                        "rel_err": rel, "problem": problem})
    return samples


def build(workload, seed):
    """The workload's cycle of operations, in a seed-shuffled order."""
    if workload == "solve-matrix":
        ops = _solve_matrix()
    elif workload == "pwc-many":
        ops = _pwc_many(seed)
    elif workload == "verify-characterize":
        ops = _verify_characterize()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops
