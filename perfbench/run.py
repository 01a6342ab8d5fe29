"""Benchmark of the `wirtinger` package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds T

Each workload runs in its own fresh worker process (see worker.py), fed
by one closed-loop caller with BLAS pinned to one thread.  The package
is imported from the checkout's `src/` and used only through its public
functions and its command line.  Every operation's result is checked.

With --trace 0 the run reports the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run (see README.md).  The end-to-end
times are scaled to a reference speed of the machine (see speed.py).  The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are the same numbers for a reader.
Details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import speed  # noqa: E402  (needs the path entry above)
import workloads  # noqa: E402

#: cold set-ups measured per run: the loop worker's own and the rest
#: from set-up probes, each probe followed by a reference start (see
#: speed.py); one more pair before them all writes the byte-code cache
#: and warms the page cache, and is discarded
SETUP_RUNS = 7

#: `python -X importtime` probes per traced run
IMPORT_RUNS = 3

#: op_s_tail is the highest percentile with this many samples above it
TAIL_BEYOND = 10

#: mesh size from which the report also gives the worst error alone:
#: there the fixed shift of the eigensolve loses accuracy
LARGE_N = 32768
_N = re.compile(r"\bn=(\d+)")

PROBE_TIMEOUT = 60.0

END_TO_END_UNITS = {
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s",
    "max_rel_err": "ratio", "pass_ratio": "ratio", "peak_rss_mb": "MiB",
}

#: per-layer metric -> (unit, span name, field); fields are summed over
#: the traced phase and divided by its cycle count
SPAN_METRICS = {
    "spectral.eigensolve_s": ("s", "spectral.best_constant", "self_s"),
    "spectral.build_mesh_s": ("s", "spectral.build_mesh", "self_s"),
    "spectral.assemble_s": ("s", "spectral.assemble", "self_s"),
    "spectral.converge_s": ("s", "spectral.converge", "incl_s"),
    "spectral.best_constant_calls": ("count", "spectral.best_constant",
                                     "calls"),
    "transform.functional_eq_residual_s": (
        "s", "transform.functional_eq_residual", "self_s"),
    "transform.geometric_mean_s": (
        "s", "transform.transported_geometric_mean", "self_s"),
    "transform.build_cov_s": ("s", "transform.build_cov", "self_s"),
    "weights.eval_calls": ("count", "weights.eval", "calls"),
    "weights.eval_points": ("count", "weights.eval", "points"),
    "weights.eval_s": ("s", "weights.eval", "self_s"),
    "weights.antiderivative_points": ("count", "weights.antiderivative",
                                      "points"),
    "weights.antiderivative_s": ("s", "weights.antiderivative", "self_s"),
    "sharpness.verify_s": ("s", "sharpness.verify_sharpness", "self_s"),
    "sharpness.characterization_s": (
        "s", "sharpness.sharpness_characterization", "self_s"),
}


def worker_argv(workload, seed, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), *extra]


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(argv, env, timeout):
    """Run a worker; returns (seconds until it printed "ready", stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _fail(f"worker timed out: {' '.join(argv[1:])}")
    if proc.returncode != 0 or first.strip() != b"ready":
        _fail("worker failed:\n" + err.decode(errors="replace"))
    return setup, out.decode()


def import_times(env):
    """Median cumulative import seconds of wirtinger.cli and .spectral."""
    found = {"wirtinger.cli": [], "wirtinger.spectral": []}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wirtinger.cli"],
            env=env, capture_output=True, timeout=PROBE_TIMEOUT)
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    if not all(found.values()):
        _fail("no import times in `python -X importtime` output")
    return {k: median(v) for k, v in found.items()}


# -- statistics ---------------------------------------------------------------

def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def tail_percentile(n):
    """Highest percentile with TAIL_BEYOND samples above it, or the
    median when a run has fewer than 2 * TAIL_BEYOND samples."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n))


# -- metrics ------------------------------------------------------------------

def end_to_end(setups, starts, loop, rss_mib):
    """End-to-end values scaled to the reference speed, their notes,
    the tail percentile, and the speed figures of the run."""
    samples = loop["samples"]
    times = [s["s"] for s in samples]
    p_tail = tail_percentile(len(times))
    errs = [s["rel_err"] for s in samples if s["rel_err"] is not None]
    failed = sum(s["problem"] is not None for s in samples)
    if not errs:
        _fail("no operation with an exact value returned; first problem: "
              + next(s["problem"] for s in samples if s["problem"]))
    # > 1 when the machine runs slower than at the reference speed
    slow_loop = median([r for _, r in loop["ref_s"]]) / speed.REF_WORK_S
    slow_start = median(starts) / speed.REF_START_S
    raw = {
        "setup_s": median(setups),
        "op_s_p50": median(times),
        "op_s_tail": percentile(times, p_tail),
        "ops_per_s": len(samples) / loop["elapsed_s"],
    }
    values = {
        "setup_s": raw["setup_s"] / slow_start,
        "op_s_p50": raw["op_s_p50"] / slow_loop,
        "op_s_tail": raw["op_s_tail"] / slow_loop,
        "ops_per_s": raw["ops_per_s"] * slow_loop,
        "max_rel_err": max(errs),
        "pass_ratio": (len(samples) - failed) / len(samples),
        "peak_rss_mb": rss_mib,
    }
    notes = {
        "setup_s": (f"median of {len(setups)} cold set-ups, "
                    f"{raw['setup_s']:.4g} s as measured"),
        "op_s_p50": (f"{len(times)} samples, "
                     f"{raw['op_s_p50']:.4g} s as measured"),
        "op_s_tail": (f"p{p_tail:.4g} of {len(times)} samples, "
                      f"{len(times) * (1 - p_tail / 100):.3g} beyond, "
                      f"{raw['op_s_tail']:.4g} s as measured"),
        "ops_per_s": (f"{len(samples)} ops in {loop['cycles']} cycles, "
                      f"{loop['elapsed_s']:.2f} s, "
                      f"{raw['ops_per_s']:.4g} 1/s as measured"),
        "max_rel_err": f"over {len(errs)} ops with an exact value",
        "pass_ratio": f"{len(samples) - failed} of {len(samples)} passed",
        "peak_rss_mb": "worker process",
    }
    speeds = {"loop_slowdown": slow_loop, "start_slowdown": slow_start,
              "reference_work_runs": len(loop["ref_s"]),
              "reference_starts": len(starts), "as_measured": raw}
    return values, notes, {"percentile": p_tail, "samples": len(times)}, \
        speeds


def per_layer(untraced, traced, cli, imports):
    cycles = traced["cycles"]
    layers = traced["layers"]

    def span(name, field):
        return layers.get(name, {}).get(field, 0) / cycles

    values = {name: span(sp, field)
              for name, (_, sp, field) in SPAN_METRICS.items()}
    values["spectral.mesh_nodes"] = sum(n for n, _ in traced["eig"]) / cycles
    values["spectral.eig_residual_max"] = max(
        (r for _, r in traced["eig"]), default=0.0)
    values["spectral.solver_errors"] = float(layers.get(
        "spectral.best_constant", {}).get("errors", {}).get("SolverError", 0))
    values["sharpness.bound_s"] = (span("sharpness.bound_general", "self_s")
                                   + span("sharpness.bound_power", "self_s"))
    values["cli.import_s"] = imports["wirtinger.cli"]
    values["spectral.import_s"] = imports["wirtinger.spectral"]
    handler = [s["handler_s"] or 0.0 for s in cli]
    values["cli.handler_s"] = sum(handler)
    values["cli.overhead_s"] = sum(s["s"] for s in cli) - sum(handler)
    values["cli.nonzero_exits"] = float(sum(s["returncode"] != 0
                                            for s in cli))
    values["trace.ops_per_s_ratio"] = (
        (len(traced["samples"]) / traced["elapsed_s"])
        / (len(untraced["samples"]) / untraced["elapsed_s"]))
    return values


PER_LAYER_UNITS = {name: unit for name, (unit, _, _) in SPAN_METRICS.items()}
PER_LAYER_UNITS.update({
    "spectral.mesh_nodes": "count", "spectral.eig_residual_max": "ratio",
    "spectral.solver_errors": "count", "sharpness.bound_s": "s",
    "cli.import_s": "s", "spectral.import_s": "s", "cli.handler_s": "s",
    "cli.overhead_s": "s", "cli.nonzero_exits": "count",
    "trace.ops_per_s_ratio": "ratio",
})

#: per-layer times that are parts of op time, printed as a share of it
OP_SHARE = [name for name, unit in PER_LAYER_UNITS.items()
            if unit == "s" and not name.startswith(("cli.", "spectral.im"))]


# -- one workload -------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    env = workloads.bench_env(SRC)
    probe = worker_argv(workload, seed, "--setup-only")
    setups, starts = [], []

    def probes(count):
        for _ in range(count):
            setups.append(run_worker(probe, env, PROBE_TIMEOUT)[0])
            starts.append(run_worker(speed.START_ARGV, env,
                                     PROBE_TIMEOUT)[0])

    probes(1)                                  # warm-up, discarded
    setups, starts = [], []
    # set-up probes on both sides of the loop, to see more than one
    # stretch of the machine's drifting speed
    before = SETUP_RUNS // 2
    probes(before)
    setup, out = run_worker(
        worker_argv(workload, seed, "--seconds", str(seconds),
                    "--trace", str(trace)), env, seconds + 100.0)
    result = json.loads(out.strip().splitlines()[-1])
    setups.append(setup)
    probes(SETUP_RUNS - before - 1)
    labels = result["labels"]
    phases = result["phases"]
    checked = [dict(s, label=labels[s["op"]])
               for phase in phases for s in phase["samples"]]
    checked += result.get("cli", [])
    failed = [s for s in checked if s["problem"] is not None]
    worst = {}              # op label -> worst relative error of the run
    for s in checked:
        if s["rel_err"] is not None:
            worst[s["label"]] = max(s["rel_err"], worst.get(s["label"], 0.0))

    values, notes, tail, speeds = end_to_end(setups, starts, phases[0],
                                             result["peak_rss_mib"])
    if trace:
        metrics = per_layer(phases[0], phases[1], result["cli"],
                            import_times(env))
        units = PER_LAYER_UNITS
    else:
        metrics, units = values, END_TO_END_UNITS

    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"one closed-loop caller, BLAS threads {result['blas_threads']}")
    print(f"   op mix, {len(labels)} ops per cycle: " + "; ".join(labels))
    excluded = sorted({labels[i] for i, ex in enumerate(result["exact"])
                       if not ex})
    if excluded:
        more = f"; and {len(excluded) - 4} more" if len(excluded) > 4 else ""
        print("   max_rel_err leaves out ops with no closed form: "
              + "; ".join(excluded[:4]) + more)
    print(f"   times scaled to the reference speed (perfbench/speed.py): "
          f"the machine ran {speeds['loop_slowdown']:.4g}x slower in the "
          f"loop, {speeds['start_slowdown']:.4g}x at cold start")
    if trace:
        print("   (end-to-end figures below are from the untraced half)")
    for name, unit in END_TO_END_UNITS.items():
        print(f"   {name:<14} {values[name]:<14.6g} {unit:<6} {notes[name]}")
    print(f"   {'fail_ratio':<14} {len(failed) / len(checked):<14.6g} "
          f"{'ratio':<6} {len(failed)} of {len(checked)} failed")
    large = {k: v for k, v in worst.items()
             if _N.search(k) and int(_N.search(k).group(1)) >= LARGE_N}
    if large:
        label = max(large, key=large.get)
        print(f"   worst relative error at n >= {LARGE_N}: "
              f"{large[label]:.6g} ({label})")
    print("   worst relative error per op:")
    for label in sorted(worst):
        print(f"     {worst[label]:<12.4g} {label}")
    for s in failed[:10]:
        print(f"   FAILED {s['label']}: {s['problem']}")
    if trace:
        total = phases[1]["layers"]["op"]["incl_s"] / phases[1]["cycles"]
        print(f"   traced half: {phases[1]['cycles']} cycles, op time "
              f"{total:.6g} s per cycle; spans in {result['spans_file']}")
        for s in result["cli"]:
            print(f"   cold {s['label']}: {s['s']:.4f} s, handler "
                  f"{s['handler_s']} s, exit {s['returncode']}")
        for name, unit in PER_LAYER_UNITS.items():
            share = (f"{100 * metrics[name] / total:5.1f}% of op time"
                     if name in OP_SHARE else "")
            print(f"   {name:<36} {metrics[name]:<14.6g} {unit:<6} {share}")

    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "blas_threads": result["blas_threads"],
              "op_mix": labels, "setup_runs_s": setups, "tail": tail,
              "rel_err_by_op": worst, "speed": speeds,
              "op_times": [[s["t"], s["s"]] for s in phases[0]["samples"]],
              "reference_work": phases[0]["ref_s"],
              "reference_starts_s": starts,
              "cycles": [p["cycles"] for p in phases],
              "failures": [{"op": s["label"], "problem": s["problem"]}
                           for s in failed],
              "end_to_end": values, "metrics": metrics}
    with open(os.path.join(
            OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    return {"correct": not failed, "attempted": len(checked),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(seed, seconds, trace):
    """Every workload, one after another, each in fresh workers."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        one = run_workload(workload, seed, seconds, trace)
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for name, m in one["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    with open(os.path.join(OUT, f"all-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump(combined, fh, indent=1)
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark of the wirtinger package.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="makes the inputs; the same seed, the same "
                             "inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="closed-loop time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wirtinger", "__init__.py")):
        _fail(f"no wirtinger sources under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
