"""Print two sha256 digests over the outcomes of every benchmark workload.

Builds each workload of perfbench/workloads.py at seeds 1 and 2 and runs
each distinct operation of a seed once, in label order, under
perfbench/spans.py's Tracer, which keeps every SpectralResult that
`spectral.best_constant` returns.  This script also wraps
`spectral.fem_constant`, which `converge` calls, and keeps what it
returns.  The first digest covers, per operation,

* every SpectralResult that `spectral.best_constant` returns, then every
  one that `spectral.fem_constant` returns, each in call order: constant,
  lambda_1 and residual as float.hex, then the bytes of the eigenfunction
  and of the nodes;
* the operation's workload, seed, label and return value (floats as
  float.hex).

The second digest, on the second line, covers only each operation's
workload, seed, label and return value, and the constant and lambda_1 of
every captured SpectralResult, as float.hex: it leaves out the
eigenfunction, the nodes and the residual, which roundoff in the
eigenfunction moves while the numbers the benchmark checks stay put.

Two checkouts that print the same first digest return the same bits on
the benchmark's inputs; the same second digest, the same constants.  BLAS
runs one thread, as in the benchmark.  Run from anywhere:

    python ci/outcome_hash.py
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

# before numpy loads, as perfbench/workloads.py `bench_env` sets them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def encode(value):
    """Bytes of an operation's return value: floats as float.hex."""
    if isinstance(value, tuple):
        return b"(" + b",".join(map(encode, value)) + b")"
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def main():
    from wirtinger import spectral
    digest, constants = hashlib.sha256(), hashlib.sha256()
    # the tracer keeps every SpectralResult that best_constant returns,
    # in call order, and `recorded` every one that fem_constant returns
    tracer = spans.Tracer()
    tracer.install()
    fem_constant, fem_results = spectral.fem_constant, []

    def recorded(*args, **kwargs):
        fem_results.append(fem_constant(*args, **kwargs))
        return fem_results[-1]

    spectral.fem_constant = recorded
    try:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                ops = {op.label: op for op in workloads.build(workload, seed)}
                for label in sorted(ops):
                    name = f"{workload} {seed} {label}".encode()
                    digest.update(name)
                    constants.update(name)
                    value = ops[label].run()
                    captured = [res for _, _, res in tracer.captured]
                    for res in captured + fem_results:
                        for x in (res.constant, res.lambda1, res.residual):
                            digest.update(float(x).hex().encode())
                        for x in (res.constant, res.lambda1):
                            constants.update(float(x).hex().encode())
                        digest.update(res.eigenfunction.tobytes())
                        digest.update(res.nodes.tobytes())
                    tracer.captured.clear()
                    tracer.spans.clear()
                    fem_results.clear()
                    digest.update(encode(value))
                    constants.update(encode(value))
    finally:
        spectral.fem_constant = fem_constant
        tracer.uninstall()
    print(digest.hexdigest())
    print(constants.hexdigest())


if __name__ == "__main__":
    main()
