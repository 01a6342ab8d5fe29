"""Print one sha256 over the outcomes of every benchmark workload.

Builds each workload of perfbench/workloads.py at seeds 1 and 2 and runs
each distinct operation of a seed once, in label order, under
perfbench/spans.py's Tracer, which keeps every SpectralResult that
`spectral.best_constant` returns.  The digest covers, in call order,

* every SpectralResult that `spectral.best_constant` returns: constant,
  lambda_1 and residual as float.hex, then the bytes of the eigenfunction
  and of the nodes;
* each operation's workload, seed, label and return value (floats as
  float.hex).

Two checkouts that print the same digest return the same bits on the
benchmark's inputs.  BLAS runs one thread, as in the benchmark.  Run from
anywhere:

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
    digest = hashlib.sha256()
    # the tracer keeps every SpectralResult that best_constant returns,
    # in call order
    tracer = spans.Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                ops = {op.label: op for op in workloads.build(workload, seed)}
                for label in sorted(ops):
                    digest.update(f"{workload} {seed} {label}".encode())
                    value = ops[label].run()
                    for _, _, res in tracer.captured:
                        for x in (res.constant, res.lambda1, res.residual):
                            digest.update(float(x).hex().encode())
                        digest.update(res.eigenfunction.tobytes())
                        digest.update(res.nodes.tobytes())
                    tracer.captured.clear()
                    tracer.spans.clear()
                    digest.update(encode(value))
    finally:
        tracer.uninstall()
    print(digest.hexdigest())

if __name__ == "__main__":
    main()
