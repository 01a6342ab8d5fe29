"""Fixed reference work that measures the machine's current speed.

The machine the benchmark runs on is shared, and its speed drifts by up
to a third over tens of minutes.  The drift slows the program and any
fixed piece of work alike, so the benchmark times two reference tasks
alongside the program and scales its times to the reference speed:

* `reference_work`, in the closed loop between operations: a sparse LU
  factorisation and solves, elementwise numpy passes over an array that
  does not fit in cache, and an interpreter loop, the three kinds of
  work the package's operations are made of;
* `START_ARGV`, next to each set-up probe: a cold interpreter that
  imports numpy and scipy.sparse.linalg, most of what a cold start of
  the package does.

Neither uses the package, so a change to the package moves the program's
times and not the reference times.  A time t measured while a reference
task took r seconds is reported as t * R / r, where R is the reference
task's time at the speed the baseline was measured at.
"""

from __future__ import annotations

import sys

#: seconds of one `reference_work()` at the reference speed
REF_WORK_S = 0.03

#: seconds until a `START_ARGV` process is ready, at the reference speed
REF_START_S = 0.45

#: timed like a set-up probe, until it prints "ready"
START_ARGV = (sys.executable, "-c",
              "import numpy, scipy.sparse.linalg; print('ready', flush=True)")

_inputs = None


def _build():
    import numpy as np
    import scipy.sparse as sp
    n = 16384
    off = np.full(n - 1, -1.0)
    matrix = sp.diags([off, np.full(n, 2.5), off], [-1, 0, 1], format="csc")
    array = np.random.default_rng(0).random(1 << 20)
    return matrix, np.ones(n), array


def reference_work():
    """One fixed task; its time is the machine's current speed."""
    global _inputs
    import scipy.sparse.linalg as sla
    if _inputs is None:
        _inputs = _build()
    matrix, rhs, array = _inputs
    lu = sla.splu(matrix)
    for _ in range(8):
        lu.solve(rhs)
    x = array
    for _ in range(3):
        x = (x * 1.0001 + 0.5) ** 0.5
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s
