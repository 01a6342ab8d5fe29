"""Shared fixtures, and the numpy and scipy versions, the OpenBLAS
thread setting and the CPU count in pytest's report.

The float.hex goldens in tests/ and the CLI bytes in
perfbench/reference/cli.json were recorded with the versions pinned in
ci/constraints.txt and with threaded OpenBLAS; on another install they
may fail in the last bits. The bar-a golden at n = 32768 needs two or
more OpenBLAS threads, and OpenBLAS runs at most one thread per CPU the
process may use: the golden fails with OPENBLAS_NUM_THREADS=1, and on one
CPU (taskset -c 0) whatever the setting; on 2 CPUs it passes with the
variable unset or at 2 or more.
"""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy

CONSTRAINTS = Path(__file__).resolve().parents[1] / "ci" / "constraints.txt"


def _cpus():
    """The CPUs this process may run on, which cap OpenBLAS's threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _version_lines():
    pinned = dict(line.strip().split("==")
                  for line in CONSTRAINTS.read_text().splitlines()
                  if "==" in line and not line.startswith("#"))
    lines = [f"{name} {mod.__version__} (goldens recorded with "
             f"{pinned.get(name, 'an unpinned version')})"
             for name, mod in (("numpy", np), ("scipy", scipy))]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return lines + [f"OPENBLAS_NUM_THREADS {threads}, available CPUs {_cpus()} "
                    "(goldens recorded with threaded OpenBLAS; one thread, "
                    "or one CPU, changes the bar-a golden at n = 32768)"]


def pytest_report_header(config):
    return _version_lines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header; repeat its lines under a failed run
    if exitstatus != 0:
        for line in _version_lines():
            terminalreporter.write_line(line)


@pytest.fixture
def perturbed_eigsh(monkeypatch):
    """Make every eigsh call return eigenvectors perturbed by ~1e-3.

    `best_constant` looks eigsh up in scipy.sparse.linalg at call time.
    """
    import scipy.sparse.linalg as spla
    eigsh = spla.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals, vecs + 1e-3 * np.cos(np.arange(vecs.size)).reshape(
            vecs.shape)

    monkeypatch.setattr(spla, "eigsh", perturbed)
