"""Shared fixtures, and the numpy and scipy versions and the OpenBLAS
thread setting in pytest's report.

The float.hex goldens in tests/ and the CLI bytes in
perfbench/reference/cli.json were recorded with the versions pinned in
ci/constraints.txt and with threaded OpenBLAS; on another install they
may fail in the last bits, and with OPENBLAS_NUM_THREADS=1 the bar-a
golden at n = 32768 does.
"""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy

CONSTRAINTS = Path(__file__).resolve().parents[1] / "ci" / "constraints.txt"


def _version_lines():
    pinned = dict(line.strip().split("==")
                  for line in CONSTRAINTS.read_text().splitlines()
                  if "==" in line and not line.startswith("#"))
    lines = [f"{name} {mod.__version__} (goldens recorded with "
             f"{pinned.get(name, 'an unpinned version')})"
             for name, mod in (("numpy", np), ("scipy", scipy))]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return lines + [f"OPENBLAS_NUM_THREADS {threads} (goldens recorded with "
                    "threaded OpenBLAS; one thread changes the bar-a golden "
                    "at n = 32768)"]


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
