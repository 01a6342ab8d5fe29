"""Shared fixtures, one BLAS thread, and the numpy and scipy versions in
pytest's report.

The tests run BLAS on one thread, as the benchmark does: the variables
below are set before numpy loads, so the float.hex goldens in tests/ and
the CLI bytes in perfbench/reference/cli.json hold on any number of
CPUs and whatever the caller's environment sets.  Both were recorded
with the versions pinned in ci/constraints.txt; on another install they
may fail in the last bits.  Constants at n >= 16384 depend on the BLAS
thread count in the last bits (ROADMAP item 9).
"""

import os
import sys
from pathlib import Path

import pytest

if "numpy" in sys.modules:
    sys.exit("tests/conftest.py: numpy was imported before the BLAS "
             "thread pin; the tests would not run on one thread")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pin above)
import scipy  # noqa: E402

CONSTRAINTS = Path(__file__).resolve().parents[1] / "ci" / "constraints.txt"


def _version_lines():
    pinned = dict(line.strip().split("==")
                  for line in CONSTRAINTS.read_text().splitlines()
                  if "==" in line and not line.startswith("#"))
    lines = [f"{name} {mod.__version__} (goldens recorded with "
             f"{pinned.get(name, 'an unpinned version')})"
             for name, mod in (("numpy", np), ("scipy", scipy))]
    return lines + ["BLAS threads pinned to 1"]


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
