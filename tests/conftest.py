"""Shared fixtures, and the numpy and scipy versions in pytest's report.

The float.hex goldens in tests/ and the CLI bytes in
perfbench/reference/cli.json were recorded with the versions pinned in
ci/constraints.txt; on another install they may fail in the last bits.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy

CONSTRAINTS = Path(__file__).resolve().parents[1] / "ci" / "constraints.txt"


def _version_lines():
    pinned = dict(line.strip().split("==")
                  for line in CONSTRAINTS.read_text().splitlines()
                  if "==" in line and not line.startswith("#"))
    return [f"{name} {mod.__version__} (goldens recorded with "
            f"{pinned.get(name, 'an unpinned version')})"
            for name, mod in (("numpy", np), ("scipy", scipy))]


def pytest_report_header(config):
    return _version_lines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header; repeat the versions under a failed run
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
