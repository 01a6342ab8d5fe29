"""List the lines of src/wirtinger that the tier-1 tests never run.

Runs ``pytest -q -p no:cacheprovider --hypothesis-seed=0 tests`` in this
process under a line tracer (``sys.settrace`` and ``threading.settrace``)
that records only frames of src/wirtinger, then compares the lines that
ran with the lines of every code object compiled from those files.  Each
line that never ran is printed as ``file:line: source``.

Exits with pytest's status if a test fails, else 1 if an untested line is
not covered by ALLOWED or an ALLOWED entry matches no untested line, else
0.  Run from anywhere:

    python ci/untested_lines.py

This module imports nothing that loads numpy: tests/conftest.py pins the
BLAS threads and refuses a run whose numpy is already loaded.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = str(SRC / "wirtinger") + os.sep

#: the first source line of a statement, stripped, that may stay untested
#: (each of its lines), and why
ALLOWED = {
    "sys.exit(main())":
        "the __main__ guard of cli.py, for `python -m wirtinger.cli`; the "
        "tests call cli.main in-process, as the console script does",
    'raise SolverError("trial Rayleigh quotient is nonpositive")':
        "K is positive semidefinite with the constants as its kernel, M is "
        "positive definite, and the deflated cosine is not constant on a "
        "mesh of n >= 8 nodes",
    'raise ValueError("identity left side vanishes but right side "':
        "both sides integrate the same quantity, so they differ only when "
        "the change of variables is wrong",
}


def trace_tests():
    """Run the tests under the tracer: (pytest status, set of (file, line))."""
    hits = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return trace_lines
        return None

    import pytest
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def code_lines(code):
    """Every line that an instruction of `code` or a nested code object has."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def statement_starts(tree):
    """line -> first line of the innermost statement that spans it."""
    spans = sorted(((node.end_lineno - node.lineno, node.lineno,
                     node.end_lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.stmt)), reverse=True)
    # wider statements first, so an inner statement's lines overwrite them
    return {line: start for _, start, end in spans
            for line in range(start, end + 1)}


def untested(hits):
    """(file, line, source, allowlist key) for each line that never ran."""
    for path in sorted((SRC / "wirtinger").glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        starts = statement_starts(ast.parse(text))
        for line in sorted(code_lines(compile(text, str(path), "exec"))):
            if (str(path), line) not in hits:
                key = source[starts.get(line, line) - 1].strip()
                yield (path.relative_to(ROOT), line, source[line - 1].strip(),
                       key)


def main():
    status, hits = trace_tests()
    if status != 0:
        print(f"pytest exited with status {status}; no line report")
        return status
    missing = list(untested(hits))
    for path, line, text, _ in missing:
        print(f"{path}:{line}: {text}")
    keys = {key for *_, key in missing}
    outside = [f"{path}:{line}" for path, line, _, key in missing
               if key not in ALLOWED]
    stale = [key for key in ALLOWED if key not in keys]
    if outside:
        print(f"untested and not allowed: {', '.join(outside)}")
    for key in stale:
        print(f"allowed but no longer untested, drop it from ALLOWED: {key}")
    if outside or stale:
        return 1
    print(f"{len(missing)} untested lines, all in ALLOWED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
