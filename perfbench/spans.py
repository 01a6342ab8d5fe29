"""In-memory span recorder for the traced benchmark run.

The tracer replaces module attributes of the installed `wirtinger`
package (for example `wirtinger.spectral.best_constant`) with wrappers
that record one span per call: name, start, end, parent span and the
operation that caused it.  Calls inside the package reach each other
through those attributes, so the package itself is not modified.  Names
re-exported by `wirtinger/__init__` keep pointing at the originals, so
the benchmark calls `wirtinger.<module>.<fn>` only.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

#: (module of wirtinger, class in it or None, attribute, span name)
WRAPPED = (
    ("spectral", None, "best_constant", "spectral.best_constant"),
    ("spectral", None, "build_mesh", "spectral.build_mesh"),
    ("spectral", None, "assemble", "spectral.assemble"),
    ("spectral", None, "converge", "spectral.converge"),
    ("transform", None, "build_cov", "transform.build_cov"),
    ("transform", None, "transported_geometric_mean",
     "transform.transported_geometric_mean"),
    ("transform", None, "functional_eq_residual",
     "transform.functional_eq_residual"),
    ("sharpness", None, "bound_general", "sharpness.bound_general"),
    ("sharpness", None, "bound_power", "sharpness.bound_power"),
    ("sharpness", None, "verify_sharpness", "sharpness.verify_sharpness"),
    ("sharpness", None, "sharpness_characterization",
     "sharpness.sharpness_characterization"),
    ("weights", "PeriodicWeight", "eval", "weights.eval"),
    ("weights", "PeriodicWeight", "__call__", "weights.eval"),
    ("weights", "PeriodicWeight", "antiderivative", "weights.antiderivative"),
)

#: spans whose second positional argument is an array of angles
POINT_SPANS = ("weights.eval", "weights.antiderivative")

# span record layout (lists, so the end time can be filled in place)
NAME, START, END, PARENT, OP, ERROR, POINTS = range(7)


class Tracer:
    """Records nested spans while installed; single-threaded."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.captured = []      # (a, b, SpectralResult) per best_constant
        self.paused = False     # pass calls straight through while set
        self._stack = []
        self._undo = []

    def begin(self, name, op=-1):
        """Open a span by hand (the benchmark's per-operation root)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, op,
                           None, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx, error=None):
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        rec[ERROR] = error
        self._stack.pop()

    def _wrap(self, fn, name):
        count_points = name in POINT_SPANS
        capture = name == "spectral.best_constant"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            points = 0
            if count_points:
                points = int(np.size(args[1] if len(args) > 1
                                     else kwargs["theta"]))
            rec = [name, 0.0, 0.0, parent, self.op, None, points]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if capture:
                self.captured.append((args[0], args[1], out))
            return out

        return wrapper

    def install(self):
        """Wrap every attribute in WRAPPED; `uninstall` restores them."""
        import importlib
        for module, owner, attr, name in WRAPPED:
            target = importlib.import_module(f"wirtinger.{module}")
            if owner is not None:
                target = getattr(target, owner)
            original = target.__dict__[attr]
            self._undo.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": rec[PARENT],
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "op": rec[OP], "error": rec[ERROR],
                    "points": rec[POINTS]}) + "\n")


def eig_residual(a, b, result):
    """Relative eigenpair residual ||K u - lambda M u|| / ||K u||.

    Rebuilds the stiffness and mass matrices on the result's own nodes
    through the public `assemble`; call with the tracer paused so the
    check adds no spans.
    """
    from wirtinger import spectral
    mesh = spectral.Mesh(nodes=np.asarray(result.nodes))
    stiff, mass = spectral.assemble(a, b, mesh)
    u = np.asarray(result.eigenfunction)
    ku = stiff @ u
    return float(np.linalg.norm(ku - result.lambda1 * (mass @ u))
                 / np.linalg.norm(ku))


def layer_totals(spans):
    """Per-name totals: calls, self and inclusive seconds, points, errors.

    `spans` is a list of records in the layout above, with PARENT as an
    index into the same list.  Self time is a span's duration minus the
    durations of its direct children (children never overlap: one
    thread, strictly nested calls).
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out = {}
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        t = out.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0,
                                       "incl_s": 0.0, "points": 0,
                                       "errors": {}})
        t["calls"] += 1
        t["self_s"] += dur - child[i]
        t["incl_s"] += dur
        t["points"] += rec[POINTS]
        if rec[ERROR] is not None:
            t["errors"][rec[ERROR]] = t["errors"].get(rec[ERROR], 0) + 1
    return out
