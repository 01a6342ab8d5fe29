"""2pi-periodic weight functions and their calculus.

A weight is piecewise constant or a sampled closed form.  Every integral
is the exact integral of its `cells()`, the pieces or PANELS midpoint
panels, and its bounds are one range fixed at construction.  All
weights are finite, strictly positive and immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: weights whose essential infimum falls below this are rejected
POSITIVITY_FLOOR = 1e-12

#: probe-grid size used when essential bounds must be estimated
PROBE_POINTS = 4096

#: angles at which a sampled weight is probed at construction
PROBE_GRID = np.linspace(0.0, TWO_PI, PROBE_POINTS, endpoint=False)
PROBE_GRID.setflags(write=False)

#: midpoint panels per period for closed-form quadrature
PANELS = 2048

#: edges of the closed-form quadrature panels, shared by every weight
_GRID_EDGES = np.linspace(0.0, TWO_PI, PANELS + 1)

#: 4-point Gauss-Legendre on [0, 1], the rule of every element and panel:
#: numpy's leggauss(4) mapped by x -> (x + 1) / 2, w -> w / 2, written out
#: so that importing this module does not load numpy.polynomial
GAUSS_NODES = np.array([float.fromhex(x) for x in (
    "0x1.1c6490c2719ecp-4", "0x1.51ee013116102p-2",
    "0x1.5708ff6774f7fp-1", "0x1.dc736de7b1cc2p-1")])
GAUSS_WEIGHTS = np.array([float.fromhex(x) for x in (
    "0x1.64340f7e7b666p-3", "0x1.4de5f840c24cdp-2",
    "0x1.4de5f840c24cdp-2", "0x1.64340f7e7b666p-3")])

#: the breakpoints of every sampled weight
_NO_BREAKPOINTS = np.empty(0)
_NO_BREAKPOINTS.setflags(write=False)


def match_scalar(theta, out):
    """`out` as a float when the angle argument `theta` is a scalar."""
    return float(out) if np.ndim(theta) == 0 else out


@dataclass(frozen=True)
class ClassMembership:
    """Essential infimum and supremum of a weight."""

    inf: float
    sup: float


class PeriodicWeight:
    """A 2pi-periodic, essentially bounded, positive weight function.

    Immutable after construction.  Evaluation is vectorized and total:
    any real angle is reduced modulo 2pi.  Piecewise-constant weights use
    the left-closed / right-open interval convention.

    Breakpoints and values must be finite, and values at least
    POSITIVITY_FLOOR.  A sampled closed form has no breakpoints (an empty
    read-only array) and is evaluated once on PROBE_GRID at construction;
    those samples must be finite and at least POSITIVITY_FLOOR, and their
    extremes are its range.
    """

    __slots__ = ("kind", "breakpoints", "values", "evaluator", "_cells",
                 "_range")

    def __init__(self, kind, breakpoints=None, values=None, evaluator=None):
        if kind not in ("piecewise_constant", "sampled_closed_form"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind

        if kind == "piecewise_constant":
            bp = np.atleast_1d(np.asarray(breakpoints, dtype=float))
            vals = np.atleast_1d(np.asarray(values, dtype=float))
            if bp.size == 0 or vals.size != bp.size:
                raise ValueError("need one value per breakpoint interval")
            if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
                raise ValueError("breakpoints and values must be finite")
            if np.any(bp < 0.0) or np.any(bp >= TWO_PI):
                raise ValueError("breakpoints must lie in [0, 2pi)")
            if np.any(np.diff(bp) <= 0.0):
                raise ValueError("breakpoints must be strictly increasing")
            if bp[0] != 0.0:
                # rotate the wrapped leading segment in front so the
                # partition always starts at 0
                bp = np.concatenate(([0.0], bp))
                vals = np.concatenate(([vals[-1]], vals))
            if np.min(vals) < POSITIVITY_FLOOR:
                raise ValueError("weight values must be >= 1e-12")
            samples = vals
            self.breakpoints = bp
            self.values = vals
            self.evaluator = None
            edges = np.concatenate((bp, [TWO_PI]))
            self._cells = (bp, _running_integral(vals, np.diff(edges)), vals)
        else:
            if evaluator is None:
                raise ValueError("sampled_closed_form requires an evaluator")
            self.breakpoints = _NO_BREAKPOINTS
            self.values = None
            self.evaluator = evaluator
            self._cells = None
            # an overflow or nan in the probe is rejected just below
            with np.errstate(over="ignore", invalid="ignore"):
                samples = self.eval(PROBE_GRID)
            if not np.all(np.isfinite(samples)):
                raise ValueError("weight is not finite")
            if np.min(samples) < POSITIVITY_FLOOR:
                raise ValueError("weight is not bounded away from zero")
        # exact range of a piecewise-constant weight; a closed form's probe
        self._range = (float(np.min(samples)), float(np.max(samples)))

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(v):
        return PeriodicWeight("piecewise_constant", [0.0], [float(v)])

    @staticmethod
    def piecewise(breakpoints, values):
        return PeriodicWeight("piecewise_constant", breakpoints, values)

    @staticmethod
    def from_callable(fn):
        """The sampled weight fn(theta); its range is its probe extremes."""
        return PeriodicWeight("sampled_closed_form", evaluator=fn)

    # -- evaluation ----------------------------------------------------

    def eval(self, theta):
        """Evaluate at angle(s) theta; periodic extension to all reals.

        Angles are reduced by np.mod unless every one already lies in
        (0, 2pi), where a copy is what np.mod returns, bit for bit, at a
        fraction of its cost.  Either way a sampled weight's evaluator
        gets an array of its own.
        """
        th = np.asarray(theta, dtype=float)
        if th.size and th.min() > 0.0 and th.max() < TWO_PI:
            thm = th.copy()
        else:
            thm = np.mod(th, TWO_PI)
        if self.kind == "piecewise_constant":
            idx = np.searchsorted(self.breakpoints, thm, side="right") - 1
            out = self.values[idx]
        else:
            out = np.asarray(self.evaluator(thm), dtype=float)
        return match_scalar(theta, out)

    __call__ = eval

    # -- bounds ----------------------------------------------------------

    def ess_bounds(self):
        """Essential infimum/supremum, fixed at construction.

        Exact for piecewise-constant weights.  For closed forms the
        extremes of the PROBE_GRID samples taken at construction: exact
        for `sine_family`, whose extrema at pi/2 and 3pi/2 are grid
        points, and for its monotone maps (`_map`).
        """
        return ClassMembership(*self._range)

    # -- algebra ---------------------------------------------------------

    @np.errstate(over="ignore")
    def _map(self, f, name):
        """Pointwise f(w) as a new weight, for a monotone f.

        As in `combine`, values that overflow a float are rejected; for a
        piecewise-constant weight the message calls the result the `name`
        weight.  A sampled result's range is f of the same probe samples,
        so a range attained on PROBE_GRID stays exact.
        """
        if self.kind == "piecewise_constant":
            return _derived(self.breakpoints, f(self.values), name)
        base = self.evaluator
        return PeriodicWeight.from_callable(lambda th: f(base(th)))

    def power(self, r):
        """Pointwise power w(theta)**r as a new weight."""
        r = float(r)
        return self._map(lambda x: x ** r, "powered")

    def scale(self, s):
        """Pointwise multiple s*w."""
        s = float(s)
        return self._map(lambda x: s * x, "scaled")

    # -- quadrature -------------------------------------------------------

    def cells(self):
        """(left edges, cumulative integral, values) of the weight's cells.

        The cumulative integral runs from 0 to every cell edge, so it has
        one entry more than there are cells; the last is the period's.
        Exact for a piecewise-constant weight, whose cells are its pieces;
        a closed form's are the PANELS panels, valued at their midpoints,
        and their integral is that of its midpoint surrogate.
        """
        if self._cells is None:
            mids = 0.5 * (_GRID_EDGES[:-1] + _GRID_EDGES[1:])
            vals = np.broadcast_to(self.eval(mids), mids.shape)
            self._cells = (_GRID_EDGES[:-1],
                           _running_integral(vals, np.diff(_GRID_EDGES)), vals)
        return self._cells

    def antiderivative(self, theta):
        """Integral of w from 0 to theta, for any real theta.

        The exact antiderivative of the piecewise-constant `cells()`:
        exact for piecewise-constant weights, and for closed forms that
        of the PANELS-panel midpoint surrogate, as in `build_cov`.
        """
        edges, cum, vals = self.cells()
        return periodic_lift(theta, edges, cum, vals, cum[-1])

    def mean(self):
        """Average value over one period: the cells' total over 2pi.

        inf when that total overflows a float."""
        return float(self.cells()[1][-1]) / TWO_PI


def _running_integral(values, widths):
    """0, then the running sums of values * widths.

    A sum past the float range is inf, without a numpy warning: a weight
    whose integral overflows is still a weight, and each computation
    that needs the integral refuses it there.
    """
    with np.errstate(over="ignore"):
        return np.concatenate(([0.0], np.cumsum(values * widths)))


def periodic_lift(x, breakpoints, values, slopes, rise):
    """A piecewise-linear function on [0, 2pi), lifted with `rise` per period.

    On [0, 2pi) it is values[i] + slopes[i] (x - breakpoints[i]) on the
    piece that starts at breakpoints[i], the first of which is 0.
    """
    xv = np.asarray(x, dtype=float)
    n_per = np.floor(xv / TWO_PI)
    rem = xv - TWO_PI * n_per
    # rem rounds slightly below 0 just under a multiple of 2pi; the first
    # piece continues linearly there
    idx = np.maximum(np.searchsorted(breakpoints, rem, side="right") - 1, 0)
    out = n_per * rise + (values[idx] + slopes[idx] * (rem - breakpoints[idx]))
    return match_scalar(x, out)


def sorted_unique(x):
    """np.unique of a 1-d float array without NaN, bit for bit.

    np.unique's own algorithm for floats, a sort and then each value that
    differs from its predecessor, without its masked-array check, whose
    first call imports numpy.ma.
    """
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def weighted_moments(gw, av, bv, wv, wpv):
    """The sums of gw a w^2, gw a w, gw a |w| and gw b w'^2, as floats.

    gw are quadrature weights; av, bv, wv, wpv are a, b, w, w' there."""
    wv, wpv = np.asarray(wv, dtype=float), np.asarray(wpv, dtype=float)
    return (float(np.sum(gw * av * wv**2)), float(np.sum(gw * av * wv)),
            float(np.sum(gw * av * np.abs(wv))),
            float(np.sum(gw * bv * wpv**2)))


def panel_quadrature(breakpoints):
    """4-point Gauss on panels of [0, 2pi] that never straddle a breakpoint.

    `breakpoints` is a sequence of angle arrays; those in [0, 2pi] cut the
    period, and each piece of length l between cuts gets
    max(1, ceil(PANELS * l / 2pi)) equal panels.  Returns the Gauss
    points and weights of all the panels, as two flat arrays.
    """
    cuts = sorted_unique(np.concatenate([[0.0, TWO_PI], *breakpoints]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= TWO_PI)]
    span = np.diff(cuts)
    counts = np.maximum(1, np.ceil(PANELS * span / TWO_PI)).astype(np.intp)
    # np.linspace(left, right, k + 1)[:-1], piece by piece: its arange(k)
    # times (right - left) / k, plus left
    widths = np.repeat(span / counts, counts)
    index = np.arange(widths.size) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    lefts = index * widths + np.repeat(cuts[:-1], counts)
    return ((lefts[:, None] + widths[:, None] * GAUSS_NODES).ravel(),
            (widths[:, None] * GAUSS_WEIGHTS).ravel())


def _derived(breakpoints, values, name):
    """The piecewise-constant weight of values computed from finite weights.

    A value that overflowed a float or fell below POSITIVITY_FLOOR is the
    computation's fault, not the inputs', and the ValueError says so.
    """
    if np.any(np.isinf(values)):
        raise ValueError(f"{name} weight overflows a float")
    if np.min(values) < POSITIVITY_FLOOR:
        raise ValueError(f"{name} weight falls below {POSITIVITY_FLOOR:g}")
    return PeriodicWeight.piecewise(breakpoints, values)


@np.errstate(over="ignore")
def combine(w1, w2, fn):
    """Pointwise combination fn(w1, w2) as a weight.

    Stays piecewise-constant (breakpoints merged) when both inputs are;
    falls back to a sampled closed form otherwise.  A combination that
    overflows a float or falls below POSITIVITY_FLOOR is rejected
    (ValueError).
    """
    if w1.kind == "piecewise_constant" and w2.kind == "piecewise_constant":
        bp = sorted_unique(np.concatenate((w1.breakpoints, w2.breakpoints)))
        v1 = w1.eval(bp)
        v2 = w2.eval(bp)
        return _derived(bp, fn(v1, v2), "combined")
    return PeriodicWeight.from_callable(
        lambda th: fn(np.asarray(w1.eval(th)), np.asarray(w2.eval(th))))


def product(w1, w2):
    """Pointwise product w1*w2."""
    return combine(w1, w2, lambda x, y: x * y)


def sqrt_ratio(a, b):
    """Pointwise sqrt(a/b), the density of the change of variables."""
    return combine(a, b, lambda x, y: np.sqrt(x / y))


def sine_family(M):
    """Smooth weight 1 + (M-1)(1+sin theta)/2, ranging over [1, M]."""
    M = float(M)
    if M < 1.0:
        raise ValueError("sine family requires M >= 1")
    return PeriodicWeight.from_callable(
        lambda th: 1.0 + (M - 1.0) * (1.0 + np.sin(th)) / 2.0)
