"""Change of variables reducing two weights to one geometric-mean weight.

The forward map is the normalized antiderivative of sqrt(a/b), one
piecewise-linear map inverted exactly: exact for piecewise-constant
weights, of the density's midpoint surrogate otherwise.  The explicit
piecewise-linear homeomorphism for the extremal power-weight family and
the functional-equation sharpness residual live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import (PROBE_GRID, TWO_PI, PeriodicWeight, panel_quadrature,
                      periodic_lift, product, sqrt_ratio, weighted_moments)

#: probe points and grid phases of the functional-equation residual; the
#: probes are the odd half of PROBE_GRID, the midpoints (i + 1/2) 2pi/N_PROBES,
#: and the phases k 2pi/N_PHASES (see _phase_scan for the lattice they form)
N_PROBES = PROBE_GRID.size // 2
N_PHASES = 2 * N_PROBES


class PiecewiseLinearMap:
    """Continuous, strictly increasing piecewise-linear map of the line.

    Defined by its breakpoints in [0, 2pi), the value at each breakpoint
    and the slope on each interval; extended everywhere by the periodic
    lift f(x + 2pi) = f(x) + 2pi.
    """

    __slots__ = ("breakpoints", "values", "slopes")

    def __init__(self, breakpoints, values, slopes):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        if bp[0] != 0.0 or vals[0] != 0.0:
            raise ValueError("map must fix the origin")
        if np.any(sl <= 0.0):
            raise ValueError("slopes must be positive")
        edges = np.concatenate((bp, [TWO_PI]))
        # a gap counts along the flatter axis, 1e-10 in value or argument, so
        # a steep piece's rounded breakpoints fail neither map nor inverse
        tol = 1e-10 * np.maximum(1.0, sl)
        rise = vals[-1] + sl[-1] * (TWO_PI - bp[-1])
        if abs(rise - TWO_PI) > tol[-1]:
            raise ValueError("map must carry [0, 2pi) onto [0, 2pi)")
        # continuity at interior breakpoints
        implied = vals[:-1] + sl[:-1] * np.diff(edges)[:-1]
        if np.any(np.abs(implied - vals[1:]) > tol[:-1]):
            raise ValueError("breakpoint values break continuity")
        self.breakpoints = bp
        self.values = vals
        self.slopes = sl

    def __call__(self, x):
        return periodic_lift(x, self.breakpoints, self.values, self.slopes,
                             TWO_PI)

    def inverse(self):
        """Exact inverse map (also piecewise linear)."""
        return PiecewiseLinearMap(self.values, self.breakpoints,
                                  1.0 / self.slopes)


@dataclass(frozen=True)
class ChangeOfVariables:
    """The pair (tau(theta), theta(tau)) with its normalizing constant."""

    a: PeriodicWeight
    b: PeriodicWeight
    c: float
    density: PeriodicWeight        # sqrt(a/b)
    forward: PiecewiseLinearMap    # tau(theta), see build_cov
    inverse: PiecewiseLinearMap    # theta(tau), its exact inverse


def build_cov(a, b):
    """Construct the change of variables for the weight pair (a, b).

    tau is the integral of the density's `cells()` divided by c, its mean:
    exact for a piecewise-constant density, and for a sampled one the
    integral of its PANELS-panel midpoint surrogate.
    """
    density = sqrt_ratio(a, b)
    c = density.mean()
    edges, cum, vals = density.cells()
    fwd = PiecewiseLinearMap(edges, cum[:-1] / c, vals / c)
    return ChangeOfVariables(a=a, b=b, c=c, density=density, forward=fwd,
                             inverse=fwd.inverse())


def transported_geometric_mean(cov):
    """The weight tau -> sqrt(a(theta(tau)) * b(theta(tau)))."""
    a, b = cov.a, cov.b
    if cov.density.kind == "piecewise_constant":
        g0 = product(a, b)
        tau_bp = cov.forward(g0.breakpoints)
        return PeriodicWeight.piecewise(tau_bp, np.sqrt(g0.values))

    def g(tau):
        theta = cov.inverse(tau)
        return np.sqrt(np.asarray(a.eval(theta)) * np.asarray(b.eval(theta)))

    return PeriodicWeight.from_callable(g)


def substitution_check(cov, w, wprime):
    """Relative residuals of the three substitution identities.

    Checks int a w^2 dtheta = c int g xi^2 dtau, the same for the first
    moment, and int b w'^2 dtheta = (1/c) int g xi'^2 dtau, with
    xi(tau) = w(theta(tau)) and g the transported geometric mean.  Both
    sides are `panel_quadrature`, cut at the breakpoints of a
    and b and at their images under tau: at roundoff for piecewise-constant
    weights, at the error of build_cov's midpoint surrogate otherwise.
    An a or b whose integral over a period overflows a float, which would
    make the residuals nan, is a ValueError.
    """
    a, b, c = cov.a, cov.b, cov.c
    for name, weight in (("a", a), ("b", b)):
        if math.isinf(weight.mean()):
            raise ValueError(f"the integral of {name} over a period "
                             "overflows a float")
    bps = [a.breakpoints, b.breakpoints]
    th, dth = panel_quadrature(bps)
    sq, mom, absmom, grad = weighted_moments(dth, a.eval(th), b.eval(th),
                                             w(th), wprime(th))
    lhs, scales = (sq, mom, grad), (sq, absmom, grad)

    tau, dtau = panel_quadrature([cov.forward(bp) for bp in bps])
    th_of_tau = cov.inverse(tau)
    g = np.asarray(transported_geometric_mean(cov).eval(tau))
    # chain rule: theta'(tau) = c / sqrt(a/b) at theta(tau)
    theta_slope = c / np.asarray(cov.density.eval(th_of_tau))
    sq, mom, _, grad = weighted_moments(dtau, c * g, g / c, w(th_of_tau),
                                        wprime(th_of_tau) * theta_slope)
    rhs = (sq, mom, grad)

    residuals = []
    for lv, rv, sc in zip(lhs, rhs, scales):
        if sc == 0.0:
            residuals.append(0.0 if rv == 0.0 else math.inf)
            continue
        if abs(lv) < 1e-12 * sc:
            if abs(rv) > 1e-6 * sc:
                raise ValueError("identity left side vanishes but right side "
                                 f"does not ({lv:g} vs {rv:g})")
            residuals.append(abs(lv - rv) / sc)
        else:
            residuals.append(abs(lv - rv) / abs(lv))
    return tuple(residuals)


def c_pq(M, p, q):
    """Normalizing constant 2 / (1 + M^(-(p-q)/2)) of the extremal family."""
    return 2.0 / (1.0 + float(M) ** (-(p - q) / 2.0))


_TOO_STEEP = ("M = {:g}, p = {:g}, q = {:g} is too steep for floats: a piece "
              "of the extremal map has zero width")


def _slope_ratio(M, p, q, name):
    """M^(-(p-q)/2), the ratio of the extremal map's two slopes."""
    if p + q <= 0:
        raise ValueError(f"{name} requires p + q > 0")
    try:
        return float(M) ** (-(p - q) / 2.0)
    except OverflowError:
        raise ValueError(_TOO_STEEP.format(M, p, q)) from None


def _require_width(cuts, M, p, q):
    """ValueError where the cuts of [0, 2pi), h_pq's values or h_pq_inv's
    breakpoints, fail to rise strictly below 2pi: a piece of zero width.
    A nan M passes, for PeriodicWeight to refuse as not finite."""
    if np.any(np.diff(cuts, append=TWO_PI) <= 0.0):
        raise ValueError(_TOO_STEEP.format(M, p, q))


def h_pq(M, p, q):
    """Piecewise-linear homeomorphism tau -> theta for the extremal family.

    Slopes c*{1, M^(-(p-q)/2)} alternating on the four quarter-intervals.
    Requires p + q > 0.
    """
    m = _slope_ratio(M, p, q, "h_pq")
    c = 2.0 / (1.0 + m)
    half = math.pi / 2.0
    bp = np.array([0.0, half, math.pi, 3 * half])
    vals = c * np.array([0.0, half, half * (1.0 + m), half * (2.0 + m)])
    _require_width(vals, M, p, q)
    slopes = c * np.array([1.0, m, 1.0, m])
    return PiecewiseLinearMap(bp, vals, slopes)


def h_pq_inv(M, p, q):
    """Inverse of h_pq, per its explicit four-case form."""
    m = _slope_ratio(M, p, q, "h_pq_inv")
    c = 2.0 / (1.0 + m)
    half = math.pi / 2.0
    bp = np.array([0.0, c * half, math.pi, math.pi + c * half])
    _require_width(bp, M, p, q)
    vals = np.array([0.0, half, math.pi, 3 * half])
    slopes = np.array([1.0 / c, 1.0 / (c * m), 1.0 / c, 1.0 / (c * m)])
    return PiecewiseLinearMap(bp, vals, slopes)


def _phase_scan(gv, L):
    """max_i |gv_i - wave(probes_i + phi_k, L)| at every grid phase phi_k.

    wave is the square wave, 1 on the quarters [0, pi/2) and
    [pi, 3pi/2) of the period and L on the other two. Relies on the
    lattice of probes and phases: probe i is (2i + 1) d and phase k is
    k d, d = 2pi/N_PHASES, with N_PHASES = 2 N_PROBES and N_PROBES
    divisible by 4 (a power of two, for the window doubling below). At
    phase k probe i then lies in quarter (2i + 1 + k) // (N_PHASES/4),
    lo when even, and so does the float sum probes_i + phi_k, ties
    included.
    Probes i and i + n/2 are two quarters apart, so each deviation row
    folds to n/2 entries by max; there the lo probes of phase k are the
    cyclic window of n/4 starting at -((k + 1) // 2), and the hi probes
    the window n/4 later. max is exact, so each residual is the same
    float as the direct scan.
    """
    half, quarter = gv.size // 2, gv.size // 4
    dev = np.abs(gv - np.array([[1.0], [L]]))
    win = np.maximum(dev[:, :half], dev[:, half:])
    # win[:, j] becomes the max over the cyclic window [j, j + quarter)
    width = 1
    while width < quarter:
        win = np.maximum(win, np.roll(win, -width, axis=1))
        width *= 2
    lo = -((np.arange(2 * gv.size) + 1) // 2) % half
    return np.maximum(win[0, lo], win[1, (lo + quarter) % half])


def functional_eq_residual(g):
    """Phase-minimized sup-residual of the sharpness functional equation.

    Normalizes g to infimum 1 and compares it against the square-wave
    extremal pattern with the matching oscillation L at the N_PROBES odd
    points of the weights' PROBE_GRID. The mismatch at phase phi depends
    on phi only through the quarter each probe lies in, and a probe
    (2i + 1) d, d = 2pi/N_PHASES, meets a quarter boundary (a multiple
    of N_PHASES/4 d) only at an odd multiple of d. So the mismatch is a
    step function of phi, constant between consecutive odd multiples of
    d, and the N_PHASES grid phases k d, which hold every step and every
    boundary point, attain its minimum over all real phi. Returns
    (residual, best_phase), best_phase the first grid phase of least
    mismatch (a multiple of 2pi/N_PHASES in [0, 2pi)).
    """
    bounds = g.ess_bounds()
    L = bounds.sup / bounds.inf
    gv = np.asarray(g.eval(PROBE_GRID[1::2])) / bounds.inf
    grid_res = _phase_scan(gv, L)
    k = int(np.argmin(grid_res))
    return float(grid_res[k]), k * (TWO_PI / N_PHASES)
