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

from .weights import (PROBE_GRID, TWO_PI, PeriodicWeight, match_scalar,
                      product, split_panels, sqrt_ratio)

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
        rise = vals[-1] + sl[-1] * (TWO_PI - bp[-1])
        if abs(rise - TWO_PI) > 1e-10:
            raise ValueError("map must carry [0, 2pi) onto [0, 2pi)")
        # continuity at interior breakpoints
        implied = vals[:-1] + sl[:-1] * np.diff(edges)[:-1]
        if np.max(np.abs(implied - vals[1:]), initial=0.0) > 1e-10:
            raise ValueError("breakpoint values break continuity")
        self.breakpoints = bp
        self.values = vals
        self.slopes = sl

    def __call__(self, x):
        xv = np.asarray(x, dtype=float)
        n_per = np.floor(xv / TWO_PI)
        rem = xv - TWO_PI * n_per
        # rem rounds slightly below 0 just under a multiple of 2pi; the
        # first interval continues linearly there
        idx = np.maximum(
            np.searchsorted(self.breakpoints, rem, side="right") - 1, 0)
        out = (TWO_PI * n_per + self.values[idx]
               + self.slopes[idx] * (rem - self.breakpoints[idx]))
        return match_scalar(x, out)

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
    gb = product(a, b).ess_bounds()

    def g(tau):
        theta = cov.inverse(tau)
        return np.sqrt(np.asarray(a.eval(theta)) * np.asarray(b.eval(theta)))

    return PeriodicWeight.from_callable(
        g, declared_bounds=(math.sqrt(gb.inf), math.sqrt(gb.sup)))


def substitution_check(cov, w, wprime, panels=4096):
    """Relative residuals of the three substitution identities.

    Checks int a w^2 dtheta = c int g xi^2 dtau, the same for the first
    moment, and int b w'^2 dtheta = (1/c) int g xi'^2 dtau, with
    xi(tau) = w(theta(tau)) and g the transported geometric mean.  Both
    sides are computed by breakpoint-aligned midpoint quadrature.
    """
    a, b, c = cov.a, cov.b, cov.c
    bps = [wt.breakpoints for wt in (a, b) if wt.kind == "piecewise_constant"]
    lo, hi, dth = split_panels(bps, panels)
    th = 0.5 * (lo + hi)
    av, bv = a.eval(th), b.eval(th)
    wv = np.asarray(w(th), dtype=float)
    wpv = np.asarray(wprime(th), dtype=float)
    lhs = np.array([np.sum(av * wv**2 * dth),
                    np.sum(av * wv * dth),
                    np.sum(bv * wpv**2 * dth)])
    scales = np.array([lhs[0], np.sum(av * np.abs(wv) * dth), lhs[2]])

    lo, hi, dtau = split_panels([cov.forward(bp) for bp in bps], panels)
    tau = 0.5 * (lo + hi)
    th_of_tau = cov.inverse(tau)
    g = np.sqrt(np.asarray(a.eval(th_of_tau)) * np.asarray(b.eval(th_of_tau)))
    xi = np.asarray(w(th_of_tau), dtype=float)
    # chain rule: theta'(tau) = c / sqrt(a/b) at theta(tau)
    theta_slope = c / np.asarray(cov.density.eval(th_of_tau))
    xip = np.asarray(wprime(th_of_tau), dtype=float) * theta_slope
    rhs = np.array([c * np.sum(g * xi**2 * dtau),
                    c * np.sum(g * xi * dtau),
                    np.sum(g * xip**2 * dtau) / c])

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


def h_pq(M, p, q):
    """Piecewise-linear homeomorphism tau -> theta for the extremal family.

    Slopes c*{1, M^(-(p-q)/2)} alternating on the four quarter-intervals.
    Requires p + q > 0.
    """
    if p + q <= 0:
        raise ValueError("h_pq requires p + q > 0")
    m = float(M) ** (-(p - q) / 2.0)
    c = 2.0 / (1.0 + m)
    half = math.pi / 2.0
    bp = np.array([0.0, half, math.pi, 3 * half])
    vals = c * np.array([0.0, half, half * (1.0 + m), half * (2.0 + m)])
    slopes = c * np.array([1.0, m, 1.0, m])
    return PiecewiseLinearMap(bp, vals, slopes)


def h_pq_inv(M, p, q):
    """Inverse of h_pq, per its explicit four-case form."""
    if p + q <= 0:
        raise ValueError("h_pq_inv requires p + q > 0")
    m = float(M) ** (-(p - q) / 2.0)
    c = 2.0 / (1.0 + m)
    half = math.pi / 2.0
    bp = np.array([0.0, c * half, math.pi, math.pi + c * half])
    vals = np.array([0.0, half, math.pi, 3 * half])
    slopes = np.array([1.0 / c, 1.0 / (c * m), 1.0 / c, 1.0 / (c * m)])
    return PiecewiseLinearMap(bp, vals, slopes)


def _bar_a_pattern(tau, L):
    """The two-value square-wave reference weight on [0, 2pi)."""
    tm = np.mod(tau, TWO_PI)
    lo = (tm < math.pi / 2) | ((tm >= math.pi) & (tm < 3 * math.pi / 2))
    return np.where(lo, 1.0, float(L))


def _phase_scan(gv, L):
    """max_i |gv_i - _bar_a_pattern(probes_i + phi_k, L)| at every grid phase.

    Relies on the lattice of probes and phases: probe i is (2i + 1) d and
    phase k is k d, d = 2pi/N_PHASES, with N_PHASES = 2 N_PROBES and
    N_PROBES divisible by 4 (a power of two, for the window doubling
    below). At phase k probe i then lies in quarter
    (2i + 1 + k) // (N_PHASES/4), lo when even, and so does the float
    sum probes_i + phi_k that `_bar_a_pattern` reads, ties included.
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
    points of the weights' PROBE_GRID. `_phase_scan` gives the sup-norm
    mismatch at all N_PHASES grid phases at once; the first phase of
    least mismatch is refined by golden-section search, unless its
    mismatch is exactly 0, which no phase can beat. Returns
    (residual, best_phase).
    """
    bounds = g.ess_bounds()
    L = bounds.sup / bounds.inf
    probes = PROBE_GRID[1::2]
    gv = np.asarray(g.eval(probes)) / bounds.inf

    def residual(phi):
        return float(np.max(np.abs(gv - _bar_a_pattern(probes + phi, L))))

    grid_res = _phase_scan(gv, L)
    k = int(np.argmin(grid_res))
    best_phi, best_res = k * (TWO_PI / N_PHASES), float(grid_res[k])
    if best_res == 0.0:
        return best_res, best_phi

    # golden-section refinement; only pays off for continuous mismatch
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo = best_phi - TWO_PI / N_PHASES
    hi = best_phi + TWO_PI / N_PHASES
    x1 = hi - gr * (hi - lo)
    x2 = lo + gr * (hi - lo)
    f1, f2 = residual(x1), residual(x2)
    for _ in range(60):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - gr * (hi - lo)
            f1 = residual(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + gr * (hi - lo)
            f2 = residual(x2)
    for x, f in ((x1, f1), (x2, f2)):
        if f < best_res:
            best_res, best_phi = f, x
    return best_res, float(np.mod(best_phi, TWO_PI))
