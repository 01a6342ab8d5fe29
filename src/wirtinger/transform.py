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
#: probes are the odd half of PROBE_GRID, the midpoints (i + 1/2) 2pi/N_PROBES
N_PROBES = PROBE_GRID.size // 2
N_PHASES = 4096

#: phases scanned before the rest, which is skipped on an exact zero
HEAD_PHASES = N_PHASES // 16


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
        idx = np.searchsorted(self.breakpoints, rem, side="right") - 1
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
    density: PeriodicWeight            # sqrt(a/b)
    forward_map: PiecewiseLinearMap    # tau(theta), see build_cov

    def forward(self, theta):
        """tau(theta): normalized antiderivative of sqrt(a/b)."""
        return self.forward_map(theta)

    def inverse(self, tau):
        """theta(tau): the exact inverse of the forward map."""
        return self.forward_map.inverse()(tau)


def build_cov(a, b):
    """Construct the change of variables for the weight pair (a, b).

    tau is the integral of the density's `cells()` divided by c, its mean:
    exact for a piecewise-constant density, and for a sampled one the
    integral of its PANELS-panel midpoint surrogate.
    """
    density = sqrt_ratio(a, b)
    c = density.mean()
    edges, cum, vals = density.cells()
    fwd_map = PiecewiseLinearMap(edges, cum[:-1] / c, vals / c)
    return ChangeOfVariables(a=a, b=b, c=c, density=density,
                             forward_map=fwd_map)


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


def _quarter(t):
    """Quarter index of t in [0, 4pi): 4 per wrap plus the quarter of t mod 2pi.

    Its parity is the lo/hi split of `_bar_a_pattern` (even means lo).
    """
    tm = np.mod(t, TWO_PI)
    return (4 * (t >= TWO_PI) + (tm >= math.pi / 2) + (tm >= math.pi)
            + (tm >= 3 * math.pi / 2))


def _phase_scan(gv, probes, phases, L):
    """max_i |gv_i - _bar_a_pattern(probes_i + phi, L)| for every phi in phases.

    For phi in [0, 2pi) and sorted probes the times fl(probes_i + phi) lie
    in [0, 4pi) and never decrease with i, and np.mod is exact there, so
    the quarter index never decreases either: each phase splits the probes
    into 8 runs of one quarter. The run of level l starts near
    ceil((l pi/2 - phi)/h - 1/2) on the midpoint grid (i + 1/2)h, h = 2pi/n;
    from there each start moves one probe per pass, checked against
    `_quarter` on the actual floats, until no start moves (two passes on
    the midpoint grid, more on other sorted grids). The residual is the max
    of |gv - 1| or |gv - L| over each run, by the parity of the run, read
    from a sparse table of maxima over power-of-two windows; max is exact,
    so the result is the same float as the direct scan.
    """
    n = probes.size
    levels = np.arange(1, 8)
    t = phases[:, None]
    est = np.ceil((levels * (math.pi / 2) - t) / (TWO_PI / n) - 0.5)
    starts = np.clip(est, 0, n).astype(np.intp)
    while True:
        down = (starts > 0) & (
            _quarter(probes[np.maximum(starts - 1, 0)] + t) >= levels)
        up = (starts < n) & (
            _quarter(probes[np.minimum(starts, n - 1)] + t) < levels)
        if not (down.any() or up.any()):
            break
        starts = starts - down + up

    # table[k, j, i] = max of row j of the deviations over [i, i + 2^k);
    # column n keeps the start n of an empty last run in range
    depth = n.bit_length()
    table = np.zeros((depth, 2, n + 1))
    table[0, 0, :n] = np.abs(gv - 1.0)
    table[0, 1, :n] = np.abs(gv - L)
    for k in range(1, depth):
        half, width = 1 << (k - 1), n - (1 << k) + 1
        np.maximum(table[k - 1, :, :width], table[k - 1, :, half:half + width],
                   out=table[k, :, :width])
    # run j of a phase is [lo_j, hi_j); two windows of width 2^k with
    # k = floor(log2(hi_j - lo_j)) cover it
    edges = np.hstack((np.zeros_like(starts[:, :1]), starts,
                       np.full_like(starts[:, :1], n)))
    lo, hi = edges[:, :-1], edges[:, 1:]
    size = hi - lo
    k = np.maximum(np.frexp(size)[1] - 1, 0)
    parity = np.arange(8) % 2
    run_max = np.maximum(table[k, parity, lo],
                         table[k, parity, hi - (1 << k)])
    # an empty run reads arbitrary in-range entries; 0 is neutral instead,
    # as every deviation is >= 0
    return np.max(np.where(size > 0, run_max, 0.0), axis=1)


def functional_eq_residual(g):
    """Phase-minimized sup-residual of the sharpness functional equation.

    Normalizes g to infimum 1 and compares it against the square-wave
    extremal pattern with the matching oscillation L at the N_PROBES odd
    points of the weights' PROBE_GRID. A sampled g is read from the
    `probe_samples` its constructor kept there, not evaluated again.
    `_phase_scan` gives the sup-norm mismatch at the N_PHASES phases of
    a grid: the first HEAD_PHASES, and the rest only when none of those
    has a mismatch of exactly 0, which no phase can beat (the first
    phase that attains it is the one a full scan picks). The best grid
    phase is then refined by golden-section search, unless its mismatch
    is exactly 0. Returns (residual, best_phase).
    """
    bounds = g.ess_bounds()
    L = bounds.sup / bounds.inf
    probes = PROBE_GRID[1::2]
    if g.probe_samples is not None:
        gv = g.probe_samples[1::2] / bounds.inf
    else:
        gv = np.asarray(g.eval(probes)) / bounds.inf

    def residual(phi):
        return float(np.max(np.abs(gv - _bar_a_pattern(probes + phi, L))))

    phases = np.arange(N_PHASES) * (TWO_PI / N_PHASES)
    grid_res = _phase_scan(gv, probes, phases[:HEAD_PHASES], L)
    if grid_res.min() > 0.0:
        grid_res = np.concatenate(
            (grid_res, _phase_scan(gv, probes, phases[HEAD_PHASES:], L)))
    k = int(np.argmin(grid_res))
    best_phi, best_res = float(phases[k]), float(grid_res[k])
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
