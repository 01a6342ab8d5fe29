"""Change of variables reducing two weights to one geometric-mean weight.

The forward map is the normalized antiderivative of sqrt(a/b); it is
piecewise linear (hence exactly invertible) when both weights are
piecewise constant, and inverted by bisection otherwise.  The explicit
piecewise-linear homeomorphism for the extremal power-weight family and
the functional-equation sharpness residual live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .weights import (TWO_PI, PeriodicWeight, product, split_panels,
                      sqrt_ratio)


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
        if np.ndim(x) == 0:
            return float(out)
        return out

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
    forward_map: PiecewiseLinearMap | None = field(default=None)

    def forward(self, theta):
        """tau(theta): normalized antiderivative of sqrt(a/b)."""
        if self.forward_map is not None:
            return self.forward_map(theta)
        out = self.density.antiderivative(np.asarray(theta, dtype=float)) / self.c
        if np.ndim(theta) == 0:
            return float(out)
        return out

    def inverse(self, tau):
        """theta(tau): exact piecewise-linear inverse or bisection."""
        if self.forward_map is not None:
            return self.forward_map.inverse()(tau)
        tv = np.asarray(tau, dtype=float)
        n_per = np.floor(tv / TWO_PI)
        rem = tv - TWO_PI * n_per
        lo = np.zeros_like(rem)
        hi = np.full_like(rem, TWO_PI)
        # monotone bisection; 60 halvings put the iterate below 1e-12 in tau
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            too_low = self.density.antiderivative(mid) / self.c < rem
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        out = TWO_PI * n_per + 0.5 * (lo + hi)
        if np.ndim(tau) == 0:
            return float(out)
        return out


def build_cov(a, b):
    """Construct the change of variables for the weight pair (a, b)."""
    density = sqrt_ratio(a, b)
    c = density.mean()
    fwd_map = None
    if density.kind == "piecewise_constant":
        bp = density.breakpoints
        vals = density._cum[:-1] / c
        fwd_map = PiecewiseLinearMap(bp, vals, density.values / c)
    return ChangeOfVariables(a=a, b=b, c=c, density=density,
                             forward_map=fwd_map)


def transported_geometric_mean(cov):
    """The weight tau -> sqrt(a(theta(tau)) * b(theta(tau)))."""
    a, b = cov.a, cov.b
    if (a.kind == "piecewise_constant" and b.kind == "piecewise_constant"):
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
    scales = np.array([np.sum(av * wv**2 * dth),
                       np.sum(av * np.abs(wv) * dth),
                       np.sum(bv * wpv**2 * dth)])

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

    For phi in [0, 2pi) the times fl(probes_i + phi) lie in [0, 4pi) and
    never decrease with i, and np.mod is exact there, so the quarter index
    never decreases either. A bisection on the actual floats finds its 7
    run boundaries per phase; the residual is the max of |gv - 1| or
    |gv - L| over each run, by the parity of the run.
    """
    n = probes.size
    levels = np.arange(1, 8)
    lo = np.zeros((phases.size, 7), dtype=np.intp)
    hi = np.full((phases.size, 7), n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        active = lo < hi
        up = _quarter(probes[np.minimum(mid, n - 1)] + phases[:, None]) >= levels
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid + 1, lo)
    # run j of a phase is [edges[j], edges[j + 1]); a trailing column n
    # closes the last run and indexes the zero pad
    edges = np.hstack((np.zeros((phases.size, 1), dtype=np.intp), lo,
                       np.full((phases.size, 1), n, dtype=np.intp)))
    dev = np.zeros((2, n + 1))
    dev[0, :n] = np.abs(gv - 1.0)
    dev[1, :n] = np.abs(gv - L)
    run_max = np.maximum.reduceat(dev, edges.ravel(), axis=1)
    run_max = run_max.reshape(2, phases.size, 9)[:, :, :8]
    run_max = np.where(np.arange(8) % 2 == 0, run_max[0], run_max[1])
    # reduceat gives an empty run its first element; 0 is neutral instead,
    # as every deviation is >= 0
    return np.max(np.where(np.diff(edges) > 0, run_max, 0.0), axis=1)


def functional_eq_residual(g, n_probes=2048, n_phases=4096):
    """Phase-minimized sup-residual of the sharpness functional equation.

    Normalizes g to infimum 1 and compares it against the square-wave
    extremal pattern with the matching oscillation L, minimizing the
    sup-norm mismatch over a phase grid with golden-section refinement.
    Returns (residual, best_phase).
    """
    bounds = g.ess_bounds()
    L = bounds.sup / bounds.inf
    probes = (np.arange(n_probes) + 0.5) * (TWO_PI / n_probes)
    gv = np.asarray(g.eval(probes)) / bounds.inf

    def residual(phi):
        return float(np.max(np.abs(gv - _bar_a_pattern(probes + phi, L))))

    phases = np.arange(n_phases) * (TWO_PI / n_phases)
    grid_res = _phase_scan(gv, probes, phases, L)
    k = int(np.argmin(grid_res))
    best_phi, best_res = float(phases[k]), float(grid_res[k])

    # golden-section refinement; only pays off for continuous mismatch
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo = best_phi - TWO_PI / n_phases
    hi = best_phi + TWO_PI / n_phases
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
