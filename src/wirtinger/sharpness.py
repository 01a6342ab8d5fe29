"""Sharp closed-form bounds, extremal weights and extremal functions.

Covers the general two-weight bound, its specialization to power weights
gamma^p / gamma^q, the square-wave extremal family attaining equality,
the closed form for the reciprocal-pair case p + q = 0, and numerical
sharpness verification against the spectral solver.

The eigenvalue-like constant mu of the extremal function admits two
conventions: `paper_literal` uses arctan exponent -(p+q) and breaks
continuity of the profile at its breakpoints; `continuity_corrected`
(the default) uses -(p+q)/4, which is the unique choice making the
profile continuous and consistent with the p = q special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral, transform
from .weights import TWO_PI, PeriodicWeight, product, sqrt_ratio


@dataclass(frozen=True)
class PowerWeightPair:
    """A pair (gamma^p, gamma^q) with gamma normalized to infimum 1.

    `create` rescales gamma unless its essential infimum is already
    within 1e-9 of 1; M is the ratio sup gamma / inf gamma.
    """

    gamma: PeriodicWeight
    p: float
    q: float
    M: float

    @staticmethod
    def create(gamma, p, q):
        bounds = gamma.ess_bounds()
        if abs(bounds.inf - 1.0) > 1e-9:
            gamma = gamma.scale(1.0 / bounds.inf)
        return PowerWeightPair(gamma=gamma, p=float(p), q=float(q),
                               M=bounds.sup / bounds.inf)

    @cached_property
    def a(self):
        return self.gamma.power(self.p)

    @cached_property
    def b(self):
        return self.gamma.power(self.q)


@dataclass(frozen=True)
class ExtremalProfile:
    """An extremal weight with its extremal function and constants."""

    weight: PeriodicWeight
    fn: object                 # callable theta -> value
    fn_prime: object           # callable theta -> derivative
    constants: dict


@dataclass(frozen=True)
class BoundReport:
    """Closed-form bound vs computed constant, with sharpness verdict."""

    bound: float
    computed: float
    relative_gap: float
    sharp: bool
    estimated_order: float | None


#: relative-gap threshold below which a bound counts as attained
SHARPNESS_TOL = 5e-3


def _squared_ratio(num, den):
    """(num / den)^2, a ValueError where that is no finite float."""
    try:
        return (num / den) ** 2
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"bound ({num:g} / {den:g})^2 overflows a float; "
                         "the weights' contrast is too large") from None


def bound_general(a, b):
    """Upper bound on C(a, b) for arbitrary positive periodic weights."""
    num = sqrt_ratio(a, b).mean()
    pb = product(a, b).ess_bounds()
    den = (4.0 / math.pi) * math.atan((pb.inf / pb.sup) ** 0.25)
    return _squared_ratio(num, den)


def bound_power(pair):
    """Upper bound on C(gamma^p, gamma^q); an equality when p + q = 0."""
    if pair.p + pair.q < 0:
        raise ValueError("bound requires p + q >= 0")
    num = pair.gamma.power((pair.p - pair.q) / 2.0).mean()
    den = (4.0 / math.pi) * math.atan(pair.M ** (-(pair.p + pair.q) / 4.0))
    return _squared_ratio(num, den)


# -- square-wave extremal family -----------------------------------------

def _square_wave(M, p, q):
    """Extremal gamma: 1 on [0, c pi/2) and [pi, pi + c pi/2), M elsewhere.

    Here c = c_pq(M, p, q).
    """
    half = transform.c_pq(M, p, q) * math.pi / 2.0
    return PeriodicWeight.piecewise([0.0, half, math.pi, math.pi + half],
                                    [1.0, float(M), 1.0, float(M)])


def _extremal_fn(M, p, q, mu):
    """Extremal function of the square wave and its derivative."""
    c = transform.c_pq(M, p, q)
    s = math.sqrt(mu)
    amp = M ** (-(p + q) / 4.0)
    slope2 = M ** ((p - q) / 2.0) / c
    b1 = c * math.pi / 2.0
    pi = math.pi

    def fn(theta):
        tm = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        return np.select(
            [tm < b1, tm < pi, tm < pi + b1],
            [np.sin(s * (tm / c - pi / 4)),
             amp * np.cos(s * (pi / 2 + slope2 * (tm - b1) - 3 * pi / 4)),
             -np.sin(s * (pi + (tm - pi) / c - 5 * pi / 4))],
            -amp * np.cos(s * (3 * pi / 2 + slope2 * (tm - pi - b1) - 7 * pi / 4)))

    def fn_prime(theta):
        tm = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        return np.select(
            [tm < b1, tm < pi, tm < pi + b1],
            [(s / c) * np.cos(s * (tm / c - pi / 4)),
             -amp * s * slope2 * np.sin(s * (pi / 2 + slope2 * (tm - b1) - 3 * pi / 4)),
             -(s / c) * np.cos(s * (pi + (tm - pi) / c - 5 * pi / 4))],
            amp * s * slope2 * np.sin(s * (3 * pi / 2 + slope2 * (tm - pi - b1) - 7 * pi / 4)))

    return fn, fn_prime


def extremal_weight_pq(M, p, q):
    """Extremal gamma for the power-weight bound, for M >= 1.

    M = 1 gives the constant weight, p = q = 1 the equal-weight square wave.
    """
    if M < 1.0:
        raise ValueError("extremal family requires M >= 1")
    if p + q <= 0:
        raise ValueError("extremal family requires p + q > 0")
    return _square_wave(M, p, q)


def mu_constant(M, p, q, mu_mode="continuity_corrected"):
    """The arctan-squared constant of the extremal function."""
    if mu_mode == "paper_literal":
        return ((4.0 / math.pi) * math.atan(M ** (-(p + q)))) ** 2
    if mu_mode == "continuity_corrected":
        return ((4.0 / math.pi) * math.atan(M ** (-(p + q) / 4.0))) ** 2
    raise ValueError(f"unknown mu_mode {mu_mode!r}")


def extremal_fn_pq(M, p, q, mu_mode="continuity_corrected"):
    """Extremal function of the power family, in the chosen mu convention."""
    weight = extremal_weight_pq(M, p, q)
    mu = mu_constant(M, p, q, mu_mode)
    fn, fn_prime = _extremal_fn(M, p, q, mu)
    return ExtremalProfile(weight=weight, fn=fn, fn_prime=fn_prime,
                           constants={"c_pq": transform.c_pq(M, p, q),
                                      "mu": mu, "mu_mode": mu_mode})


def closed_form_pq0(a, phase=0.0):
    """Exact constant and extremizer for the reciprocal pair (a, 1/a).

    The constant is (mean a)^2 and the extremizer is a cosine of the
    rescaled antiderivative of a, shifted by `phase`.
    """
    mean_a = a.mean()
    constant = mean_a ** 2

    def fn(theta):
        return np.cos(np.asarray(a.antiderivative(theta)) / mean_a + phase)

    def fn_prime(theta):
        th = np.asarray(theta, dtype=float)
        return (-np.asarray(a.eval(th)) / mean_a
                * np.sin(np.asarray(a.antiderivative(th)) / mean_a + phase))

    profile = ExtremalProfile(weight=a, fn=fn, fn_prime=fn_prime,
                              constants={"constant": constant})
    return constant, profile


def verify_sharpness(pair, n=2048):
    """Compare the spectral constant of (gamma^p, gamma^q) to the bound.

    The computed constant is Richardson-extrapolated from meshes of size
    n/4, n/2, n, so n must be at least 32; the bound counts as attained
    when the relative gap is within SHARPNESS_TOL.
    """
    if pair.p + pair.q < 0:
        raise ValueError("verification requires p + q >= 0")
    if n < 32:
        raise ValueError(
            "verification requires n >= 32 (its coarsest mesh is n/4)")
    bound = bound_power(pair)
    result = spectral.converge(pair.a, pair.b, [n // 4, n // 2, n])
    gap = (bound - result.constant) / bound
    return BoundReport(bound=bound, computed=result.constant,
                       relative_gap=gap, sharp=abs(gap) <= SHARPNESS_TOL,
                       estimated_order=result.estimated_order)


def sharpness_characterization(a, b, cross_check=None):
    """Decide sharpness via the functional equation on sqrt(ab).

    Transports the geometric mean through the change of variables and
    measures the phase-minimized sup-distance to the square-wave
    extremal pattern; sharp iff the residual is at most 1e-6.  When
    `cross_check` is the `verify_sharpness` report of the same pair, the
    verdict must match its `sharp`; a false value skips the check.
    """
    cov = transform.build_cov(a, b)
    g = transform.transported_geometric_mean(cov)
    residual, phase = transform.functional_eq_residual(g)
    is_sharp = residual <= 1e-6
    if cross_check and cross_check.sharp != is_sharp:
        raise RuntimeError(
            "functional-equation verdict disagrees with spectral gap "
            f"(residual {residual:.3g}, gap {cross_check.relative_gap:.3g})")
    return is_sharp, phase, residual
