import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wirtinger import PeriodicWeight, PowerWeightPair, product, sine_family
from wirtinger.sharpness import extremal_weight_pq
from wirtinger.weights import (GAUSS_NODES, GAUSS_WEIGHTS, PANELS,
                               PROBE_POINTS, panel_quadrature,
                               sorted_unique)

TWO_PI = 2 * math.pi


def test_eval_constant_total():
    w = PeriodicWeight.constant(1.0)
    assert w.eval(5.0) == 1.0


def test_eval_bar_a_cases_and_periodicity():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    assert abar.eval(math.pi / 2) == 4.0
    assert abar.eval(math.pi / 2 + TWO_PI) == 4.0
    assert abar.eval(0.0) == 1.0
    assert abar.eval(math.pi - 1e-12) == 4.0
    assert abar.eval(math.pi) == 1.0


def test_ess_bounds_bar_a():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    cm = abar.ess_bounds()
    assert (cm.inf, cm.sup) == (1.0, 4.0)
    pair = PowerWeightPair.create(abar, 1.0, 1.0)
    assert pair.M == 4.0
    assert pair.gamma is abar


def test_ess_bounds_constant_one():
    cm = PeriodicWeight.constant(1.0).ess_bounds()
    assert (cm.inf, cm.sup) == (1.0, 1.0)


def test_ess_bounds_sine_family():
    # 1 + (M-1)(1+sin)/2 attains 1 and M at 3pi/2 and pi/2, both
    # PROBE_GRID points, so the probed range is exact; a monotone map of
    # the weight maps those same samples, so its range is exact too
    for M in (1.0, 1.0 + 2.0 ** -52, 4.0, 9.0, 1e6, 2.0 ** 60):
        cm = sine_family(M).ess_bounds()
        assert (cm.inf, cm.sup) == (1.0, M)
    for w, expected in [(sine_family(9.0).power(-0.5), (9.0 ** -0.5, 1.0)),
                        (sine_family(4.0).power(-1.0), (0.25, 1.0)),
                        (sine_family(2.5).power(3.0), (1.0, 2.5 ** 3)),
                        (sine_family(4.0).scale(0.5), (0.5, 2.0))]:
        cm = w.ess_bounds()
        assert (cm.inf, cm.sup) == expected


def test_power_pointwise():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    inv = abar.power(-1.0)
    assert list(inv.values) == [1.0, 0.25, 1.0, 0.25]
    sqrt_gam = extremal_weight_pq(4.0, 1.0, 0.0).power(0.5)
    assert list(sqrt_gam.values) == [1.0, 2.0, 1.0, 2.0]


def test_power_zero_is_constant_one():
    gam = sine_family(4.0)
    ones = gam.power(0.0)
    probes = np.linspace(0, TWO_PI, 17)
    assert np.allclose(ones.eval(probes), 1.0)


def test_integrate_bar_a_exact():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    # step quadrature: 1*pi + 4*pi
    assert abar.antiderivative(TWO_PI) == pytest.approx(5 * math.pi, rel=1e-15)
    assert PeriodicWeight.constant(1.0).antiderivative(TWO_PI) == pytest.approx(TWO_PI)


def test_antiderivative_bar_a():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    assert abar.antiderivative(math.pi) == pytest.approx(5 * math.pi / 2, rel=1e-15)
    # period extension rule
    total = abar.antiderivative(TWO_PI)
    assert abar.antiderivative(1.0 + TWO_PI) == pytest.approx(
        abar.antiderivative(1.0) + total, rel=1e-14)


def test_antiderivative_lift_golden_values():
    # float.hex past one period on either side, where periodic_lift adds
    # n times the period's integral to the in-period value
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    assert [abar.antiderivative(x).hex() for x in (-7.0, 13.0, 1e6)] == [
        "-0x1.29341c0666f17p+4", "0x1.fd97c7f3321d2p+4",
        "0x1.312cfbb59018dp+21"]


def test_mean_examples():
    assert PeriodicWeight.constant(1.0).mean() == pytest.approx(1.0)
    assert extremal_weight_pq(4.0, 1.0, 1.0).mean() == pytest.approx(
        2.5, rel=1e-15)
    # gamma_bar(M=4, p=1, q=0)^(1/2): value 1 on measure 4pi/3, 2 on 2pi/3
    half = extremal_weight_pq(4.0, 1.0, 0.0).power(0.5)
    assert half.mean() == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_weight_whose_integral_overflows_is_built_without_a_warning():
    # filterwarnings = error fails a numpy overflow warning; the eager
    # integral of a piecewise-constant weight and the lazy one of a
    # sampled weight are inf, for the computation that needs them to refuse
    const = PeriodicWeight.constant(1e308)
    sampled = PeriodicWeight.from_callable(lambda th: np.full_like(th, 1e308))
    for w in (const, sampled):
        assert w.ess_bounds().inf == w.ess_bounds().sup == 1e308
        assert w.mean() == math.inf


def test_positivity_rejected_at_construction():
    with pytest.raises(ValueError):
        PeriodicWeight.piecewise([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        PeriodicWeight.from_callable(lambda th: np.sin(th) + 1.0)


@pytest.mark.parametrize("make,message", [
    (lambda: PeriodicWeight("step"), "unknown weight kind"),
    (lambda: PeriodicWeight("sampled_closed_form"), "requires an evaluator"),
    (lambda: PeriodicWeight.piecewise([0.0, 1.0], [1.0]),
     "one value per breakpoint"),
], ids=["kind", "evaluator", "values"])
def test_malformed_weight_is_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        PeriodicWeight.piecewise([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        PeriodicWeight.piecewise([0.0, TWO_PI], [1.0, 2.0])


def test_wrapped_leading_segment():
    # value before the first breakpoint comes from the last interval
    w = PeriodicWeight.piecewise([1.0, 2.0], [5.0, 7.0])
    assert w.eval(0.5) == 7.0
    assert w.eval(1.5) == 5.0


@given(st.floats(-50, 50), st.integers(-3, 3))
@settings(max_examples=50, deadline=None)
def test_periodicity_property(theta, k):
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    # adding 2*pi*k is not exact in floats; skip the measure-zero
    # neighborhoods of the jump points where rounding can cross a jump
    gap = min(abs(math.remainder(theta - b, TWO_PI))
              for b in (0, math.pi / 2, math.pi, 3 * math.pi / 2))
    if gap < 1e-12 * max(1.0, abs(theta)):
        return
    assert abar.eval(theta) == abar.eval(theta + TWO_PI * k)


@given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
       st.floats(0.25, 4.0))
@settings(max_examples=50, deadline=None)
def test_power_roundtrip_property(values, r):
    bp = np.linspace(0, TWO_PI, len(values), endpoint=False)
    w = PeriodicWeight.piecewise(bp, values)
    back = w.power(r).power(1.0 / r)
    probes = np.linspace(0, TWO_PI, 37)
    assert np.allclose(back.eval(probes), w.eval(probes), rtol=1e-12)


def test_piecewise_integrate_is_exact():
    w = PeriodicWeight.piecewise([0.0, 1.0, 2.5, 4.0], [2.0, 3.0, 0.5, 1.5])
    expected = 2.0 * 1.0 + 3.0 * 1.5 + 0.5 * 1.5 + 1.5 * (TWO_PI - 4.0)
    assert w.antiderivative(TWO_PI) == pytest.approx(expected, rel=1e-15)


def test_probe_runs_once():
    # construction probes positivity; ess_bounds() reuses that probe
    calls = []

    def fn(theta):
        calls.append(np.size(theta))
        return 2.0 + np.sin(theta)

    cm = PeriodicWeight.from_callable(fn).ess_bounds()
    assert calls == [PROBE_POINTS]
    assert cm.inf == pytest.approx(1.0, abs=1e-6)
    assert cm.sup == pytest.approx(3.0, abs=1e-6)
    # an evaluator may return a scalar for the whole probe
    flat = PeriodicWeight.from_callable(lambda th: 3.0)
    assert (flat.ess_bounds().inf, flat.ess_bounds().sup) == (3.0, 3.0)


def test_sampled_product_golden_values():
    # float.hex of the probed bounds and the midpoint-quadrature mean
    w = product(sine_family(4.0), sine_family(3.0))
    cm = w.ess_bounds()
    assert (cm.inf.hex(), cm.sup.hex(), float(w.mean()).hex()) == (
        "0x1.0000000000000p+0", "0x1.8000000000000p+3",
        "0x1.6fffffffffff7p+2")


@pytest.mark.parametrize("make", [
    lambda: PeriodicWeight.constant(math.nan),
    lambda: PeriodicWeight.constant(math.inf),
    lambda: PeriodicWeight.piecewise([0.0, math.nan], [1.0, 2.0]),
    lambda: PeriodicWeight.piecewise([0.0, 1.0], [1.0, math.inf]),
    lambda: PeriodicWeight.from_callable(
        lambda th: np.where(th < 1.0, math.nan, 1.0)),
    lambda: PeriodicWeight.from_callable(
        lambda th: np.where(th < 1.0, 1.0, math.inf)),
    lambda: sine_family(math.inf),
    lambda: sine_family(math.nan),
    lambda: sine_family(1e308),
    lambda: extremal_weight_pq(math.nan, 1.0, 1.0),
    lambda: extremal_weight_pq(math.nan, 1.0, 0.0),
], ids=["const-nan", "const-inf", "pwc-nan-breakpoint", "pwc-inf-value",
        "sampled-nan", "sampled-inf", "sine-inf", "sine-nan", "sine-1e308",
        "bar-a-nan", "bar-gamma-nan"])
def test_non_finite_weight_is_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_sampled_weight_has_no_breakpoints():
    bp = sine_family(4.0).breakpoints
    assert bp.shape == (0,) and bp.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        bp[...] = 1.0


def test_gauss_rule_is_leggauss_on_the_unit_interval():
    # the literals are numpy's leggauss(4) mapped to [0, 1], bit for bit
    x, w = np.polynomial.legendre.leggauss(4)
    assert GAUSS_NODES.tobytes() == (0.5 * (x + 1.0)).tobytes()
    assert GAUSS_WEIGHTS.tobytes() == (0.5 * w).tobytes()


#: angles where the reduction modulo 2pi is delicate
SPECIAL_ANGLES = [0.0, -0.0, TWO_PI, np.nextafter(TWO_PI, 0.0),
                  np.nextafter(0.0, 1.0), -1e-300, -TWO_PI, -3.0, 1e17,
                  -1e17, math.nan]


def _recording_weight():
    """A sampled weight that keeps every array its evaluator is given.

    Its value shows the sign of a zero angle too."""
    seen = []

    def fn(th):
        seen.append(np.array(th, copy=True))
        return 2.0 + np.copysign(0.5, th)

    return PeriodicWeight.from_callable(fn), seen


@given(st.lists(st.one_of(st.sampled_from(SPECIAL_ANGLES),
                          st.floats(-1e17, 1e17),
                          st.floats(0.0, TWO_PI)), max_size=12),
       st.booleans())
@example([-0.0], True)
@example([-0.0, 1.0], False)
@example([TWO_PI], True)
@example([np.nextafter(TWO_PI, 0.0), 1.0], False)
@example([math.nan, 1.0], False)
@example([0.5, 6.0], False)
@settings(max_examples=200, deadline=None)
def test_eval_equals_the_reduced_reference_property(angles, scalar):
    # skipping np.mod where it changes nothing keeps every bit: the
    # evaluator sees np.mod's angles and the pieces are looked up there
    theta = angles[0] if scalar and angles else np.array(angles, dtype=float)
    reduced = np.mod(theta, TWO_PI)
    pwc = PeriodicWeight.piecewise([0.0, 1.0, 3.0, 5.5], [1.0, 2.0, 3.0, 4.0])
    ref = pwc.values[np.searchsorted(pwc.breakpoints, reduced,
                                     side="right") - 1]
    assert np.asarray(pwc.eval(theta)).tobytes() == ref.tobytes()
    sampled, seen = _recording_weight()
    out = sampled.eval(theta)
    assert seen[-1].tobytes() == np.asarray(reduced).tobytes()
    ref = 2.0 + np.copysign(0.5, reduced)
    assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()
    assert type(out) is (float if scalar and angles else np.ndarray)


def test_sampled_evaluator_gets_an_array_of_its_own():
    # an evaluator that writes into its argument leaves the caller's
    # angles as they were: assemble evaluates b at the points it gave a
    def mutating(th):
        out = 2.0 + np.sin(th)
        th[...] = -1.0
        return out

    w = PeriodicWeight.from_callable(mutating)
    theta = np.linspace(0.1, 6.0, 50)
    before = theta.copy()
    assert np.asarray(w.eval(theta)).tobytes() == (
        2.0 + np.sin(before)).tobytes()
    assert theta.tobytes() == before.tobytes()


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, TWO_PI]),
                          st.floats(-10.0, 10.0)), max_size=30))
@example([0.0, -0.0, 1.0, 1.0])
@example([-0.0, 0.0, -0.0])
@settings(max_examples=200, deadline=None)
def test_sorted_unique_equals_np_unique_property(values):
    # duplicates and zeros of both signs, where np.unique keeps the first
    # of each run after its sort
    x = np.array(values + values[::3], dtype=float)
    assert sorted_unique(x).tobytes() == np.unique(x).tobytes()


def _looped_panel_quadrature(breakpoints):
    """panel_quadrature as one np.linspace per piece (reference)."""
    cuts = sorted_unique(np.concatenate([[0.0, TWO_PI], *breakpoints]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= TWO_PI)]
    lefts, widths = [], []
    for left, right in zip(cuts[:-1], cuts[1:]):
        k = max(1, int(math.ceil(PANELS * (right - left) / TWO_PI)))
        lefts.append(np.linspace(left, right, k + 1)[:-1])
        widths.append(np.full(k, (right - left) / k))
    lefts, widths = np.concatenate(lefts), np.concatenate(widths)
    return ((lefts[:, None] + widths[:, None] * GAUSS_NODES).ravel(),
            (widths[:, None] * GAUSS_WEIGHTS).ravel())


angles = st.one_of(st.floats(-1.0, 7.0), st.sampled_from(
    [0.0, TWO_PI, math.pi, 1e-12, TWO_PI - 1e-12]))


@given(st.lists(st.lists(angles, max_size=40), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_panel_quadrature_matches_one_linspace_per_piece_property(cut_lists):
    # cuts outside [0, 2pi] are ignored, repeats merged, slivers kept
    breakpoints = [np.array(cuts, dtype=float) for cuts in cut_lists]
    for got, ref in zip(panel_quadrature(breakpoints),
                        _looped_panel_quadrature(breakpoints)):
        assert got.tobytes() == ref.tobytes()
