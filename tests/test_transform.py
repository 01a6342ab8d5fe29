import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirtinger import (PeriodicWeight, build_cov, c_pq, functional_eq_residual,
                       h_pq, h_pq_inv, sine_family, substitution_check,
                       transform, transported_geometric_mean)
from wirtinger.sharpness import extremal_fn_pq, extremal_weight_pq
from wirtinger.transform import N_PHASES, N_PROBES, _phase_scan

TWO_PI = 2 * math.pi


def _bar_a_pattern(tau, L):
    """The two-value square-wave reference weight on [0, 2pi)."""
    tm = np.mod(tau, TWO_PI)
    lo = (tm < math.pi / 2) | ((tm >= math.pi) & (tm < 3 * math.pi / 2))
    return np.where(lo, 1.0, float(L))


def test_identity_cov_for_equal_weights():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    cov = build_cov(abar, abar)
    assert cov.c == pytest.approx(1.0, rel=1e-14)
    probes = np.linspace(-5, 10, 101)
    assert np.allclose(cov.forward(probes), probes, atol=1e-13)


def test_cov_squared_bar_a():
    # a = abar^2, b = 1: density is abar itself, c = mean(abar) = 5/2
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    cov = build_cov(abar.power(2.0), PeriodicWeight.constant(1.0))
    assert cov.c == pytest.approx(2.5, rel=1e-14)
    assert list(cov.forward.slopes) == pytest.approx([0.4, 1.6, 0.4, 1.6])
    probes = np.linspace(-7, 14, 500)
    assert np.max(np.abs(cov.inverse(cov.forward(probes)) - probes)) < 1e-10


def test_cov_gamma_bar_matches_c_pq():
    gam = extremal_weight_pq(4.0, 1.0, 0.0)
    cov = build_cov(gam, PeriodicWeight.constant(1.0))
    assert cov.c == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_cov_inverse_round_trip_smooth():
    cov = build_cov(sine_family(4.0), PeriodicWeight.constant(1.0))
    probes = np.linspace(-7, 14, 500)
    assert np.max(np.abs(cov.inverse(cov.forward(probes)) - probes)) < 1e-10


def _sine_squared_cov():
    # density sqrt(a/b) = sine_family(4) = 1 + 1.5 (1 + sin theta)
    return build_cov(sine_family(4.0).power(2.0), PeriodicWeight.constant(1.0))


def test_cov_sampled_map_matches_closed_form():
    # tau = (theta + 1.5 (theta + 1 - cos theta)) / c; the map of the
    # density's 2048-panel midpoint surrogate is within 7.1e-7 of it
    cov = _sine_squared_cov()
    theta = np.linspace(-7, 14, 2001)
    exact = (theta + 1.5 * (theta + 1 - np.cos(theta))) / cov.c
    assert np.max(np.abs(cov.forward(theta) - exact)) <= 1e-6


def test_cov_sampled_map_roundtrip_and_lift():
    cov = _sine_squared_cov()
    probes = np.linspace(-7, 14, 500)
    assert np.max(np.abs(cov.inverse(cov.forward(probes)) - probes)) <= 1e-14
    lift = cov.forward(probes + TWO_PI) - cov.forward(probes)
    assert np.max(np.abs(lift - TWO_PI)) <= 1e-12


def test_sampled_cov_integrates_the_density_twice_at_most(monkeypatch):
    # c = density.mean(), the map and g's 4096-point construction probe
    # all read the density's cells, so nothing calls antiderivative
    calls = []
    real_antiderivative = PeriodicWeight.antiderivative

    def spy(self, theta):
        calls.append(np.size(theta))
        return real_antiderivative(self, theta)

    monkeypatch.setattr(PeriodicWeight, "antiderivative", spy)
    transported_geometric_mean(
        build_cov(sine_family(4.0), PeriodicWeight.constant(1.0)))
    assert calls == []


def test_sampled_cov_is_the_antiderivative_of_the_density():
    # tau and antiderivative integrate the same cells: for a = sine:4 the
    # density sqrt(a / (1/a)) is a, so c tau(theta) is a's antiderivative
    a = sine_family(4.0)
    cov = build_cov(a, a.power(-1.0))
    theta = np.linspace(-TWO_PI, 2 * TWO_PI, 10001)
    gap = np.abs(cov.c * cov.forward(theta) - a.antiderivative(theta))
    assert np.max(gap) / (TWO_PI * a.mean()) <= 1e-13


def test_maps_continue_below_a_multiple_of_two_pi():
    # just under a multiple of 2pi, x - 2pi floor(x/2pi) can round below 0;
    # the first cell continues there instead of the last cell being read
    one = PeriodicWeight.constant(1.0)
    abar_sq = extremal_weight_pq(4.0, 1.0, 1.0).power(2.0)
    cov = build_cov(abar_sq, one)
    for f in (one.antiderivative, abar_sq.antiderivative, cov.forward,
              cov.inverse):
        for k in (1, 17, -3):
            x = k * TWO_PI
            assert abs(f(np.nextafter(x, 0.0)) - f(x)) <= 1e-12
        assert abs(f(-5e-324) - f(0.0)) <= 1e-12


def test_cov_lift_golden_values():
    # float.hex of tau and its inverse past one period on either side, where
    # periodic_lift adds n 2pi to the in-period value
    cov = build_cov(extremal_weight_pq(4.0, 1.0, 0.0),
                    PeriodicWeight.constant(1.0))
    probes = (-7.0, 13.0, 1e6)
    assert [cov.forward(x).hex() for x in probes] == [
        "-0x1.d6f0255dde974p+2", "0x1.9c87ed5110b46p+3",
        "0x1.e847fa476acbcp+19"]
    assert [cov.inverse(x).hex() for x in probes] == [
        "-0x1.b0b53c6c1645dp+2", "0x1.a4a018e93f0f8p+3",
        "0x1.e84803d063782p+19"]


def test_forward_lift():
    cov = build_cov(extremal_weight_pq(4.0, 2.0, 1.0),
                    PeriodicWeight.constant(1.0))
    probes = np.linspace(0, TWO_PI, 100)
    lift = cov.forward(probes + TWO_PI) - cov.forward(probes)
    assert np.max(np.abs(lift - TWO_PI)) < 1e-12


def test_transported_gm_constant():
    k = PeriodicWeight.constant(3.0)
    g = transported_geometric_mean(build_cov(k, k))
    assert np.allclose(g.eval(np.linspace(0, TWO_PI, 17)), 3.0)


def test_transported_gm_equal_weights_is_identity_pattern():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    g = transported_geometric_mean(build_cov(abar, abar))
    probes = np.linspace(0.01, TWO_PI, 97)
    assert np.allclose(g.eval(probes), abar.eval(probes))


def test_transported_gm_gamma_bar_collapses_to_bar_a():
    # the content of the sharpness functional equation: gamma_bar(M=4)
    # against 1 transports to the square wave with L = sqrt(M) = 2
    gam = extremal_weight_pq(4.0, 1.0, 0.0)
    cov = build_cov(gam, PeriodicWeight.constant(1.0))
    g = transported_geometric_mean(cov)
    expected = extremal_weight_pq(2.0, 1.0, 1.0)
    assert np.allclose(g.breakpoints, expected.breakpoints, atol=1e-13)
    assert np.allclose(g.values, expected.values)


def test_substitution_identity_transform():
    one = PeriodicWeight.constant(1.0)
    res = substitution_check(build_cov(one, one), np.cos, lambda t: -np.sin(t))
    assert max(res) <= 1e-13


def test_substitution_bar_a_extremal():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    prof = extremal_fn_pq(4.0, 1.0, 1.0)
    res = substitution_check(build_cov(abar, abar), prof.fn, prof.fn_prime)
    assert max(res) <= 1e-13


def test_substitution_gamma_bar_sine():
    gam = extremal_weight_pq(4.0, 1.0, 0.0)
    cov = build_cov(gam, PeriodicWeight.constant(1.0))
    res = substitution_check(cov, np.sin, np.cos)
    assert max(res) <= 1e-13


@pytest.mark.parametrize("a,b", [
    (extremal_weight_pq(4.0, 1.0, 0.0), PeriodicWeight.constant(1.0)),
    (PeriodicWeight.piecewise([0.0, 1.0, 2.5, 4.0], [1.0, 3.0, 2.0, 5.0]),
     extremal_weight_pq(2.0, 1.0, 1.0)),
], ids=["bar-gamma:4,1,0-const:1", "pwc-bar-a:2"])
def test_substitution_at_roundoff_for_piecewise_constant_pairs(a, b):
    # the panels are cut at the breakpoints on both sides (tau is linear
    # between them), so every integrand is smooth on each panel and the
    # O(h^8) error of 4-point Gauss on 2048 panels is below roundoff
    res = substitution_check(build_cov(a, b), np.sin, np.cos)
    assert max(res) <= 1e-13


def test_h_pq_identity_when_p_equals_q():
    h = h_pq(9.0, 1.5, 1.5)
    probes = np.linspace(-9, 9, 200)
    assert np.allclose(h(probes), probes, atol=1e-13)


def test_h_pq_example_values():
    assert c_pq(4.0, 1.0, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    h = h_pq(4.0, 1.0, 0.0)
    assert h(math.pi / 2) == pytest.approx(2 * math.pi / 3, rel=1e-14)
    hinv = h_pq_inv(4.0, 1.0, 0.0)
    # slope on [c*pi/2, pi) equals M^(1/2)/c = 3/2
    assert hinv.slopes[1] == pytest.approx(1.5, rel=1e-14)


def test_h_pq_roundtrip_and_lift():
    rng = np.random.default_rng(7)
    probes = rng.uniform(-TWO_PI, 2 * TWO_PI, 1000)
    for M, p, q in [(4, 1, 0), (4, 2, 1), (9, 1, 1), (2.5, 0.3, 0.2),
                    (7, -0.5, 1.0)]:
        h, hinv = h_pq(M, p, q), h_pq_inv(M, p, q)
        assert np.max(np.abs(hinv(h(probes)) - probes)) < 1e-10
        assert np.max(np.abs(h(probes + TWO_PI) - h(probes) - TWO_PI)) < 1e-12


def test_h_pq_inv_of_a_steep_family_is_the_inverse_of_h_pq():
    # slope 1/c ~ 9e7 on [pi, pi + c pi/2): the rounding of pi + c pi/2
    # leaves a value gap of 3.9e-9, an argument gap of 4e-17
    h, hinv = h_pq(1e6, 0.25, 3.0), h_pq_inv(1e6, 0.25, 3.0)
    assert np.array_equal(h.inverse().breakpoints, hinv.breakpoints)
    assert np.array_equal(extremal_weight_pq(1e6, 0.25, 3.0).breakpoints,
                          hinv.breakpoints)
    probes = np.linspace(-TWO_PI, 2 * TWO_PI, 1001)
    assert np.max(np.abs(h(hinv(probes)) - probes)) < 1e-12


def test_piecewise_linear_map_rejects_a_gap_on_either_axis():
    def two_pieces(b1, gap):
        # [0, b1) onto [0, pi), with a value gap at b1; the rise stays 2pi
        return transform.PiecewiseLinearMap(
            [0.0, b1], [0.0, math.pi + gap],
            [math.pi / b1, (math.pi - gap) / (TWO_PI - b1)])
    two_pieces(math.pi, 0.0)
    with pytest.raises(ValueError, match="continuity"):
        two_pieces(math.pi, 1e-9)
    with pytest.raises(ValueError, match="onto"):
        transform.PiecewiseLinearMap([0.0, math.pi], [0.0, math.pi],
                                     [1.0, 1.0 + 1e-9])
    # slope ~3142: a value gap of 1e-7 is an argument gap of 3e-11, and
    # one of 1e-6 is one of 3e-10
    two_pieces(1e-3, 1e-7)
    with pytest.raises(ValueError, match="continuity"):
        two_pieces(1e-3, 1e-6)


def test_h_pq_of_a_family_too_steep_for_floats_is_refused():
    # c = 2 / (1 + 1e-16) rounds to 2: h_pq_inv's breakpoints would be
    # [0, pi, pi, 2pi] and h_pq's values the same
    for fn in (h_pq_inv, h_pq):
        with pytest.raises(ValueError, match=r"M = 1e\+32, p = 1, q = 0 is "
                           "too steep for floats: a piece of the extremal "
                           "map has zero width"):
            fn(1e32, 1.0, 0.0)
        # the slope ratio M^(-(p-q)/2) overflows
        with pytest.raises(ValueError, match=r"M = 1e\+300, p = 0, q = 4 is "
                           "too steep for floats"):
            fn(1e300, 0.0, 4.0)
    assert np.all(np.diff(h_pq_inv(1e31, 1.0, 0.0).breakpoints) > 0.0)


def test_h_pq_rejects_nonpositive_p_plus_q():
    with pytest.raises(ValueError):
        h_pq(4.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        h_pq_inv(4.0, -2.0, 1.0)


def test_functional_eq_residual_sharp_cases():
    abar = extremal_weight_pq(4.0, 1.0, 1.0)
    res, phase = functional_eq_residual(
        transported_geometric_mean(build_cov(abar, abar)))
    assert res <= 1e-12
    gam = extremal_weight_pq(4.0, 1.0, 0.0)
    res, _ = functional_eq_residual(
        transported_geometric_mean(build_cov(gam, PeriodicWeight.constant(1.0))))
    assert res <= 1e-12


def test_functional_eq_residual_nonsharp():
    g = transported_geometric_mean(
        build_cov(sine_family(4.0), PeriodicWeight.constant(1.0)))
    res, _ = functional_eq_residual(g)
    assert res > 0.1


def _dense_phase_scan(gv, probes, phases, L):
    """The 256-row block loop that _phase_scan replaced (reference)."""
    grid_res = np.empty(phases.size)
    for start in range(0, phases.size, 256):
        block = phases[start:start + 256]
        ref = _bar_a_pattern(probes[None, :] + block[:, None], L)
        grid_res[start:start + 256] = np.max(np.abs(gv[None, :] - ref), axis=1)
    return grid_res


# the residual's lattice: probes (i + 1/2) 2pi/N_PROBES, phases k 2pi/N_PHASES
PROBES = (np.arange(N_PROBES) + 0.5) * (TWO_PI / N_PROBES)
PHASES = np.arange(N_PHASES) * (TWO_PI / N_PHASES)


def _assert_scan_matches_dense(gv, L):
    assert np.array_equal(_phase_scan(gv, L),
                          _dense_phase_scan(gv, PROBES, PHASES, L))


def test_lattice_quarters_match_the_float_pattern():
    # _phase_scan assumes probe i lies in quarter (2i + 1 + k) // (N_PHASES/4)
    # at phase k; the float sums _bar_a_pattern reads agree at every pair,
    # including the odd k that put a probe on a quarter boundary
    odd = 2 * np.arange(N_PROBES) + 1
    for start in range(0, N_PHASES, 256):
        k = np.arange(start, start + 256)[:, None]
        lo = _bar_a_pattern(PROBES[None, :] + PHASES[k], 2.0) == 1.0
        assert np.array_equal(lo, (odd + k) // (N_PHASES // 4) % 2 == 0)


def test_phase_scan_matches_dense_on_grid_rotations():
    # a square wave rotated by an exact grid phase ties that phase at 0
    for k in (1, N_PHASES // 3, N_PHASES - 1):
        for L in (1.0, 4.0):
            _assert_scan_matches_dense(_bar_a_pattern(PROBES - PHASES[k], L), L)


@pytest.mark.parametrize("a,b", [
    (extremal_weight_pq(4.0, 1.0, 0.0), PeriodicWeight.constant(1.0)),
    (extremal_weight_pq(9.0, 1.0, 1.0),
     extremal_weight_pq(9.0, 1.0, 1.0)),
    (extremal_weight_pq(4.0, 1.0, 1.0), extremal_weight_pq(4.0, 1.0, 1.0)),
    (sine_family(4.0), PeriodicWeight.constant(1.0)),
])
def test_phase_scan_matches_dense_on_verify_pairs(a, b):
    g = transported_geometric_mean(build_cov(a, b))
    bounds = g.ess_bounds()
    gv = np.asarray(g.eval(PROBES)) / bounds.inf
    _assert_scan_matches_dense(gv, bounds.sup / bounds.inf)


@given(st.integers(0, 2 ** 32 - 1), st.floats(1.0, 10.0),
       st.integers(0, N_PHASES - 1), st.booleans())
@settings(max_examples=10, deadline=None)
def test_phase_scan_matches_dense_property(seed, L, k, near_square):
    # uniform noise, or a square wave rotated to grid phase k within 1e-6
    rng = np.random.default_rng(seed)
    if near_square:
        gv = (_bar_a_pattern(PROBES + PHASES[k], L)
              * rng.uniform(1.0, 1.0 + 1e-6, N_PROBES))
    else:
        gv = rng.uniform(1.0, L, N_PROBES)
    _assert_scan_matches_dense(gv, L)


@pytest.mark.parametrize("k", [3, 7],
                         ids=lambda k: f"{N_PROBES}-{N_PHASES}-{k}")
def test_phase_scan_matches_dense_at_boundary_ties(k):
    # at odd phase indices probes_i + phi is a multiple of pi/2 in exact
    # arithmetic; the float sum rounds to either side of that boundary
    assert np.isin(PROBES + PHASES[k], np.arange(1, 8) * (math.pi / 2)).any()
    gv = _bar_a_pattern(PROBES + PHASES[k], 4.0)
    scan = _phase_scan(gv, 4.0)
    assert scan[k] == 0.0
    assert np.array_equal(scan, _dense_phase_scan(gv, PROBES, PHASES, 4.0))


def _rotated_square_wave():
    return PeriodicWeight.piecewise(0.3 + np.arange(4) * (math.pi / 2),
                                    [1.0, 4.0, 1.0, 4.0])


def _random_pwc():
    rng = np.random.default_rng(2026)
    return PeriodicWeight.piecewise(np.sort(rng.uniform(0.0, TWO_PI, 40)),
                                    rng.uniform(1.0, 4.0, 40))


@pytest.mark.parametrize("make_g,residual,phase", [
    (lambda: transported_geometric_mean(build_cov(
        extremal_weight_pq(4.0, 1.0, 1.0), extremal_weight_pq(4.0, 1.0, 1.0))),
     "0x0.0p+0", "0x0.0p+0"),
    (lambda: transported_geometric_mean(build_cov(
        extremal_weight_pq(4.0, 1.0, 0.0), PeriodicWeight.constant(1.0))),
     "0x0.0p+0", "0x0.0p+0"),
    (_rotated_square_wave, "0x0.0p+0", "0x1.6b71687491e42p+1"),
    (lambda: transported_geometric_mean(build_cov(
        sine_family(4.0), PeriodicWeight.constant(1.0))),
     "0x1.ffffdc1bb3f32p-1", "0x0.0p+0"),
    (_random_pwc, "0x1.6d61f0c92d675p+1", "0x1.cb753a9c7e586p-1"),
], ids=["bar-a", "bar-gamma", "rotated-pwc", "sine", "random-pwc"])
def test_functional_eq_residual_golden_values(make_g, residual, phase):
    # float.hex of (residual, phase) as computed by the dense phase grid
    res, phi = functional_eq_residual(make_g())
    assert (float(res).hex(), float(phi).hex()) == (residual, phase)


def test_substitution_vanishing_first_moment_stays_finite():
    # sign-changing w makes the first-moment identity 0 = 0; the residual
    # must be measured against the absolute-moment scale, not 0/0
    one = PeriodicWeight.constant(1.0)
    res = substitution_check(build_cov(one, one), np.sin, np.cos)
    assert all(np.isfinite(res)) and res[1] <= 1e-8


def test_substitution_of_the_zero_function_is_exact():
    # every scale is 0, so each identity reads 0 = 0
    one = PeriodicWeight.constant(1.0)
    res = substitution_check(build_cov(one, one), np.zeros_like,
                             np.zeros_like)
    assert res == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("breakpoints,values,slopes,message", [
    ([0.5, 1.0], [0.0, 1.0], [1.0, 1.0], "fix the origin"),
    ([0.0], [0.0], [0.0], "slopes must be positive"),
    ([0.0], [0.0], [2.0], r"carry \[0, 2pi\)"),
    ([0.0, 1.0], [0.0, 2.0], [1.0, (TWO_PI - 2.0) / (TWO_PI - 1.0)],
     "break continuity"),
], ids=["origin", "slope", "period", "continuity"])
def test_piecewise_linear_map_rejects_invalid_maps(breakpoints, values,
                                                   slopes, message):
    with pytest.raises(ValueError, match=message):
        transform.PiecewiseLinearMap(breakpoints, values, slopes)


def _sine_g():
    return transported_geometric_mean(
        build_cov(sine_family(4.0), PeriodicWeight.constant(1.0)))


def test_residual_probes_are_the_odd_half_of_the_probe_grid(monkeypatch):
    # the probes the residual evaluates g at are, bit for bit, the
    # midpoints (i + 1/2) 2pi/N_PROBES, for either kind of weight
    midpoints = (np.arange(2048) + 0.5) * (TWO_PI / 2048)
    assert N_PROBES == 2048
    assert np.array_equal(transform.PROBE_GRID[1::2].view(np.int64),
                          midpoints.view(np.int64))
    weights = (_rotated_square_wave(), _sine_g())
    evaluated = []
    real_eval = PeriodicWeight.eval

    def eval_spy(self, theta):
        if any(self is g for g in weights):
            evaluated.append(np.array(theta))
        return real_eval(self, theta)

    monkeypatch.setattr(PeriodicWeight, "eval", eval_spy)
    for g in weights:
        functional_eq_residual(g)
    assert len(evaluated) == len(weights)
    for probes in evaluated:
        assert np.array_equal(probes.view(np.int64), midpoints.view(np.int64))


@st.composite
def _residual_cases(draw):
    """A random pwc g, a constant g and a rotated near-flat square wave."""
    k = draw(st.integers(1, 8))
    bp = np.sort(np.array(draw(st.lists(
        st.floats(0.0, TWO_PI, exclude_max=True), min_size=k, max_size=k,
        unique=True))))
    pwc = PeriodicWeight.piecewise(bp, draw(st.lists(
        st.floats(0.5, 5.0), min_size=k, max_size=k)))
    const = PeriodicWeight.constant(draw(st.floats(0.1, 10.0)))
    # zero residual at phase pi - shift only, past pi/8
    shift = draw(st.floats(0.05, 1.5))
    wave = PeriodicWeight.piecewise(shift + np.arange(4) * (math.pi / 2),
                                    [1.0, 1.0 + 1e-7, 1.0, 1.0 + 1e-7])
    return pwc, const, wave


@st.composite
def _off_lattice_phases(draw):
    """Phases strictly between grid phases, some a rounding step away."""
    d = TWO_PI / N_PHASES
    phis = []
    for k in draw(st.lists(st.integers(0, N_PHASES - 1), min_size=1,
                           max_size=8)):
        t = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
                 .filter(lambda t: t != 0.0))
        phis += [(k + t) * d, np.nextafter(k * d, -1.0),
                 np.nextafter(k * d, TWO_PI)]
    return phis


@given(_residual_cases(), st.floats(1.0, 10.0), st.floats(0.0, TWO_PI),
       _off_lattice_phases())
@settings(max_examples=25, deadline=None)
def test_no_phase_off_the_lattice_beats_the_residual(case, M, shift, phis):
    # the mismatch is a step function of the phase whose steps all hold a
    # grid phase, so the grid minimum is the minimum over every real phase
    sampled = PeriodicWeight.from_callable(
        lambda th: 1.0 + (M - 1.0) * (1.0 + np.sin(th + shift)) / 2.0)
    for g in (*case, sampled):
        res, phase = functional_eq_residual(g)
        k = round(phase / (TWO_PI / N_PHASES))
        assert 0 <= k < N_PHASES and phase == k * (TWO_PI / N_PHASES)
        bounds = g.ess_bounds()
        L = bounds.sup / bounds.inf
        gv = np.asarray(g.eval(PROBES)) / bounds.inf
        for phi in phis:
            assert np.max(np.abs(gv - _bar_a_pattern(PROBES + phi, L))) >= res
    # the wave's residual vanishes at pi - shift only
    assert functional_eq_residual(case[2])[1] >= math.pi / 8
