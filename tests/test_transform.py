import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirtinger import (PeriodicWeight, build_cov, c_pq, functional_eq_residual,
                       h_pq, h_pq_inv, sine_family, substitution_check,
                       transported_geometric_mean)
from wirtinger.sharpness import (extremal_fn_ps, extremal_weight_pq,
                                 extremal_weight_ps)
from wirtinger.transform import _bar_a_pattern, _phase_scan

TWO_PI = 2 * math.pi


def test_identity_cov_for_equal_weights():
    abar = extremal_weight_ps(4.0)
    cov = build_cov(abar, abar)
    assert cov.c == pytest.approx(1.0, rel=1e-14)
    probes = np.linspace(-5, 10, 101)
    assert np.allclose(cov.forward(probes), probes, atol=1e-13)


def test_cov_squared_bar_a():
    # a = abar^2, b = 1: density is abar itself, c = mean(abar) = 5/2
    abar = extremal_weight_ps(4.0)
    cov = build_cov(abar.power(2.0), PeriodicWeight.constant(1.0))
    assert cov.c == pytest.approx(2.5, rel=1e-14)
    assert list(cov.forward_map.slopes) == pytest.approx([0.4, 1.6, 0.4, 1.6])
    probes = np.linspace(-7, 14, 500)
    assert np.max(np.abs(cov.inverse(cov.forward(probes)) - probes)) < 1e-10


def test_cov_gamma_bar_matches_c_pq():
    gam = extremal_weight_pq(4.0, 1.0, 0.0).weight
    cov = build_cov(gam, PeriodicWeight.constant(1.0))
    assert cov.c == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_cov_bisection_inverse_smooth():
    cov = build_cov(sine_family(4.0), PeriodicWeight.constant(1.0))
    probes = np.linspace(-7, 14, 500)
    assert np.max(np.abs(cov.inverse(cov.forward(probes)) - probes)) < 1e-10


def test_forward_lift():
    cov = build_cov(extremal_weight_pq(4.0, 2.0, 1.0).weight,
                    PeriodicWeight.constant(1.0))
    probes = np.linspace(0, TWO_PI, 100)
    lift = cov.forward(probes + TWO_PI) - cov.forward(probes)
    assert np.max(np.abs(lift - TWO_PI)) < 1e-12


def test_transported_gm_constant():
    k = PeriodicWeight.constant(3.0)
    g = transported_geometric_mean(build_cov(k, k))
    assert np.allclose(g.eval(np.linspace(0, TWO_PI, 17)), 3.0)


def test_transported_gm_equal_weights_is_identity_pattern():
    abar = extremal_weight_ps(4.0)
    g = transported_geometric_mean(build_cov(abar, abar))
    probes = np.linspace(0.01, TWO_PI, 97)
    assert np.allclose(g.eval(probes), abar.eval(probes))


def test_transported_gm_gamma_bar_collapses_to_bar_a():
    # the content of the sharpness functional equation: gamma_bar(M=4)
    # against 1 transports to the square wave with L = sqrt(M) = 2
    gam = extremal_weight_pq(4.0, 1.0, 0.0).weight
    cov = build_cov(gam, PeriodicWeight.constant(1.0))
    g = transported_geometric_mean(cov)
    expected = extremal_weight_ps(2.0)
    assert np.allclose(g.breakpoints, expected.breakpoints, atol=1e-13)
    assert np.allclose(g.values, expected.values)


def test_substitution_identity_transform():
    one = PeriodicWeight.constant(1.0)
    res = substitution_check(build_cov(one, one), np.cos, lambda t: -np.sin(t))
    assert max(res) <= 1e-8


def test_substitution_bar_a_extremal():
    abar = extremal_weight_ps(4.0)
    prof = extremal_fn_ps(4.0)
    res = substitution_check(build_cov(abar, abar), prof.fn, prof.fn_prime)
    assert max(res) <= 1e-6


def test_substitution_gamma_bar_sine():
    gam = extremal_weight_pq(4.0, 1.0, 0.0).weight
    cov = build_cov(gam, PeriodicWeight.constant(1.0))
    res = substitution_check(cov, np.sin, np.cos)
    assert max(res) <= 1e-6


def test_substitution_second_order_in_panels():
    gam = extremal_weight_pq(4.0, 1.0, 0.0).weight
    cov = build_cov(gam, PeriodicWeight.constant(1.0))
    coarse = substitution_check(cov, np.sin, np.cos, panels=512)
    fine = substitution_check(cov, np.sin, np.cos, panels=1024)
    # first and third identities carry quadrature error; halving the panel
    # width should shrink them at roughly second order
    for c, f in ((coarse[0], fine[0]), (coarse[2], fine[2])):
        assert f < c / 2.0


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


def test_h_pq_rejects_nonpositive_p_plus_q():
    with pytest.raises(ValueError):
        h_pq(4.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        h_pq_inv(4.0, -2.0, 1.0)


def test_functional_eq_residual_sharp_cases():
    abar = extremal_weight_ps(4.0)
    res, phase = functional_eq_residual(
        transported_geometric_mean(build_cov(abar, abar)))
    assert res <= 1e-12
    gam = extremal_weight_pq(4.0, 1.0, 0.0).weight
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


def _scan_grids(n_probes, n_phases):
    probes = (np.arange(n_probes) + 0.5) * (TWO_PI / n_probes)
    phases = np.arange(n_phases) * (TWO_PI / n_phases)
    return probes, phases


def _assert_scan_matches_dense(gv, L, n_probes, n_phases):
    probes, phases = _scan_grids(n_probes, n_phases)
    assert np.array_equal(_phase_scan(gv, probes, phases, L),
                          _dense_phase_scan(gv, probes, phases, L))


@pytest.mark.parametrize("n_probes,n_phases", [(2048, 4096), (100, 37)])
def test_phase_scan_matches_dense_on_grid_rotations(n_probes, n_phases):
    # a square wave rotated by an exact grid phase ties that phase at 0
    probes, phases = _scan_grids(n_probes, n_phases)
    for k in (1, n_phases // 3, n_phases - 1):
        for L in (1.0, 4.0):
            gv = _bar_a_pattern(probes - phases[k], L)
            _assert_scan_matches_dense(gv, L, n_probes, n_phases)


@pytest.mark.parametrize("a,b", [
    (extremal_weight_pq(4.0, 1.0, 0.0).weight, PeriodicWeight.constant(1.0)),
    (extremal_weight_pq(9.0, 1.0, 1.0).weight,
     extremal_weight_pq(9.0, 1.0, 1.0).weight),
    (extremal_weight_ps(4.0), extremal_weight_ps(4.0)),
    (sine_family(4.0), PeriodicWeight.constant(1.0)),
])
def test_phase_scan_matches_dense_on_verify_pairs(a, b):
    g = transported_geometric_mean(build_cov(a, b))
    bounds = g.ess_bounds()
    probes, _ = _scan_grids(2048, 4096)
    gv = np.asarray(g.eval(probes)) / bounds.inf
    _assert_scan_matches_dense(gv, bounds.sup / bounds.inf, 2048, 4096)


@given(st.integers(0, 2 ** 32 - 1), st.floats(1.0, 10.0),
       st.integers(8, 4096), st.integers(8, 4096))
@settings(max_examples=50, deadline=None)
def test_phase_scan_matches_dense_property(seed, L, n_probes, n_phases):
    gv = np.random.default_rng(seed).uniform(1.0, L, n_probes)
    _assert_scan_matches_dense(gv, L, n_probes, n_phases)


def _rotated_square_wave():
    return PeriodicWeight.piecewise(0.3 + np.arange(4) * (math.pi / 2),
                                    [1.0, 4.0, 1.0, 4.0])


def _random_pwc():
    rng = np.random.default_rng(2026)
    return PeriodicWeight.piecewise(np.sort(rng.uniform(0.0, TWO_PI, 40)),
                                    rng.uniform(1.0, 4.0, 40))


@pytest.mark.parametrize("make_g,residual,phase", [
    (lambda: transported_geometric_mean(build_cov(extremal_weight_ps(4.0),
                                                  extremal_weight_ps(4.0))),
     "0x0.0p+0", "0x0.0p+0"),
    (lambda: transported_geometric_mean(build_cov(
        extremal_weight_pq(4.0, 1.0, 0.0).weight, PeriodicWeight.constant(1.0))),
     "0x0.0p+0", "0x0.0p+0"),
    (_rotated_square_wave, "0x0.0p+0", "0x1.6b71687491e42p+1"),
    (lambda: transported_geometric_mean(build_cov(
        sine_family(4.0), PeriodicWeight.constant(1.0))),
     "0x1.ffffef1c152a6p-1", "0x0.0p+0"),
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
