import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirtinger import (PeriodicWeight, PowerWeightPair, bound_general,
                       bound_power, closed_form_pq0, converge, extremal_fn_pq,
                       extremal_weight_pq, mu_constant, rayleigh_quotient,
                       sharpness_characterization, sine_family,
                       verify_sharpness)

TWO_PI = 2 * math.pi
ONE = PeriodicWeight.constant(1.0)
ABAR = extremal_weight_pq(4.0, 1.0, 1.0)
PS_CONSTANT = ((4 / math.pi) * math.atan(4 ** -0.5)) ** -2


def one_sided(fn, fn_prime, x, side, eps=1e-7):
    """First-order one-sided limit of fn at x from `side` (+1 or -1)."""
    x0 = x - side * eps
    return float(fn(x0)) + side * eps * float(fn_prime(x0))


# -- bounds -------------------------------------------------------------


def test_bound_general_trivial():
    assert bound_general(ONE, ONE) == pytest.approx(1.0, rel=1e-15)


def test_bound_general_equal_weights_matches_ps():
    assert bound_general(ABAR, ABAR) == pytest.approx(PS_CONSTANT, rel=1e-14)


def test_bound_general_reciprocal_pair():
    assert bound_general(ABAR, ABAR.power(-1.0)) == pytest.approx(6.25, rel=1e-14)


@pytest.mark.xfail(reason=(
    "sqrt(a/b) of a sampled and a piecewise-constant weight has no "
    "breakpoints, so its mean comes from 2048 uniform midpoint panels "
    "that straddle b's jumps, an O(h) error: the bound is 7.1e-5 "
    "relative too high (item 14 of ROADMAP.md)"))
def test_bound_general_mixed_pair_integrates_across_jumps():
    # the numerator, the mean of sqrt(a/b), by mpmath.quad split at b's
    # jumps 1, 2.5 and 4 is 1.0016554186435162; over the bound's own
    # denominator it gives 1.7806771135241133 (the code: 1.780803523972949)
    b = PeriodicWeight.piecewise([0.0, 1.0, 2.5, 4.0], [1.0, 3.0, 2.0, 5.0])
    assert bound_general(sine_family(4.0), b) == pytest.approx(
        1.7806771135241133, rel=1e-10)


def test_bound_power_trivial():
    pair = PowerWeightPair.create(ABAR, 0.0, 0.0)
    assert bound_power(pair) == pytest.approx(1.0, rel=1e-15)


def test_bound_power_equal_exponents_reduce_to_ps():
    pair = PowerWeightPair.create(ABAR, 1.0, 1.0)
    assert bound_power(pair) == pytest.approx(PS_CONSTANT, rel=1e-14)


def test_bound_power_example_4_1_0():
    gam = extremal_weight_pq(4.0, 1.0, 0.0)
    pair = PowerWeightPair.create(gam, 1.0, 0.0)
    expected = ((4.0 / 3.0) / ((4 / math.pi) * math.atan(4 ** -0.25))) ** 2
    assert bound_power(pair) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.895, abs=2e-3)


def test_bound_power_rejects_negative_sum():
    with pytest.raises(ValueError):
        bound_power(PowerWeightPair.create(ABAR, 0.0, -1.0))


def test_bound_power_specialization_property():
    for gam, p in [(ABAR, 1.0), (ABAR, 2.0), (sine_family(4.0), 1.0)]:
        pair = PowerWeightPair.create(gam, p, p)
        assert bound_power(pair) == pytest.approx(
            bound_general(gam.power(p), gam.power(p)), rel=1e-12)


def test_power_pair_normalizes_gamma():
    pair = PowerWeightPair.create(ABAR.scale(3.0), 1.0, 1.0)
    assert pair.gamma.ess_bounds().inf == pytest.approx(1.0, abs=1e-12)
    assert pair.M == pytest.approx(4.0, rel=1e-12)


def test_power_pair_normalization_tolerance():
    # an essential infimum within 1e-9 of 1 counts as normalized
    near = ABAR.scale(1.0 + 5e-10)
    assert PowerWeightPair.create(near, 1.0, 1.0).gamma is near
    far = PowerWeightPair.create(ABAR.scale(1.0 + 2e-9), 1.0, 1.0)
    assert far.gamma.ess_bounds().inf == 1.0


def test_power_pair_builds_each_power_once():
    pair = PowerWeightPair.create(sine_family(4.0), 1.0, 0.0)
    assert pair.a is pair.a
    assert pair.b is pair.b


# -- extremal profiles -------------------------------------------------


def test_extremal_weight_ps_values():
    assert list(ABAR.values) == [1.0, 4.0, 1.0, 4.0]
    assert np.allclose(ABAR.breakpoints,
                       [0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_extremal_fn_ps_classical_limit():
    prof = extremal_fn_pq(1.0, 1.0, 1.0)
    assert prof.constants["mu"] == pytest.approx(1.0, rel=1e-14)
    probes = np.linspace(0, TWO_PI, 33)
    assert np.allclose(prof.fn(probes), np.sin(probes - math.pi / 4),
                       atol=1e-12)


def test_extremal_fn_ps_continuity_identity():
    # continuity at pi/2 encodes tan(sqrt(lambda) pi/4) = L^(-1/2)
    prof = extremal_fn_pq(4.0, 1.0, 1.0)
    lam = prof.constants["mu"]
    assert math.tan(math.sqrt(lam) * math.pi / 4) == pytest.approx(0.5, rel=1e-14)
    left = one_sided(prof.fn, prof.fn_prime, math.pi / 2, -1)
    right = one_sided(prof.fn, prof.fn_prime, math.pi / 2, +1)
    assert left == pytest.approx(right, abs=1e-12)


def test_extremal_fn_ps_attains_quotient():
    prof = extremal_fn_pq(4.0, 1.0, 1.0)
    q, resid = rayleigh_quotient(ABAR, ABAR, prof.fn, prof.fn_prime)
    assert q == pytest.approx(1.0 / prof.constants["mu"], rel=1e-10)
    assert resid <= 1e-8


def test_extremal_weight_pq_cases():
    c = extremal_fn_pq(4.0, 1.0, 0.0).constants["c_pq"]
    assert c == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert np.allclose(extremal_weight_pq(4.0, 1.0, 0.0).breakpoints,
                       [0, 2 * math.pi / 3, math.pi, 5 * math.pi / 3])
    c = extremal_fn_pq(4.0, 0.0, 1.0).constants["c_pq"]
    assert c == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert np.allclose(extremal_weight_pq(4.0, 0.0, 1.0).breakpoints,
                       [0, math.pi / 3, math.pi, 4 * math.pi / 3])


def test_extremal_weight_pq_equal_exponents_match_bar_a():
    gam = extremal_weight_pq(4.0, 1.0, 1.0)
    probes = np.linspace(0.01, TWO_PI, 57)
    assert np.allclose(gam.eval(probes), ABAR.eval(probes))


def test_extremal_weight_pq_rejects_bad_params():
    with pytest.raises(ValueError, match=r"requires M >= 1"):
        extremal_weight_pq(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        extremal_weight_pq(4.0, 1.0, -1.0)


def test_extremal_weight_pq_at_M_1_is_the_constant_weight():
    # the classical Wirtinger case: gamma = 1 whatever p and q, and C = 1
    for p, q in ((1.0, 1.0), (1.0, 0.0), (0.5, 2.0)):
        gam = extremal_weight_pq(1.0, p, q)
        bounds = gam.ess_bounds()
        assert (bounds.inf, bounds.sup) == (1.0, 1.0)
        report = verify_sharpness(PowerWeightPair.create(gam, p, q), n=128)
        assert report.bound == pytest.approx(1.0, rel=1e-15)
        assert report.sharp


def test_extremal_fn_pq_near_classical_limit():
    for mode in ("continuity_corrected", "paper_literal"):
        prof = extremal_fn_pq(1.0 + 1e-9, 1.0, 0.0, mu_mode=mode)
        assert prof.constants["mu"] == pytest.approx(1.0, abs=1e-8)


def test_mu_modes_disagree_for_m_gt_1():
    corrected = mu_constant(4.0, 1.0, 0.0)
    literal = mu_constant(4.0, 1.0, 0.0, "paper_literal")
    assert abs(corrected - literal) > 0.1
    with pytest.raises(ValueError):
        mu_constant(4.0, 1.0, 0.0, "bogus")


def test_paper_literal_mu_breaks_continuity():
    # the discrepancy at the first breakpoint, evaluated directly
    mu = mu_constant(4.0, 1.0, 0.0, "paper_literal")
    s = math.sqrt(mu)
    resid = abs(math.sin(s * math.pi / 4) - 4 ** -0.25 * math.cos(s * math.pi / 4))
    assert resid > 0.1


def test_extremal_fn_pq_constraint():
    prof = extremal_fn_pq(4.0, 1.0, 0.0)
    a = prof.weight.power(1.0)
    _, resid = rayleigh_quotient(a, prof.weight.power(0.0),
                                 prof.fn, prof.fn_prime)
    assert resid <= 1e-8


# -- p + q = 0 closed form -------------------------------------------------


def test_closed_form_pq0_classical():
    const, prof = closed_form_pq0(ONE, phase=0.3)
    assert const == pytest.approx(1.0, rel=1e-14)
    probes = np.linspace(0, TWO_PI, 33)
    assert np.allclose(prof.fn(probes), np.cos(probes + 0.3), atol=1e-12)


def test_closed_form_pq0_bar_a():
    const, prof = closed_form_pq0(ABAR)
    assert const == pytest.approx(6.25, rel=1e-14)
    q, resid = rayleigh_quotient(ABAR, ABAR.power(-1.0),
                                 prof.fn, prof.fn_prime)
    assert q == pytest.approx(6.25, rel=1e-8)
    assert resid <= 1e-8


def test_closed_form_pq0_golden_values_off_the_period():
    # float.hex of the extremizer and its derivative below 0 and past 2pi
    pwc = PeriodicWeight.piecewise([0.0, 1.0, 2.5, 4.0], [1.0, 3.0, 2.0, 5.0])
    const, prof = closed_form_pq0(pwc, phase=0.3)
    theta = np.array([-7.0, -2.5, -0.4, 6.5, 9.0, 13.0])
    assert const.hex() == "0x1.4181f37f2a764p+3"
    assert [float(x).hex() for x in prof.fn(theta)] == [
        "0x1.59435adf7341ep-1", "-0x1.e99e52dcd2f43p-1",
        "0x1.e4365d90b162ap-1", "0x1.dda599c934a1ap-1",
        "-0x1.2198254cb40cbp-1", "0x1.cfed72119020dp-1"]
    assert [float(x).hex() for x in prof.fn_prime(theta)] == [
        "0x1.2a30802c35caap+0", "-0x1.79e3e02b66587p-3",
        "0x1.0673e6d14652fp-1", "-0x1.d15d2084d4834p-4",
        "-0x1.0a6a62c49a9aap-1", "-0x1.1155f17167ca2p-3"]


# float.hex of extremal_weight_pq's breakpoints, of extremal_fn_pq's fn and
# fn_prime on those breakpoints and at -7, 6.5 and 13, and of mu_constant
# in continuity_corrected and paper_literal mode: M = 1, p = q, q < 0, a
# non-dyadic M and a contrast of 1e6
EXTREMAL_GOLDEN = [
    ((1.0, 1.0, 0.0), {
        "breakpoints": ["0x0.0p+0", "0x1.921fb54442d18p+0",
            "0x1.921fb54442d18p+1", "0x1.2d97c7f3321d2p+2"],
        "fn": ["-0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bcdp-1",
            "0x1.6a09e667f3bccp-1", "-0x1.6a09e667f3bcdp-1",
            "-0x1.fecbdc1052079p-1", "-0x1.13ae447875315p-1",
            "-0x1.60d406703322cp-2"],
        "fn_prime": ["0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bccp-1",
            "-0x1.6a09e667f3bcdp-1", "-0x1.6a09e667f3bccp-1",
            "0x1.18b29de965011p-4", "0x1.af71b9d5f7cacp-1",
            "0x1.e0a5c56bc3842p-1"],
        "mu": ["0x1.0000000000000p+0", "0x1.0000000000000p+0"]}),
    ((4.0, 1.0, 1.0), {
        "breakpoints": ["0x0.0p+0", "0x1.921fb54442d18p+0",
            "0x1.921fb54442d18p+1", "0x1.2d97c7f3321d2p+2"],
        "fn": ["-0x1.c9f25c5bfedd8p-2", "0x1.c9f25c5bfeddap-2",
            "0x1.c9f25c5bfedd8p-2", "-0x1.c9f25c5bfeddap-2",
            "-0x1.ff94965678cabp-2", "-0x1.514adcf161c0cp-2",
            "-0x1.a63d7a5fdac5fp-3"],
        "fn_prime": ["0x1.0e577bfb8549cp-1", "0x1.0e577bfb8549ap-3",
            "-0x1.0e577bfb8549cp-1", "-0x1.0e577bfb8549ap-3",
            "0x1.877c993f74c73p-7", "0x1.1d6254a36a45ap-1",
            "0x1.27c1f3203655dp-1"],
        "mu": ["0x1.64dbd14711b1ap-2", "0x1.9def1ceeb5ea7p-8"]}),
    ((4.0, 2.0, -0.5), {
        "breakpoints": ["0x0.0p+0", "0x1.55b763f891d49p+1",
            "0x1.921fb54442d18p+1", "0x1.73eb8c9e6a530p+2"],
        "fn": ["-0x1.05ac6b7f50dfep-1", "0x1.05ac6b7f50dfep-1",
            "0x1.05ac6b7f50dfep-1", "-0x1.05ac6b7f50dfbp-1",
            "-0x1.b255ced486b2fp-2", "-0x1.bcc457d6835b6p-2",
            "-0x1.6acfef63565f3p-2"],
        "fn_prime": ["0x1.61b83ffdbce5ap-2", "0x1.61b83ffdbce5ap-1",
            "-0x1.61b83ffdbce5ap-2", "-0x1.61b83ffdbce66p-1",
            "-0x1.74ac5ebdf9b08p-2", "0x1.72ae4afa50480p-2",
            "0x1.80d4542787a9cp-2"],
        "mu": ["0x1.ddb63147e9d4ep-2", "0x1.9abd5a8947b2ep-6"]}),
    ((2.7, 0.5, 1.5), {
        "breakpoints": ["0x0.0p+0", "0x1.304631bb0c3dcp+0",
            "0x1.921fb54442d18p+1", "0x1.15216710e4783p+2"],
        "fn": ["-0x1.0a2d168dc6f63p-1", "0x1.0a2d168dc6f62p-1",
            "0x1.0a2d168dc6f63p-1", "-0x1.0a2d168dc6f62p-1",
            "-0x1.344e428974e51p-1", "-0x1.5c7adebb30489p-2",
            "-0x1.2d948cba0cc19p-3"],
        "fn_prime": ["0x1.925abbdbe96fdp-1", "0x1.6ac35bfdd70fdp-3",
            "-0x1.925abbdbe96fdp-1", "-0x1.6ac35bfdd70fdp-3",
            "0x1.946259d6d62bap-5", "0x1.bae4e65aaba82p-1",
            "0x1.d1df69f9bc3d5p-1"],
        "mu": ["0x1.f02a3dd18c860p-2", "0x1.ed9b4f2f2e991p-6"]}),
    ((1000000.0, 0.25, 3.0), {
        "breakpoints": ["0x0.0p+0", "0x1.2f81f90c90b13p-26",
            "0x1.921fb54442d18p+1", "0x1.921fb56a3310ap+1"],
        "fn": ["-0x1.bf749e688f255p-17", "0x1.bf749e688f255p-17",
            "0x1.bf749e688f255p-17", "-0x1.bf749e688f255p-17",
            "-0x1.bf749e6907841p-17", "0x1.bf749e68bb0fdp-17",
            "0x1.bf749e68e0776p-17"],
        "fn_prime": ["0x1.796a75188896ap+10", "0x1.b3217f4e0f806p-50",
            "-0x1.796a75188896ap+10", "-0x1.b3217f4e0f806p-50",
            "0x1.d920bb5d5d74cp-51", "0x1.771204d2bf15bp-50",
            "0x1.3b028a054e529p-50"],
        "mu": ["0x1.3cf8acfce22a0p-32", "0x1.1a7136794440fp-129"]}),
]


@pytest.mark.parametrize("mpq,golden", EXTREMAL_GOLDEN,
                         ids=[",".join(map(str, mpq))
                              for mpq, _ in EXTREMAL_GOLDEN])
def test_extremal_family_golden_values(mpq, golden):
    prof = extremal_fn_pq(*mpq)
    bp = extremal_weight_pq(*mpq).breakpoints
    theta = np.concatenate((bp, [-7.0, 6.5, 13.0]))

    def hexes(xs):
        return [float(x).hex() for x in xs]
    assert {"breakpoints": hexes(bp), "fn": hexes(prof.fn(theta)),
            "fn_prime": hexes(prof.fn_prime(theta)),
            "mu": hexes(mu_constant(*mpq, mode) for mode in
                        ("continuity_corrected", "paper_literal"))} == golden


# -- verification -----------------------------------------------------------


def test_verify_sharpness_sine_golden_values():
    # float.hex of the Richardson constant, the bound and their gap
    rep = verify_sharpness(PowerWeightPair.create(sine_family(4.0), 1.0, 0.0),
                           n=512)
    assert (rep.computed.hex(), rep.bound.hex(), rep.relative_gap.hex()) == (
        "0x1.494676b93b50fp+1", "0x1.ef93a8c2a5db2p+1",
        "0x1.57a01b3f71b89p-2")


def test_verify_sharpness_requires_n_at_least_32():
    pair = PowerWeightPair.create(sine_family(4.0), 1.0, 0.0)
    with pytest.raises(ValueError, match=r"requires n >= 32 \(its coarsest"):
        verify_sharpness(pair, n=31)
    # n is the finest of the three Richardson levels
    assert verify_sharpness(pair, n=32).computed == converge(
        pair.a, pair.b, [8, 16, 32]).constant


def test_verify_sharpness_pq0_always_sharp():
    rep = verify_sharpness(PowerWeightPair.create(sine_family(4.0), 1.0, -1.0),
                           n=1024)
    assert rep.sharp and abs(rep.relative_gap) <= 1e-4


def test_verify_sharpness_phase_equivariance():
    def shifted_bar_gamma(phi):
        # gamma(theta + phi) as a piecewise-constant weight; sample each
        # interval slightly inside to dodge rounding at the jumps
        base = extremal_weight_pq(4.0, 1.0, 0.0)
        bp = np.sort(np.mod(base.breakpoints - phi, TWO_PI))
        vals = base.eval(bp + phi + 1e-9)
        return PeriodicWeight.piecewise(bp, vals)

    reports = []
    for phi in (0.0, 0.3, 1.7):
        gam = shifted_bar_gamma(phi)
        reports.append(verify_sharpness(PowerWeightPair.create(gam, 1.0, 0.0),
                                        n=1024))
    for rep in reports[1:]:
        assert rep.sharp == reports[0].sharp
        assert rep.bound == pytest.approx(reports[0].bound, rel=1e-6)
        assert rep.computed == pytest.approx(reports[0].computed, rel=1e-6)


def test_sharpness_characterization_equal_bar_a():
    report = verify_sharpness(PowerWeightPair.create(ABAR, 1.0, 1.0), n=512)
    is_sharp, phase, resid = sharpness_characterization(ABAR, ABAR,
                                                        cross_check=report)
    assert is_sharp and resid <= 1e-12
    assert phase == pytest.approx(0.0, abs=1e-9)


def test_sharpness_characterization_gamma_bar():
    gam = extremal_weight_pq(4.0, 1.0, 0.0)
    report = verify_sharpness(PowerWeightPair.create(gam, 1.0, 0.0), n=512)
    is_sharp, _, resid = sharpness_characterization(gam, ONE,
                                                    cross_check=report)
    assert is_sharp and resid <= 1e-12


def test_sharpness_characterization_sine_not_sharp():
    a = sine_family(4.0)
    is_sharp, _, resid = sharpness_characterization(
        a.power(2.0), ONE, cross_check=False)
    assert not is_sharp and resid > 0.01


def test_sharpness_characterization_reuses_the_report(monkeypatch):
    from wirtinger import spectral

    pair = PowerWeightPair.create(extremal_weight_pq(4.0, 1.0, 0.0),
                                  1.0, 0.0)
    report = verify_sharpness(pair, n=256)
    calls = []
    converge = spectral.converge

    def spy(*args, **kwargs):
        calls.append(args)
        return converge(*args, **kwargs)

    monkeypatch.setattr(spectral, "converge", spy)
    is_sharp, _, _ = sharpness_characterization(pair.a, pair.b,
                                                cross_check=report)
    assert is_sharp == report.sharp
    assert calls == []


def test_sharpness_characterization_rejects_a_disagreeing_report():
    pair = PowerWeightPair.create(sine_family(4.0), 1.0, 0.0)
    report = verify_sharpness(pair, n=256)
    assert not report.sharp
    with pytest.raises(RuntimeError, match="disagrees"):
        sharpness_characterization(
            pair.a, pair.b,
            cross_check=dataclasses.replace(report, sharp=True))


_power_exponents = st.floats(-1.0, 2.0).flatmap(
    lambda p: st.tuples(st.just(p), st.floats(max(-0.5, 0.1 - p), 2.0)))


@given(st.booleans(), st.floats(1.5, 10.0), _power_exponents)
@settings(max_examples=25, deadline=None)
def test_verify_and_characterization_agree_property(sine, M, pq):
    # the sampled sine gamma is never sharp, the extremal one always is;
    # sharpness_characterization raises when its verdict and the report's
    # disagree
    p, q = pq
    gamma = sine_family(M) if sine else extremal_weight_pq(M, p, q)
    pair = PowerWeightPair.create(gamma, p, q)
    is_sharp, _, _ = sharpness_characterization(
        pair.a, pair.b, cross_check=verify_sharpness(pair, n=512))
    assert is_sharp is not sine
