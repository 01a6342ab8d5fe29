"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.
"""

import math

import mpmath
import numpy as np

from wirtinger import (PeriodicWeight, PowerWeightPair, best_constant,
                       build_cov, c_pq, closed_form_pq0, converge,
                       extremal_fn_pq, extremal_weight_pq, h_pq, h_pq_inv,
                       rayleigh_quotient, sharpness_characterization,
                       sine_family, transported_geometric_mean,
                       verify_sharpness)
from wirtinger.cli import main

TWO_PI = 2 * math.pi
ONE = PeriodicWeight.constant(1.0)
N_LIST = [512, 1024, 2048]


def check(idx, ok, detail):
    print(f"[criterion {idx:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {idx}: {detail}"


def ps_oracle(L):
    """High-precision ((4/pi) arctan L^(-1/2))^(-2)."""
    with mpmath.workdps(50):
        return float((4 / mpmath.pi * mpmath.atan(mpmath.mpf(L) ** mpmath.mpf("-0.5"))) ** -2)


def test_criterion_1_classical_wirtinger():
    single = best_constant(ONE, ONE, 2048)
    ok1 = abs(single.constant - 1.0) <= 1e-4
    res = converge(ONE, ONE, N_LIST)
    ok2 = abs(res.constant - 1.0) <= 1e-7
    ok3 = abs(res.estimated_order - 2.0) <= 0.3
    check(1, ok1 and ok2 and ok3,
          f"C(1,1)={single.constant:.8f}, extrapolated={res.constant:.10f}, "
          f"order={res.estimated_order:.3f}")


def test_criterion_2_square_wave_equality():
    details = []
    ok = True
    for L in (2.0, 4.0, 10.0):
        abar = extremal_weight_pq(L, 1.0, 1.0)
        res = converge(abar, abar, N_LIST)
        target = ps_oracle(L)
        rel = abs(res.constant - target) / target
        ok &= rel <= 3e-3
        details.append(f"L={L:g} rel={rel:.2e}")
    check(2, ok, "; ".join(details))


def test_criterion_3_power_weight_equality_cases():
    details = []
    ok = True
    for M, p, q in [(4, 1, 0), (4, 2, 1), (9, 1, 1), (4, 0.5, 0.5), (4, 0, 2)]:
        gam = extremal_weight_pq(M, p, q)
        pair = PowerWeightPair.create(gam, p, q)
        rep = verify_sharpness(pair, n=2048)
        prof = extremal_fn_pq(M, p, q)
        quot, _ = rayleigh_quotient(pair.a, pair.b, prof.fn, prof.fn_prime)
        rq_rel = abs(quot - rep.bound) / rep.bound
        ok &= rep.sharp and abs(rep.relative_gap) <= 5e-3 and rq_rel <= 1e-6
        details.append(f"(M,p,q)=({M},{p},{q}) gap={rep.relative_gap:.1e} "
                       f"rq_rel={rq_rel:.1e}")
    check(3, ok, "; ".join(details))


def test_criterion_4_strictness_for_sine_family():
    details = []
    ok = True
    gam = sine_family(4.0)
    for p, q in [(1.0, 0.0), (1.0, 1.0)]:
        rep = verify_sharpness(PowerWeightPair.create(gam, p, q), n=2048)
        ok &= (not rep.sharp) and rep.relative_gap >= 1e-2
        details.append(f"(p,q)=({p:g},{q:g}) gap={rep.relative_gap:.3f}")
    check(4, ok, "; ".join(details))


def test_criterion_5_reciprocal_pair_closed_form():
    details = []
    ok = True
    for name, a in (("bar-a(4)", extremal_weight_pq(4.0, 1.0, 1.0)),
                    ("sine(4)", sine_family(4.0))):
        b = a.power(-1.0)
        res = converge(a, b, N_LIST)
        const, prof = closed_form_pq0(a)
        rel = abs(res.constant - const) / const
        quot, _ = rayleigh_quotient(a, b, prof.fn, prof.fn_prime)
        rq_rel = abs(quot - const) / const
        ok &= rel <= 1e-4 and rq_rel <= 1e-6
        details.append(f"{name} rel={rel:.1e} rq_rel={rq_rel:.1e}")
    check(5, ok, "; ".join(details))


def test_criterion_6_transform_invariance():
    pairs = [
        ("bar-a/bar-a", extremal_weight_pq(4.0, 1.0, 1.0),
         extremal_weight_pq(4.0, 1.0, 1.0)),
        ("bar-gamma/1", extremal_weight_pq(4.0, 1.0, 0.0), ONE),
        ("bar-a/inv", extremal_weight_pq(4.0, 1.0, 1.0),
         extremal_weight_pq(4.0, 1.0, 1.0).power(-1.0)),
        ("sine/1", sine_family(4.0), ONE),
        ("sine/sine", sine_family(3.0), sine_family(2.0)),
    ]
    details = []
    ok = True
    for name, a, b in pairs:
        cov = build_cov(a, b)
        g = transported_geometric_mean(cov)
        c_ab = best_constant(a, b, 2048).constant
        c_gg = best_constant(g, g, 2048).constant
        rel = abs(c_ab - cov.c ** 2 * c_gg) / c_ab
        ok &= rel <= 1e-3
        details.append(f"{name} rel={rel:.1e}")
    check(6, ok, "; ".join(details))


def test_criterion_7_mu_typo_adjudication():
    M, p, q = 4.0, 1.0, 0.0
    eps = 1e-7
    worst = {}
    for mode in ("continuity_corrected", "paper_literal"):
        prof = extremal_fn_pq(M, p, q, mu_mode=mode)
        c = prof.constants["c_pq"]
        resid = 0.0
        for bp in (c * math.pi / 2, math.pi, math.pi + c * math.pi / 2, TWO_PI):
            left = float(prof.fn(bp - eps)) + eps * float(prof.fn_prime(bp - eps))
            right = float(prof.fn(bp + eps)) - eps * float(prof.fn_prime(bp + eps))
            resid = max(resid, abs(left - right))
        worst[mode] = resid
    prof = extremal_fn_pq(M, p, q)
    gq = prof.weight.power(q)
    flux_resid = 0.0
    c = prof.constants["c_pq"]
    for bp in (c * math.pi / 2, math.pi, math.pi + c * math.pi / 2, TWO_PI):
        sides = []
        for side in (-1, +1):
            f1 = float(gq.eval(bp - side * eps)) * float(prof.fn_prime(bp - side * eps))
            f2 = float(gq.eval(bp - side * 2 * eps)) * float(prof.fn_prime(bp - side * 2 * eps))
            sides.append(2 * f1 - f2)
        flux_resid = max(flux_resid, abs(sides[0] - sides[1]))
    ok = (worst["continuity_corrected"] <= 1e-12
          and worst["paper_literal"] >= 1e-3
          and flux_resid <= 1e-10)
    check(7, ok,
          f"continuity corrected={worst['continuity_corrected']:.1e}, "
          f"literal={worst['paper_literal']:.2e}, flux={flux_resid:.1e}")


def test_criterion_8_homeomorphism_identities():
    rng = np.random.default_rng(20240817)
    probes = rng.uniform(-TWO_PI, 2 * TWO_PI, 1000)
    worst_rt = worst_lift = worst_c = 0.0
    for _ in range(10):
        M = float(rng.uniform(1.2, 12.0))
        while True:
            p = float(rng.uniform(-2.0, 2.0))
            q = float(rng.uniform(-2.0, 2.0))
            if p + q > 0.05:
                break
        h, hinv = h_pq(M, p, q), h_pq_inv(M, p, q)
        worst_rt = max(worst_rt, float(np.max(np.abs(hinv(h(probes)) - probes))))
        worst_lift = max(worst_lift, float(np.max(np.abs(
            h(probes + TWO_PI) - h(probes) - TWO_PI))))
        gam = extremal_weight_pq(M, p, q)
        cov = build_cov(gam.power(p), gam.power(q))
        worst_c = max(worst_c, abs(cov.c - c_pq(M, p, q)) / c_pq(M, p, q))
    ok = worst_rt <= 1e-10 and worst_lift <= 1e-10 and worst_c <= 1e-12
    check(8, ok, f"roundtrip={worst_rt:.1e}, lift={worst_lift:.1e}, "
                 f"c_rel={worst_c:.1e}")


def test_criterion_9_characterization_agreement():
    cases = [(extremal_weight_pq(M, p, q), p, q)
             for M, p, q in [(4, 1, 0), (4, 2, 1), (9, 1, 1),
                             (4, 0.5, 0.5), (4, 0, 2)]]
    cases += [(sine_family(4.0), 1.0, 0.0), (sine_family(4.0), 1.0, 1.0)]
    details = []
    ok = True
    for gam, p, q in cases:
        pair = PowerWeightPair.create(gam, p, q)
        rep = verify_sharpness(pair, n=1024)
        is_sharp, _, resid = sharpness_characterization(
            pair.a, pair.b, cross_check=False)
        ok &= is_sharp == rep.sharp
        details.append(f"({gam.kind[:4]},{p:g},{q:g}) "
                       f"{'agree' if is_sharp == rep.sharp else 'DISAGREE'}")
    check(9, ok, "; ".join(details))


def test_criterion_10_cli_determinism(tmp_path):
    blobs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        rc = main(["verify", "--gamma", "bar-gamma:4,1,0", "--p", "1",
                   "--q", "0", "--n", "512", "--seed", "7",
                   "--out", str(path)])
        assert rc == 0
        blobs.append(path.read_bytes())
    check(10, blobs[0] == blobs[1],
          f"two runs, {len(blobs[0])} bytes, identical={blobs[0] == blobs[1]}")
