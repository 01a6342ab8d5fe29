import dataclasses
import json
import math
import time

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wirtinger import (PeriodicWeight, assemble, best_constant, bound_general,
                       build_mesh, converge, hill, rayleigh_quotient,
                       sine_family, spectral)
from wirtinger.cli import main
from wirtinger.sharpness import (PowerWeightPair, bound_power,
                                 closed_form_pq0, extremal_fn_pq,
                                 extremal_weight_pq)
from wirtinger.spectral import (Mesh, SolverError, _csc_product,
                                exact_constant, fem_constant)
from wirtinger.weights import GAUSS_NODES, GAUSS_WEIGHTS, panel_quadrature

TWO_PI = 2 * math.pi
ONE = PeriodicWeight.constant(1.0)
ABAR = extremal_weight_pq(4.0, 1.0, 1.0)
# breakpoints 1 and 4 are off every uniform grid
PWC_P = PeriodicWeight.piecewise([0.0, 1.0, 2.5, 4.0], [1.0, 3.0, 2.0, 5.0])

# equality value of the equal-weight bound at L = 4
PS_CONSTANT = ((4 / math.pi) * math.atan(4 ** -0.5)) ** -2


def test_build_mesh_uniform():
    mesh = build_mesh(ONE, ONE, 8)
    assert mesh.n == 8
    assert np.allclose(mesh.nodes, np.linspace(0, TWO_PI, 8, endpoint=False))
    # a sampled pair's only mesh breakpoint is theta = 0, a uniform node
    sine = sine_family(4.0)
    for a, b in ((sine, sine), (sine, ONE)):
        assert np.array_equal(build_mesh(a, b, 8).nodes,
                              np.linspace(0, TWO_PI, 8, endpoint=False))


def test_build_mesh_includes_breakpoints():
    mesh = build_mesh(ABAR, ABAR, 8)
    for bp in (0, math.pi / 2, math.pi, 3 * math.pi / 2):
        assert np.min(np.abs(mesh.nodes - bp)) == 0.0
    gam = extremal_weight_pq(4.0, 1.0, 0.0)
    mesh = build_mesh(gam, ONE, 16)
    for bp in (0, 2 * math.pi / 3, math.pi, math.pi + 2 * math.pi / 3):
        assert np.min(np.abs(mesh.nodes - bp)) < 1e-15
    assert mesh.n >= 16


def _dense_mesh_nodes(a, b, n):
    """The all-pairs collision check that build_mesh replaced (reference)."""
    base = np.linspace(0.0, TWO_PI, n, endpoint=False)
    tol = 1e-9 * (TWO_PI / n)
    bps = [w.breakpoints for w in (a, b) if w.kind == "piecewise_constant"]
    if not bps:
        return base
    bp = np.unique(np.concatenate(bps))
    # build_mesh's sliver merge: a breakpoint within tol of the one before
    # it goes, and then the last one if it is within tol of 2pi
    merged = [bp[0]] + [x for prev, x in zip(bp, bp[1:]) if x - prev > tol]
    if TWO_PI - merged[-1] <= tol:
        merged.pop()
    bp = np.array(merged)
    keep = np.empty(n, dtype=bool)
    for rows in np.array_split(np.arange(n), max(1, n // 512)):
        # row blocks keep the n x #breakpoints temporaries small
        diff = np.abs(base[rows, None] - bp[None, :])
        diff = np.minimum(diff, TWO_PI - diff)
        keep[rows] = np.min(diff, axis=1) > tol
    return np.unique(np.concatenate((base[keep], bp)))


def _assert_mesh_matches_dense(a, b, n):
    mesh = build_mesh(a, b, n)
    assert np.array_equal(mesh.nodes, _dense_mesh_nodes(a, b, n))
    # a uniform node goes only for a breakpoint kept within tol of it, so
    # m >= n >= 8, which best_constant's k = 6 eigenpairs rely on
    assert mesh.n >= n
    return mesh.nodes


def test_build_mesh_matches_dense_on_uniform_nodes():
    n = 2048
    base = np.linspace(0.0, TWO_PI, n, endpoint=False)
    w = PeriodicWeight.piecewise(base[[0, 5, 700, 1024, 2047]],
                                 [1.0, 2.0, 3.0, 4.0, 5.0])
    assert _assert_mesh_matches_dense(w, ONE, n).size == n


def test_build_mesh_matches_dense_on_near_collisions():
    # within tol of uniform nodes, on both sides and across the wrap:
    # 2pi - 1e-14 is within tol of 2pi, so it merges into 0
    n = 2048
    base = np.linspace(0.0, TWO_PI, n, endpoint=False)
    near = [base[100] + 1e-13, base[700] - 1e-13, base[1500] + 1e-13,
            base[1900] - 1e-13, TWO_PI - 1e-14]
    w = PeriodicWeight.piecewise(near, [1.0, 2.0, 3.0, 4.0, 5.0])
    nodes = _assert_mesh_matches_dense(w, ONE, n)
    # five uniform nodes dropped (node 0 among them), five breakpoints
    # (0 included) kept
    assert nodes.size == n
    assert nodes[-1] < TWO_PI - 1e-3
    assert not np.any(np.isin(base[[100, 700, 1500, 1900]], nodes))


def test_build_mesh_matches_dense_for_one_piece_weight():
    pwc = PeriodicWeight.piecewise([0.0, 1.0, 2.5, 4.0], [1.0, 3.0, 2.0, 5.0])
    for a, b in ((ONE, pwc), (pwc, ONE), (ONE, ONE)):
        for n in (8, 100, 2048):
            _assert_mesh_matches_dense(a, b, n)


@pytest.mark.parametrize("n", [8, 2048, 8192])
def test_build_mesh_matches_dense_on_random_breakpoints(n):
    rng = np.random.default_rng(5000)
    bp = np.sort(rng.uniform(0.0, TWO_PI, 5000))
    w = PeriodicWeight.piecewise(bp, rng.uniform(1.0, 4.0, 5000))
    _assert_mesh_matches_dense(w, w.power(-1.0), n)


def test_build_mesh_many_breakpoints_is_fast():
    # the dense collision matrix would be 65536 x 20000 doubles (~10 GiB)
    rng = np.random.default_rng(20000)
    bp = np.sort(rng.uniform(0.0, TWO_PI, 20000))
    w = PeriodicWeight.piecewise(bp, rng.uniform(1.0, 4.0, 20000))
    start = time.perf_counter()
    mesh = build_mesh(w, ONE, 65536)
    assert time.perf_counter() - start < 1.0
    assert np.all(np.isin(w.breakpoints, mesh.nodes))
    assert mesh.n > 65536


def test_best_constant_many_breakpoint_reciprocal_pair():
    # C(a, 1/a) = (mean a)^2
    rng = np.random.default_rng(5001)
    bp = np.sort(rng.uniform(0.0, TWO_PI, 5000))
    a = PeriodicWeight.piecewise(bp, rng.uniform(1.0, 4.0, 5000))
    res = best_constant(a, a.power(-1.0), 8192)
    assert res.constant == pytest.approx(a.mean() ** 2, rel=1e-6)


@pytest.mark.parametrize("n", [8192, 16384])
def test_best_constant_tiny_piece_reciprocal_pair(n):
    # the 1e-12 piece makes the constant mode's computed eigenvalue
    # positive; it must still not be taken for lambda_1
    a = PeriodicWeight.piecewise([0, 1.3, 1.3 + 1e-12, 5.9], [1, 3, 2, 4])
    res = best_constant(a, a.power(-1.0), n)
    assert res.constant == pytest.approx(a.mean() ** 2, rel=1e-6)


def test_build_mesh_rejects_small_n():
    with pytest.raises(ValueError):
        build_mesh(ONE, ONE, 7)


def _coo_assemble(a, b, mesh):
    """The COO scatter of the element blocks that assemble replaced (reference)."""
    x = mesh.nodes
    h = mesh.lengths
    m = mesh.n
    pts = x[:, None] + h[:, None] * GAUSS_NODES[None, :]
    av = np.asarray(a.eval(pts.ravel())).reshape(m, 4)
    bv = np.asarray(b.eval(pts.ravel())).reshape(m, 4)
    phi0 = 1.0 - GAUSS_NODES
    phi1 = GAUSS_NODES
    m00 = h * (av @ (GAUSS_WEIGHTS * phi0 * phi0))
    m01 = h * (av @ (GAUSS_WEIGHTS * phi0 * phi1))
    m11 = h * (av @ (GAUSS_WEIGHTS * phi1 * phi1))
    kdiag = (bv @ GAUSS_WEIGHTS) / h
    left = np.arange(m)
    right = (left + 1) % m
    rows = np.concatenate((left, left, right, right))
    cols = np.concatenate((left, right, left, right))
    mass = sp.coo_matrix((np.concatenate((m00, m01, m01, m11)), (rows, cols)),
                         shape=(m, m)).tocsc()
    stiff = sp.coo_matrix((np.concatenate((kdiag, -kdiag, -kdiag, kdiag)),
                           (rows, cols)), shape=(m, m)).tocsc()
    return stiff, mass


_rng = np.random.default_rng(500)
PWC500 = PeriodicWeight.piecewise(np.sort(_rng.uniform(0.0, TWO_PI, 500)),
                                  _rng.uniform(1.0, 4.0, 500))
SLIVER = PeriodicWeight.piecewise([0, 1.3, 1.3 + 3e-12, 5.9], [1, 3, 2, 4])


@pytest.mark.parametrize("a,b,nodes", [
    (sine_family(4.0), ABAR, np.array([0.5, 2.0, 4.0])),
    (ONE, ONE, None),
    (ABAR, ABAR, None),
    (PWC500, PWC500.power(-1.0), None),
    (sine_family(4.0), ONE, None),
    (SLIVER, SLIVER.power(-1.0), None),
], ids=["m3", "n8", "bar-a", "pwc500", "sine", "sliver"])
def test_assemble_matches_coo_scatter(a, b, nodes):
    # bitwise the same canonical CSC arrays, on meshes of m >= 3 nodes;
    # from a / 4^i and b / 4^j, the data scaled by exactly 4^-i and 4^-j
    mesh = Mesh(nodes=nodes) if nodes is not None else build_mesh(
        a, b, 8 if a is ONE else 2048)
    ref_stiff, ref_mass = _coo_assemble(a, b, mesh)
    for i, j in [(0, 0), (2, -3), (-40, 40)]:
        for got, ref, k in zip(assemble(a, b, mesh, i, j),
                               (ref_stiff, ref_mass), (j, i)):
            assert type(got) is type(ref)
            for name in ("indptr", "indices", "data"):
                g, r = getattr(got, name), getattr(ref, name)
                assert g.dtype == r.dtype
                if name == "data":
                    r = np.ldexp(r, -2 * k)
                assert g.tobytes() == r.tobytes()


def test_best_constant_assembles_through_the_module_attribute(monkeypatch):
    # the traced benchmark times assemble by replacing spectral.assemble,
    # so best_constant must call it there, once, with its exponents: 4^2
    # <= 48 < 4^3 and 4^-2 <= 1/8 < 4^-1
    calls = []

    def spy(a, b, mesh, i=0, j=0):
        calls.append((i, j))
        return assemble(a, b, mesh, i, j)

    monkeypatch.setattr(spectral, "assemble", spy)
    fem_constant(PeriodicWeight.constant(48.0),
                 PeriodicWeight.constant(0.125), 64)
    assert calls == [(2, -2)]


@pytest.mark.parametrize("a,b,mesh", [
    (sine_family(4.0), ABAR, Mesh(nodes=np.array([0.5, 2.0, 4.0]))),
    (ONE, ONE, build_mesh(ONE, ONE, 8)),
    (ABAR, ABAR.power(-1.0), build_mesh(ABAR, ABAR, 512)),
    (sine_family(4.0), PWC_P, build_mesh(sine_family(4.0), PWC_P, 2048)),
    (SLIVER, SLIVER.power(-1.0), build_mesh(SLIVER, SLIVER, 2048)),
], ids=["m3", "m8", "m512", "m2048", "sliver"])
def test_direct_product_equals_scipy_product(a, b, mesh):
    # the kernel best_constant hands ARPACK for M, and uses for every
    # product with K and M, is scipy's own product, bit for bit
    rng = np.random.default_rng(26)
    for mat in assemble(a, b, mesh):
        product = _csc_product(mat)
        for x in (rng.standard_normal(mesh.n), np.ones(mesh.n),
                  np.cos(mesh.nodes)):
            assert product(x).tobytes() == (mat @ x).tobytes()


@pytest.mark.parametrize("nodes", [[1.0], [0.5, 4.0]], ids=["m1", "m2"])
def test_assemble_rejects_fewer_than_3_nodes(nodes):
    # the element blocks of a 1- or 2-node mesh overlap; build_mesh never
    # makes one, so only a hand-built Mesh can
    with pytest.raises(ValueError, match="at least 3 nodes"):
        assemble(sine_family(4.0), ABAR, Mesh(nodes=np.array(nodes)))


def test_assemble_partition_of_unity():
    mesh = build_mesh(ONE, ONE, 64)
    stiff, mass = assemble(ONE, ONE, mesh)
    assert np.max(np.abs(stiff @ np.ones(mesh.n))) < 1e-12
    assert np.max(np.abs(np.asarray(stiff.sum(axis=1)).ravel())) < 1e-12
    assert mass.sum() == pytest.approx(TWO_PI, rel=1e-13)


def test_assemble_total_mass_bar_a():
    mesh = build_mesh(ABAR, ABAR, 64)
    _, mass = assemble(ABAR, ABAR, mesh)
    assert mass.sum() == pytest.approx(5 * math.pi, rel=1e-13)


def test_best_constant_classical():
    res = best_constant(ONE, ONE, 2048)
    assert res.constant == pytest.approx(1.0, abs=1e-4)
    assert res.lambda1 == pytest.approx(1.0 / res.constant, rel=1e-15)
    assert res.residual <= 1e-8


def test_best_constant_square_wave():
    res = best_constant(ABAR, ABAR, 2048)
    assert res.constant == pytest.approx(PS_CONSTANT, rel=3e-3)
    assert res.residual <= 1e-8


def test_best_constant_reciprocal_pair():
    res = best_constant(ABAR, ABAR.power(-1.0), 2048)
    assert res.constant == pytest.approx(6.25, abs=1e-3)


def test_eigenfunction_normalization_and_sign():
    res = fem_constant(ABAR, ABAR, 512)
    _, mass = assemble(ABAR, ABAR, build_mesh(ABAR, ABAR, 512))
    u = res.eigenfunction
    assert float(u @ (mass @ u)) == pytest.approx(TWO_PI * ABAR.mean(), rel=1e-12)
    peak = np.max(np.abs(u))
    first = int(np.argmax(np.abs(u) >= (1 - 1e-8) * peak))
    assert u[first] > 0


def test_rayleigh_quotient_harmonics():
    q, resid = rayleigh_quotient(ONE, ONE, np.cos, lambda t: -np.sin(t))
    assert q == pytest.approx(1.0, rel=1e-12)
    assert resid <= 1e-12
    q2, _ = rayleigh_quotient(ONE, ONE, lambda t: np.cos(2 * t),
                              lambda t: -2 * np.sin(2 * t))
    assert q2 == pytest.approx(0.25, rel=1e-12)


def test_rayleigh_quotient_rejects_a_constant_function():
    with pytest.raises(ValueError, match="zero derivative"):
        rayleigh_quotient(ONE, ONE, np.ones_like, np.zeros_like)


@pytest.mark.parametrize("a,b,quotient", [
    (PeriodicWeight.constant(1e15), ONE, 1e15),
    (PeriodicWeight.constant(1e4), PeriodicWeight.constant(1e-11), 1e15),
    (PeriodicWeight.constant(1e-11), PeriodicWeight.constant(1e4), 1e-15)])
def test_rayleigh_quotient_takes_any_scale(a, b, quotient):
    # the zero-derivative guard compares int b w'^2 with int b w^2, so
    # the scales of a and b do not enter it
    q, _ = rayleigh_quotient(a, b, np.cos, lambda t: -np.sin(t))
    assert q == pytest.approx(quotient, rel=1e-12)


def test_rayleigh_quotient_extremal_attains():
    prof = extremal_fn_pq(4.0, 1.0, 1.0)
    q, resid = rayleigh_quotient(ABAR, ABAR, prof.fn, prof.fn_prime)
    assert q == pytest.approx(PS_CONSTANT, rel=1e-6)
    assert resid <= 1e-8


def test_rayleigh_quotient_extremal_golden_values():
    # float.hex of the Gauss-panel quotient and its constraint residual
    prof = extremal_fn_pq(4.0, 1.0, 1.0)
    q, resid = rayleigh_quotient(ABAR, ABAR, prof.fn, prof.fn_prime)
    assert (float(q).hex(), float(resid).hex()) == (
        "0x1.6f4b3b3dcbe10p+1", "0x0.0p+0")


# float.hex of rayleigh_quotient(a, b, sin, cos): a sampled weight alone,
# and paired with a piecewise-constant one whose breakpoints cut the panels
RAYLEIGH_GOLDEN = [
    (sine_family(4.0), ONE, ("0x1.4000000000000p+1",
                             "0x1.e28c731eb6952p-2")),
    (sine_family(4.0), PWC_P, ("0x1.d7e3c2e94e636p-1",
                               "0x1.e28c72aeb1bf9p-2")),
    (PWC_P, sine_family(4.0), ("0x1.736600cf85041p+0",
                               "0x1.2dc1025a24245p-2")),
]


@pytest.mark.parametrize("a,b,golden", RAYLEIGH_GOLDEN,
                         ids=["sine-one", "sine-pwc", "pwc-sine"])
def test_rayleigh_quotient_golden_values(a, b, golden):
    q, resid = rayleigh_quotient(a, b, np.sin, np.cos)
    assert (float(q).hex(), float(resid).hex()) == golden


def test_rayleigh_quotient_requires_wprime_for_callable():
    with pytest.raises(TypeError, match="wprime"):
        rayleigh_quotient(ONE, ONE, np.cos)


def test_converge_aligned_discontinuous():
    res = converge(ABAR, ABAR, [64, 128, 256])
    assert res.estimated_order == pytest.approx(2.0, abs=0.5)


@pytest.mark.parametrize("levels", [(1.0, 1.5, 1.2), (1.0, 1.5, 1.5)])
def test_converge_without_monotone_levels_has_no_order(monkeypatch, levels):
    # d1 / d2 <= 0, or d2 == 0: no order, and the finest constant stands
    from wirtinger import spectral
    real = spectral.fem_constant
    constants = dict(zip([64, 128, 256], levels))

    def fake(a, b, n):
        return dataclasses.replace(real(a, b, n), constant=constants[n])

    monkeypatch.setattr(spectral, "fem_constant", fake)
    res = converge(ONE, ONE, [64, 128, 256])
    assert res.estimated_order is None
    assert res.constant == levels[-1] and res.lambda1 == 1.0 / levels[-1]
    assert res.history == ((64, 1.0), (128, 1.5), (256, levels[-1]))


def test_converge_validates_input():
    with pytest.raises(ValueError):
        converge(ONE, ONE, [64, 128])
    with pytest.raises(ValueError):
        converge(ONE, ONE, [128, 64, 256])
    # only the last triple is extrapolated, so only it needs one ratio
    for levels in ([100, 1000, 1100], [64, 128, 256, 300]):
        with pytest.raises(ValueError, match="one refinement ratio"):
            converge(ONE, ONE, levels)
    res = converge(ONE, ONE, [48, 64, 128, 256])
    assert [n for n, _ in res.history] == [48, 64, 128, 256]
    assert res.estimated_order == pytest.approx(2.0, abs=0.3)


def test_scaling_covariance():
    a, b = ABAR, sine_family(2.0)
    base = best_constant(a, b, 256).constant
    for s, t in [(0.5, 2.0), (2.0, 0.5), (7.3, 7.3)]:
        scaled = best_constant(a.scale(s), b.scale(t), 256).constant
        assert scaled == pytest.approx((s / t) * base, rel=1e-12)


def test_lower_bound_property():
    # any admissible trial function sits below the converged constant
    q, resid = rayleigh_quotient(ABAR, ABAR, np.sin, np.cos)
    assert resid <= 1e-8
    res = converge(ABAR, ABAR, [256, 512, 1024])
    assert q <= res.constant * (1 + 1e-6)


@pytest.mark.parametrize("a,b", [
    (ONE, ONE), (ABAR, ABAR), (ABAR, ABAR.power(-1.0)),
    (sine_family(4.0), ONE),
])
def test_upper_bound_property(a, b):
    res = converge(a, b, [256, 512, 1024])
    assert res.constant <= bound_general(a, b) + 1e-6


# float.hex of (constant, lambda1, residual).  The sampled cells are
# finite-element values, recorded before the eigensolve ran on the cyclic
# tridiagonals (COO assembly, scipy's own shifted factorization and
# operators).  The piecewise-constant cells are exact_constant's, each
# within 1.3e-16 of its closed form in 40-digit arithmetic: bound_power,
# (mean a)^2 of the float breakpoints, and ((4/pi) arctan 4^(-1/2))^(-2)
BEST_CONSTANT_GOLDEN = [
    (sine_family(4.0), ONE, 512, ("0x1.49454a61e0fe9p+1",
                                  "0x1.8e115172431b4p-2",
                                  "0x1.181f21a3fb2a6p-54")),
    (extremal_weight_pq(4.0, 1.0, 0.0), ONE, 1024, (
        "0x1.728b404aaa544p+1", "0x1.61ba86d72b075p-2",
        "0x1.5b79c7bad5876p-54")),
    (ABAR, ABAR.power(-1.0), 8192, ("0x1.9000000000001p+2",
                                    "0x1.47ae147ae147ap-3",
                                    "0x0.0p+0")),
    (PWC500, PWC500.power(-1.0), 2048, ("0x1.8e8250c905da6p+2",
                                        "0x1.48e7ecfb70551p-3",
                                        "0x1.222c16687d17ep-53")),
    (ABAR, ABAR, 32768, ("0x1.6f4b3b3dcbe0ep+1", "0x1.64dbd14711b1cp-2",
                         "0x1.0e577bfb8549cp-53")),
    (sine_family(4.0), PWC_P, 1024, ("0x1.4e7318beda844p+0",
                                     "0x1.87e7522b19167p-1",
                                     "0x1.6c1346cdef2e5p-56")),
]


@pytest.mark.parametrize("a,b,n,golden", BEST_CONSTANT_GOLDEN,
                         ids=["sine-512", "bar-gamma-1024", "reciprocal-8192",
                              "pwc500-2048", "bar-a-32768", "sine-pwc-1024"])
def test_best_constant_golden_values(a, b, n, golden):
    res = best_constant(a, b, n)
    assert (res.constant.hex(), res.lambda1.hex(),
            float(res.residual).hex()) == golden


def test_eigenpair_residual_check_rejects_a_perturbed_vector(
        perturbed_eigsh):
    with pytest.raises(SolverError, match="eigenpair residual"):
        fem_constant(ABAR, ABAR, 512)


@pytest.fixture
def shift_invert_solves(monkeypatch):
    """A list that grows by one per solve with K - sigma M inside eigsh.

    Wraps the matvec of the OPinv that eigsh receives, as
    `perturbed_eigsh` wraps eigsh's result.
    """
    import scipy.sparse.linalg as spla
    eigsh = spla.eigsh
    solves = []

    def counting(*args, OPinv, **kwargs):
        solve = OPinv.matvec

        def counted(x):
            solves.append(x.size)
            return solve(x)

        OPinv.matvec = counted
        return eigsh(*args, OPinv=OPinv, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting)
    return solves


@pytest.mark.parametrize("b", [
    ONE,
    pytest.param(PeriodicWeight.piecewise([0.0, 3.0], [1.0, 1e4]),
                 marks=pytest.mark.xfail(reason=(
                     "the trial shift -lambda_est/2 falls further below "
                     "lambda_1 as the contrast of b grows: 245 solves at "
                     "K = 1e4, 1142 at 1e5, and minutes of them at 1e8 "
                     "and n = 4096 (the b-contrast hang of ROADMAP.md)"))),
], ids=["const", "b-contrast-1e4"])
def test_shift_invert_solve_count(b, shift_invert_solves):
    # const:1 against itself takes 41 solves at n = 1024
    fem_constant(ONE, b, 1024)
    assert 0 < len(shift_invert_solves) <= 64


def test_solver_error_type():
    assert issubclass(SolverError, RuntimeError)


@st.composite
def pwc_weights(draw):
    """A piecewise-constant weight whose pieces are at least 1e-3 wide."""
    k = draw(st.integers(1, 6))
    shares = np.array(draw(st.lists(st.floats(1.0, 100.0),
                                    min_size=k, max_size=k)))
    edges = np.concatenate(([0.0], np.cumsum(shares)))
    bp = TWO_PI * edges[:-1] / edges[-1]
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    return PeriodicWeight.piecewise(bp, values)


def rotated(w, shift):
    """theta -> w(theta - shift); a breakpoint that rounds onto 2pi is 0."""
    bp = np.mod(w.breakpoints + shift, TWO_PI)
    bp[np.minimum(bp, TWO_PI - bp) < 1e-12] = 0.0
    order = np.argsort(bp)
    return PeriodicWeight.piecewise(bp[order], w.values[order])


def reflected(w):
    """theta -> w(2pi - theta)."""
    edges = np.concatenate((w.breakpoints, [TWO_PI]))
    return PeriodicWeight.piecewise((TWO_PI - edges[1:])[::-1],
                                    w.values[::-1])


mesh_sizes = st.sampled_from([16, 64, 128, 256, 512])


@given(pwc_weights(), pwc_weights(), mesh_sizes, st.integers(1, 511))
@settings(max_examples=25, deadline=None)
def test_rotation_invariance_property(a, b, n, k):
    # a rotation by whole mesh steps maps the uniform mesh onto itself
    shift = (1 + k % (n - 1)) * TWO_PI / n
    base = best_constant(a, b, n).constant
    turned = best_constant(rotated(a, shift), rotated(b, shift), n).constant
    assert turned == pytest.approx(base, rel=1e-9)


@given(pwc_weights(), pwc_weights(), mesh_sizes)
@settings(max_examples=25, deadline=None)
def test_reflection_invariance_property(a, b, n):
    base = best_constant(a, b, n).constant
    mirrored = best_constant(reflected(a), reflected(b), n).constant
    assert mirrored == pytest.approx(base, rel=1e-9)


SLIVER_BREAKPOINTS = [float.fromhex(x) for x in ("0x1.0c152382d7365p+1",
                                                  "0x1.0c152382d7367p+1")]
#: two constant-1 weights whose breakpoints lie 2 ulps apart
UNION_SLIVER = tuple(PeriodicWeight.piecewise([0.0, x], [1.0, 1.0])
                     for x in SLIVER_BREAKPOINTS)
#: the same breakpoints, a = 1 then 3 and b = 1 then 2
VALUES_3_2 = tuple(PeriodicWeight.piecewise([0.0, x], [1.0, v])
                   for x, v in zip(SLIVER_BREAKPOINTS, (3.0, 2.0)))


@pytest.mark.parametrize("orient", [lambda w: w, reflected],
                         ids=["as-drawn", "reflected"])
def test_union_sliver_stays_below_the_bound(orient):
    # left unmerged, the 8.9e-16 element between the breakpoints gives
    # C_16 = 1.01438 (reflected: 1.01536), above the exact C = 1
    a, b = map(orient, UNION_SLIVER)
    bound = bound_general(a, b)
    assert best_constant(a, b, 16).constant <= bound * (1 + 1e-10)


#: w = 2, 5, 1, 3 on [0, 1), [1, 1 + 1e-9), [1 + 1e-9, 3), [3, 2pi); the
#: piece is wider than build_mesh's merge tolerance at n = 64 (9.8e-11),
#: so it stays in the mesh (m = 67), where a 3e-12 piece would merge
PIECE_1E9 = PeriodicWeight.piecewise([0.0, 1.0, 1.0 + 1e-9, 3.0],
                                     [2.0, 5.0, 1.0, 3.0])


def oracle_lambda(a, b, n):
    """lambda_h on build_mesh(a, b, n), in 40-digit arithmetic.

    K and M are assembled in mpmath from the float nodes, each element's
    midpoint weight values and an exact 2pi, never from the float
    matrices, whose rounded diagonal sums break K 1 = 0.  M is
    Cholesky-reduced, and lambda_h is the second-smallest eigenvalue.
    The dense eigensolve is O(m^3), so m stays at a few dozen.
    """
    mesh = build_mesh(a, b, n)
    mids = mesh.nodes + mesh.lengths / 2
    av, bv = a.eval(mids), b.eval(mids)
    m = mesh.n
    with mpmath.workdps(40):
        x = [mpmath.mpf(t) for t in mesh.nodes]
        x.append(x[0] + 2 * mpmath.pi)
        K, M = mpmath.zeros(m), mpmath.zeros(m)
        for e in range(m):
            i, j = e, (e + 1) % m
            h = x[e + 1] - x[e]
            k, w = mpmath.mpf(bv[e]) / h, mpmath.mpf(av[e]) * h / 6
            K[i, i] += k
            K[j, j] += k
            K[i, j] -= k
            K[j, i] -= k
            M[i, i] += 2 * w
            M[j, j] += 2 * w
            M[i, j] += w
            M[j, i] += w
        Linv = mpmath.inverse(mpmath.cholesky(M))
        return mpmath.eigsy(Linv * K * Linv.T, eigvals_only=True)[1]


ORACLE_CELLS = [
    pytest.param(ABAR, ABAR, 32, id="bar-a:4-32"),
    pytest.param(extremal_weight_pq(1e6, 1.0, 1.0),
                 extremal_weight_pq(1e6, 1.0, 1.0), 32, id="bar-a:1e6-32",
                 marks=pytest.mark.xfail(reason=(
                     "lambda_1 loses digits to the cancellation in K: "
                     "8.3e-10 off the oracle (the gradient-form quotient, "
                     "item 1 of ROADMAP.md)"))),
    pytest.param(ABAR, ABAR, 64, id="bar-a:4-64", marks=pytest.mark.slow),
    pytest.param(PIECE_1E9, PIECE_1E9.power(-1.0), 64, id="piece-1e-9-64",
                 marks=[pytest.mark.slow, pytest.mark.xfail(reason=(
                     "lambda_1 loses digits to the cancellation in K "
                     "across the 1e-9 piece: 1.5e-8 off the oracle "
                     "(the gradient-form quotient, item 1 of ROADMAP.md)"))]),
] + [
    pytest.param(*map(orient, pair), n, id=f"{name}-{orient_id}-{n}")
    for name, pair in (("union-sliver", UNION_SLIVER),
                       ("values-3-2", VALUES_3_2))
    for orient, orient_id in ((lambda w: w, "as-drawn"),
                              (reflected, "reflected"))
    for n in (16, 32)
]


@pytest.mark.parametrize("a,b,n", ORACLE_CELLS)
def test_best_constant_matches_the_extended_precision_oracle(a, b, n):
    # every mesh here has m <= 67 nodes; the O(m^3) mpmath eigensolve
    # takes ~3 s at m = 64, so those cells are marked slow
    oracle = oracle_lambda(a, b, n)
    lam = fem_constant(a, b, n).lambda1
    assert float(abs(lam - oracle) / oracle) <= 1e-12


@given(pwc_weights(), pwc_weights(), mesh_sizes)
@settings(max_examples=25, deadline=None)
def test_bound_exceeds_discrete_constant_property(a, b, n):
    # P1 elements with exact quadrature are a Rayleigh-Ritz method, so
    # the discrete constant never exceeds C(a, b) <= bound_general(a, b)
    assert best_constant(a, b, n).constant <= bound_general(a, b) * (1 + 1e-9)


@given(pwc_weights(), pwc_weights(), mesh_sizes, st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_scaling_property(a, b, n, s):
    # C(s a, b) = s C(a, b) and C(a, s b) = C(a, b) / s
    base = best_constant(a, b, n).constant
    assert best_constant(a.scale(s), b, n).constant == pytest.approx(
        s * base, rel=1e-9)
    assert best_constant(a, b.scale(s), n).constant == pytest.approx(
        base / s, rel=1e-9)


@given(pwc_weights(), mesh_sizes)
@settings(max_examples=25, deadline=None)
def test_reciprocal_closed_form_property(a, n):
    # C(a, 1/a) = (mean a)^2; Rayleigh-Ritz keeps the discrete constant
    # below it at every n, and n = 512 comes within 5e-2 of it
    exact = closed_form_pq0(a)[0]
    computed = best_constant(a, a.power(-1.0), n).constant
    assert computed <= exact * (1 + 1e-9)
    if n == 512:
        assert computed >= exact * (1 - 5e-2)


def raised(w, factors):
    """w times factors >= 1, piece by piece, on w's own breakpoints."""
    scale = np.resize(factors, w.values.size)
    return PeriodicWeight.piecewise(w.breakpoints, w.values * scale)


raise_factors = st.lists(st.floats(1.0, 4.0), min_size=1, max_size=7)


@given(pwc_weights(), pwc_weights(), mesh_sizes, raise_factors)
@settings(max_examples=25, deadline=None)
def test_monotone_in_a_property(a, b, n, factors):
    # lambda_1 = min_w int b w'^2 / min_c int a (w - c)^2, so a <= a'
    # gives C(a, b) <= C(a', b); a' keeps a's breakpoints, hence the mesh,
    # and the discrete constants obey it up to solver roundoff
    assert (best_constant(a, b, n).constant
            <= best_constant(raised(a, factors), b, n).constant
            * (1 + 1e-12))


@given(pwc_weights(), pwc_weights(), mesh_sizes, raise_factors)
@settings(max_examples=25, deadline=None)
def test_monotone_in_b_property(a, b, n, factors):
    # b <= b' gives C(a, b) >= C(a, b'), on the shared mesh likewise
    assert (best_constant(a, b, n).constant * (1 + 1e-12)
            >= best_constant(a, raised(b, factors), n).constant)


@given(pwc_weights(), pwc_weights(), st.sampled_from([16, 64]),
       st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=25, deadline=None)
def test_power_of_4_scaling_property(a, b, n, i, j):
    # best_constant solves on a / 4^i' and b / 4^j' with each ess sup in
    # [1, 4), so C(4^i a, 4^j b) = 4^(i - j) C(a, b) holds bit for bit;
    # the base pair is lifted by 4^45 to keep 4^-60 a above
    # POSITIVITY_FLOOR
    a, b = a.scale(4.0 ** 45), b.scale(4.0 ** 45)
    base = best_constant(a, b, n).constant
    scaled = best_constant(a.scale(4.0 ** i), b.scale(4.0 ** j), n).constant
    assert scaled == math.ldexp(base, 2 * (i - j))


@pytest.mark.parametrize("n", [64, 96, 4096])
def test_b_of_2_to_the_1020_scales_the_constant_exactly(n):
    # K of b = 4^510 would overflow in the caller's scale; at unit scale
    # it is the K of b = 1
    big = PeriodicWeight.constant(2.0 ** 1020)
    assert (fem_constant(ONE, big, n).constant
            == math.ldexp(fem_constant(ONE, ONE, n).constant, -1020))


def test_large_scale_solve_is_deterministic():
    # solved at the user's scale, this pair gave several constants in as
    # many calls in one process
    a, b = PeriodicWeight.constant(1e120), ONE
    constants = {fem_constant(a, b, 64).constant.hex() for _ in range(6)}
    assert len(constants) == 1


def test_restarted_solve_is_deterministic():
    # ARPACK asks for a restart vector on this pair, and the constant
    # depends on it in the last bits; best_constant seeds its generator
    w = PeriodicWeight.piecewise([0.0, 3.0], [1.0, 10 ** 116.5])
    constants = {fem_constant(w, w, 64).constant.hex() for _ in range(6)}
    assert len(constants) == 1


# -- the transfer-matrix constant of piecewise-constant pairs ---------------


def mp_monodromy(a, b, lam):
    """T(lam) of the pair in 40-digit arithmetic, at the caller's scale."""
    starts = np.union1d(a.breakpoints, b.breakpoints)
    ends = [mpmath.mpf(x) for x in starts[1:]] + [2 * mpmath.pi]
    t = mpmath.eye(2)
    for x, end in zip(starts, ends):
        alpha, beta = mpmath.mpf(a.eval(x)), mpmath.mpf(b.eval(x))
        k = mpmath.sqrt(lam * alpha / beta)
        phase = k * (end - mpmath.mpf(x))
        c, s = mpmath.cos(phase), mpmath.sin(phase)
        t = mpmath.matrix([[c, s / (k * beta)],
                           [-lam * alpha * s / k, c]]) * t
    return t


def mp_constant(a, b):
    """exact_constant's bracket for lambda_1, run in 40-digit arithmetic.

    The same march from half the larger of ess inf b / ess sup a and
    1 / the paper's bound, up by 1.2, to the first point where tr T >= 2
    or where T_12 turns positive; the roots come from mpmath's Illinois
    solver, and the gap counts as closed where tr T(nu_2) - 2 is below
    1e-30."""
    with mpmath.workdps(40):
        def trace2(lam):
            t = mp_monodromy(a, b, lam)
            return t[0, 0] + t[1, 1] - 2

        def t12(lam):
            return mp_monodromy(a, b, lam)[0, 1]

        ab = np.concatenate((a.breakpoints, b.breakpoints))
        prods = [mpmath.mpf(a.eval(x)) * mpmath.mpf(b.eval(x)) for x in ab]
        mean_root = sqrt_ratio_mean(a, b)
        ratio = mpmath.sqrt(mpmath.sqrt(min(prods) / max(prods)))
        lam = max(mpmath.mpf(b.ess_bounds().inf) / a.ess_bounds().sup,
                  ((4 / mpmath.pi) * mpmath.atan(ratio) / mean_root) ** 2) / 2
        while True:
            up = lam * mpmath.mpf("1.2")
            if trace2(up) >= 0:
                root = mpmath.findroot(trace2, (lam, up), solver="illinois")
                break
            if t12(lam) < 0 <= t12(up):
                nu2 = mpmath.findroot(t12, (lam, up), solver="illinois")
                root = (mpmath.findroot(trace2, (lam, nu2), solver="illinois")
                        if trace2(nu2) > mpmath.mpf("1e-30") else nu2)
                break
            lam = up
        return 1 / root


def sqrt_ratio_mean(a, b):
    """The mean of sqrt(a / b) over a period, in mpmath."""
    starts = np.union1d(a.breakpoints, b.breakpoints)
    ends = [mpmath.mpf(x) for x in starts[1:]] + [2 * mpmath.pi]
    return sum((end - mpmath.mpf(x)) * mpmath.sqrt(
        mpmath.mpf(a.eval(x)) / mpmath.mpf(b.eval(x)))
        for x, end in zip(starts, ends)) / (2 * mpmath.pi)


@pytest.mark.parametrize("L", [2.0, 4.0, 10.0, 1e2, 1e4, 1e6])
def test_exact_constant_of_the_square_wave(L):
    abar = extremal_weight_pq(L, 1.0, 1.0)
    with mpmath.workdps(40):
        exact = (4 / mpmath.pi * mpmath.atan(mpmath.mpf(L) ** -0.5)) ** -2
    assert float(abs(exact_constant(abar, abar) - exact) / exact) <= 1e-13


@pytest.mark.parametrize("M,p,q", [(4.0, 1.0, 0.0), (9.0, 1.0, 1.0),
                                   (4.0, 2.0, 1.0), (1e3, 1.0, 0.0),
                                   (16.0, 0.5, 1.5)])
def test_exact_constant_attains_bound_power(M, p, q):
    # the paper's equality case: the extremal gamma of (M, p, q)
    pair = PowerWeightPair.create(extremal_weight_pq(M, p, q), p, q)
    assert exact_constant(pair.a, pair.b) == pytest.approx(
        bound_power(pair), rel=1e-13)


def pwc_many_weight(rng, count):
    """A weight as perfbench's pwc-many workload draws it."""
    while True:
        bp = np.unique(rng.uniform(0.0, TWO_PI, count))
        if bp.size == count:
            return PeriodicWeight.piecewise(bp, rng.uniform(1.0, 4.0, count))


@pytest.mark.parametrize("seed", [1, 2])
def test_exact_constant_of_the_benchmark_reciprocal_pairs(seed):
    # C(a, 1/a) = (mean a)^2 on pwc-many's weights, 500 to 2000 pieces
    rng = np.random.default_rng(seed)
    for count in (500, 714, 929, 1143, 1357, 1571, 1786, 2000):
        a = pwc_many_weight(rng, count)
        exact = closed_form_pq0(a)[0]
        assert exact_constant(a, a.power(-1.0)) == pytest.approx(
            exact, rel=1e-11)


@pytest.mark.parametrize("seed", [3, 4])
def test_exact_constant_within_the_richardson_error(seed):
    # above every finite-element constant (Rayleigh-Ritz), and as close to
    # the extrapolated one as that is to the finest level
    a = pwc_many_weight(np.random.default_rng(seed), 500)
    exact = exact_constant(a, ONE)
    res = converge(a, ONE, [512, 1024, 2048])
    assert all(exact >= c for _, c in res.history)
    assert abs(exact - res.constant) <= abs(res.constant - res.history[-1][1])


#: five-piece pairs, breakpoints off every pi / 2^k
FIVE_PIECE_PAIRS = [
    (PeriodicWeight.piecewise([0.0, 0.7, 1.9, 3.3, 5.1],
                              [1.0, 3.0, 0.5, 2.0, 7.0]),
     PeriodicWeight.piecewise([0.0, 1.1, 2.2, 4.0, 4.4],
                              [2.0, 0.3, 1.0, 5.0, 1.5])),
    (PeriodicWeight.piecewise([0.0, 0.3, 2.9, 3.0, 6.0],
                              [10.0, 1.0, 100.0, 1.0, 0.1]), ONE),
    (ONE, PeriodicWeight.piecewise([0.0, 1.0, 1.5, 4.0, 5.5],
                                   [1.0, 1e4, 2.0, 1e-3, 4.0])),
    (PWC_P, PWC_P.power(-1.0)),
]


@pytest.mark.parametrize("a,b", FIVE_PIECE_PAIRS,
                         ids=["mixed", "a-only", "b-only", "reciprocal"])
def test_exact_constant_matches_its_bracket_in_mpmath(a, b):
    reference = mp_constant(a, b)
    assert float(abs(exact_constant(a, b) - reference) / reference) <= 1e-15


@pytest.mark.parametrize("K,n", [("1e8", "4096"), ("1e12", "1024"),
                                 ("1e16", "8"), ("1e27", "8")])
def test_b_contrast_solve_is_exact_or_refused(K, n, capsys):
    # finite elements ran for minutes on the first and printed 0.462, 2
    # (above C(1, 1) = 1) and 9.7e-12 on the others
    b = f"pwc:0=1,3={K}"
    start = time.perf_counter()
    code = main(["solve", "--a", "const:1", "--b", b, "--n", n])
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert code in (0, 3)
    if code == 0:
        constant = json.loads(out)["results"]["constant"]
        reference = mp_constant(ONE, PeriodicWeight.piecewise(
            [0.0, 3.0], [1.0, float(K)]))
        assert float(abs(constant - reference) / reference) <= 1e-12


@given(pwc_weights(), pwc_weights(), mesh_sizes)
@settings(max_examples=25, deadline=None)
def test_exact_constant_bounds_property(a, b, n):
    # at least every finite-element constant, at most the paper's bound,
    # (mean a)^2 for the reciprocal pair, and its own bracket in mpmath
    exact = exact_constant(a, b)
    assert exact >= fem_constant(a, b, n).constant * (1 - 1e-12)
    assert exact <= bound_general(a, b) * (1 + 1e-13)
    assert exact_constant(a, a.power(-1.0)) == pytest.approx(
        closed_form_pq0(a)[0], rel=1e-13)
    assert exact == pytest.approx(float(mp_constant(a, b)), rel=1e-14)


def test_exact_constant_refuses_a_sampled_weight():
    with pytest.raises(ValueError, match="piecewise-constant"):
        exact_constant(sine_family(4.0), ONE)


@pytest.mark.parametrize("a,b", [(ABAR, ABAR), (PWC500, ONE),
                                 (ONE, PeriodicWeight.piecewise(
                                     [0.0, 3.0], [1.0, 1e27]))],
                         ids=["bar-a", "pwc500", "b-contrast"])
def test_exact_eigenfunction_is_normalized_signed_and_sampled(a, b):
    # int a u^2 = int a, the first peak of |u| positive, on build_mesh's
    # nodes; the eigenfunction and lambda_1 give back the constant
    res = best_constant(a, b, 512)
    mesh = build_mesh(a, b, 512)
    assert np.array_equal(res.nodes, mesh.nodes) and res.n == mesh.n
    assert res.constant == exact_constant(a, b)
    assert res.lambda1 == pytest.approx(1 / res.constant, rel=1e-15)
    assert res.residual <= 1e-14
    u = res.eigenfunction
    first = int(np.argmax(np.abs(u) >= (1 - 1e-8) * np.max(np.abs(u))))
    assert u[first] > 0
    i, j, bounds, mean_a = spectral._unit_scale(a, b)
    pieces, lam1 = hill.certified_lambda1(a, b, i, j, bounds)
    values, norm = pieces.eigenfunction(lam1)
    w = math.sqrt(TWO_PI * math.ldexp(mean_a, -2 * i) / norm) * values(
        mesh.nodes)[0]
    assert np.max(np.abs(np.abs(u) - np.abs(w))) <= 1e-15 * np.max(np.abs(u))
    # the normalization's closed form against the Gauss panels
    pts, gw = panel_quadrature([a.breakpoints, b.breakpoints])
    assert float(np.sum(gw * np.ldexp(a.eval(pts), -2 * i)
                        * values(pts)[0] ** 2)) == pytest.approx(norm,
                                                                 rel=1e-12)


def test_exact_path_counts_the_dirichlet_zeros():
    # const:1 has Dirichlet eigenvalues (k / 2)^2 on [0, 2pi]
    pieces = hill.Hill(ONE, ONE, 0, 0)
    for lam in (0.2, 0.3, 0.9, 1.1, 2.2, 2.3, 5.0, 7.0, 100.3):
        assert pieces.dirichlet_zeros(lam, pieces.tree(lam)) == sum(
            1 for k in range(1, 100) if (k / 2) ** 2 < lam)


def _looped_states(pieces, lam, v):
    """(w, b w') at every piece's start and at 2pi, one piece after the
    other (reference)."""
    _, c, upper, lower = pieces.entries(lam)
    w, f = v
    ws, fs = [w], [f]
    for cp, up, lo in zip(c.tolist(), upper.tolist(), lower.tolist()):
        w, f = cp * w + up * f, lo * w + cp * f
        ws.append(w)
        fs.append(f)
    return np.array(ws), np.array(fs)


def _looped_dirichlet_zeros(pieces, lam):
    """The Pruefer count of the Dirichlet solution from the looped
    states (reference)."""
    w, f = _looped_states(pieces, lam, (0.0, 1.0))
    g = math.sqrt(lam) * pieces.impedance
    start = np.mod(np.arctan2(g * w[:-1], f[:-1]), math.pi)
    end = np.mod(np.arctan2(g * w[1:], f[1:]), math.pi)
    turns = np.rint((start + math.sqrt(lam) * pieces.rate * pieces.lengths
                     - end) / math.pi)
    return int(turns.sum()) - int(w[-1] == 0.0)


def _random_pair(rng, count):
    """A pwc pair with `count` pieces in all, contrasts up to 1e12: a on
    all the breakpoints, b on 0 and a random half of the others."""
    bp = np.zeros(count)
    while count > 1:
        bp[1:] = np.sort(rng.uniform(0.0, TWO_PI, count - 1))
        if np.all(np.diff(bp) > 0.0):
            break
    b_bp = bp[np.append(True, rng.random(count - 1) < 0.5)]

    def values(size):
        return 10.0 ** (rng.uniform(0.0, 1.0, size) * rng.uniform(0.0, 12.0))

    return (PeriodicWeight.piecewise(bp, values(count)),
            PeriodicWeight.piecewise(b_bp, values(b_bp.size)))


# piece counts whose trees have odd levels above the leaves (6, 300) and
# at the leaves (1, 3, 257, 299), then random ones up to 300
SWEEP_COUNTS = [1, 2, 3, 6, 7, 13, 64, 255, 257, 299, 300]


def test_swept_states_match_the_piece_by_piece_loop():
    rng = np.random.default_rng(2005)
    counts = SWEEP_COUNTS + list(rng.integers(1, 301, 190))
    for count in counts:
        a, b = _random_pair(rng, count)
        i, j, _, _ = spectral._unit_scale(a, b)
        pieces = hill.Hill(a, b, i, j)
        assert pieces.starts.size == count
        for factor in np.exp(rng.uniform(math.log(0.5), math.log(20.0), 2)):
            lam = factor * pieces.lower_bound()
            levels = pieces.tree(lam)
            for v in ((0.0, 1.0), tuple(rng.normal(size=2))):
                for got, ref in zip(pieces.sweep(levels, v),
                                    _looped_states(pieces, lam, v)):
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(
                        np.abs(ref)), (count, lam)
            assert pieces.dirichlet_zeros(lam, levels) == (
                _looped_dirichlet_zeros(pieces, lam)), (count, lam)


def test_one_product_tree_per_lambda_besides_the_root_search(monkeypatch):
    # the root search's trees, then one at lambda_1 (1 - 1e-9) for the
    # certificate and one at lambda_1 for the eigenfunction: an extra
    # tree, or a monodromy per piece, fails here
    lams, searched = [], []
    tree, lambda1 = hill.Hill.tree, hill.Hill.lambda1

    def counted_tree(self, lam, derivative=False):
        lams.append(lam)
        return tree(self, lam, derivative)

    def counted_lambda1(self, lam_lo, lam_hi):
        root = lambda1(self, lam_lo, lam_hi)
        searched.append(len(lams))
        return root

    monkeypatch.setattr(hill.Hill, "tree", counted_tree)
    monkeypatch.setattr(hill.Hill, "lambda1", counted_lambda1)
    res = best_constant(PWC500, ONE, 512)
    assert searched[0] > 0 and len(lams) == searched[0] + 2
    # PWC500 and ONE are at unit scale already
    assert lams[-2:] == [res.lambda1 * (1 - hill.CERTIFY_OFFSET), res.lambda1]


def test_exact_path_refuses_an_uncertified_root(monkeypatch):
    # lambda_3 = 4 of (1, 1) is a root of tr T = 2, but its Dirichlet
    # solution has three zeros below it
    monkeypatch.setattr(hill.Hill, "lambda1", lambda self, lo, hi: 4.0)
    with pytest.raises(SolverError, match="not certified as lambda_1"):
        exact_constant(ONE, ONE)


def test_exact_path_refuses_a_quotient_off_lambda_1(monkeypatch):
    monkeypatch.setattr(spectral, "QUOTIENT_TOL", -1.0)
    with pytest.raises(SolverError, match="Rayleigh quotient"):
        best_constant(ABAR, ABAR, 64)


def test_exact_path_gives_up_without_a_bracket():
    # a march that ends before it starts, or whose T overflows
    pieces = hill.Hill(ONE, ONE, 0, 0)
    with pytest.raises(SolverError, match="no bracket"):
        pieces.lambda1(0.5, 0.1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverError, match="no bracket"):
            pieces.lambda1(math.inf, math.inf)


def test_root_refinement_bisects_and_gives_up():
    # a step that overshoots the bracket is replaced by bisection; a
    # non-finite step ends the search
    root = hill._refine(lambda x: (x < 2.0, 3.0 * (2.0 - x)), 1.0, 3.0,
                            2.9)
    assert root == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(SolverError, match="did not converge"):
        hill._refine(lambda x: (True, math.nan), 1.0, 3.0, 2.0)


@pytest.mark.parametrize("quad,lin,const,root", [
    (0.0, 0.0, 1.0, 0.0), (0.0, 2.0, -4.0, 2.0), (1.0, 0.0, 0.0, 0.0),
    (1.0, -3.0, 2.0, 1.0), (1.0, 0.0, 1.0, 0.0)])
def test_smaller_root(quad, lin, const, root):
    # linear and degenerate cases, and the real part of complex roots
    assert hill._smaller_root(quad, lin, const) == root
