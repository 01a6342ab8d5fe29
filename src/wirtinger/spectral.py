"""Best constant via the periodic Sturm-Liouville eigenproblem.

The best constant is 1/lambda_1 of -(b w')' = lambda a w on the
a-orthogonal complement of constants.  For piecewise-constant a and b,
`exact_constant` finds lambda_1 from the transfer matrices of the
pieces; otherwise `fem_constant` discretizes with piecewise-linear
elements on a periodic mesh aligned with the weight breakpoints.

scipy's sparse matrices and ARPACK load on the first `assemble` or
`fem_constant` call, and `hill`, the transfer matrices, on the first
exact solve, so importing this module, and `wirtinger` with it, loads
numpy only; the exact constant needs no scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .weights import (GAUSS_NODES, GAUSS_WEIGHTS, TWO_PI, PeriodicWeight,
                      panel_quadrature, weighted_moments)


class SolverError(RuntimeError):
    """best_constant cannot give the constant: a contrast past
    SCALE_LIMIT, an a whose integral over a period overflows, or a
    constant outside the normal floats; in fem_constant, a nonpositive
    trial Rayleigh quotient, a failed eigensolve, a nonpositive lambda_1
    or an eigenpair that fails the residual check; in exact_constant, a
    root search that fails or a root not certified as lambda_1, and in
    best_constant's exact path an eigenfunction whose Rayleigh quotient
    is off 1 / lambda_1."""


@dataclass(frozen=True)
class Mesh:
    """Periodic mesh on [0, 2pi): nodes plus a wraparound element.

    Its nodes are not changed after construction; `lengths` is worked
    out from them once."""

    nodes: np.ndarray

    @property
    def n(self):
        return self.nodes.size

    @cached_property
    def lengths(self):
        """Element lengths, a read-only array."""
        wrapped = np.concatenate((self.nodes, [self.nodes[0] + TWO_PI]))
        h = np.diff(wrapped)
        h.setflags(write=False)
        return h


@dataclass(frozen=True)
class SpectralResult:
    """Discrete estimate of the best constant with its eigenfunction."""

    constant: float
    lambda1: float
    eigenfunction: np.ndarray
    nodes: np.ndarray
    n: int
    residual: float
    estimated_order: float | None = None
    history: tuple | None = None       # (n, constant) per refinement level


def build_mesh(a, b, n):
    """Uniform n-node periodic mesh plus weight breakpoints, slivers merged.

    A uniform node goes only for a breakpoint kept in its place, so the
    mesh has at least n >= 8 nodes, enough for eigsh's k = 6."""
    if n < 8:
        raise ValueError("mesh requires n >= 8")
    base = np.linspace(0.0, TWO_PI, n, endpoint=False)
    tol = 1e-9 * (TWO_PI / n)
    bp = np.sort(np.concatenate(([0.0], a.breakpoints, b.breakpoints)))
    # merge repeats and slivers: drop each breakpoint within tol of its
    # predecessor, then the last one if it is within tol of 2pi (node 0,
    # circularly)
    bp = bp[np.append(True, np.diff(bp) > tol)]
    if TWO_PI - bp[-1] <= tol:
        bp = bp[:-1]
    # keep the remaining breakpoints, drop uniform nodes that (circularly)
    # collide; only a node's circular neighbours among the sorted
    # breakpoints can (bp[0] == 0, and bp[-1] wraps around)
    right = np.searchsorted(bp, base)
    keep = np.ones(n, dtype=bool)
    for nearest in (bp[right - 1], bp[right % bp.size]):
        diff = np.abs(base - nearest)
        keep &= np.minimum(diff, TWO_PI - diff) > tol
    # a kept node lies more than tol from every breakpoint: no value repeats
    return Mesh(nodes=np.sort(np.concatenate((base[keep], bp))))


def _element_entries(a, b, mesh, i, j):
    """Element entries (kdiag, m00, m01, m11) of b / 4^j and a / 4^i.

    Element e joins nodes e and e+1 (mod m); its stiffness block is
    kdiag[e] * [[1, -1], [-1, 1]] and its mass block [[m00, m01], [m01,
    m11]].  Per-element 4-point Gauss quadrature; exact whenever the
    weights are constant on each element, which mesh construction
    guarantees for piecewise-constant weights up to merged slivers.
    """
    h = mesh.lengths
    # pts[e, k] = x_e + h_e g_k, written one Gauss node at a time (numpy's
    # broadcast over rows of 4 is slower)
    pts = np.empty((mesh.n, 4))
    for k, g in enumerate(GAUSS_NODES):
        pts[:, k] = mesh.nodes + h * g
    pts = pts.ravel()
    av = np.asarray(a.eval(pts)).reshape(-1, 4)
    bv = np.asarray(b.eval(pts)).reshape(-1, 4)
    phi0, phi1 = 1.0 - GAUSS_NODES, GAUSS_NODES
    # a power of 4 scales each Gauss sum exactly, bar subnormals
    sa, sb = math.ldexp(1.0, -2 * i), math.ldexp(1.0, -2 * j)
    # local mass entries: h * sum_k gw_k a_k phi_i(x_k) phi_j(x_k) / 4^i
    m00 = h * ((av @ (GAUSS_WEIGHTS * phi0 * phi0)) * sa)
    m01 = h * ((av @ (GAUSS_WEIGHTS * phi0 * phi1)) * sa)
    m11 = h * ((av @ (GAUSS_WEIGHTS * phi1 * phi1)) * sa)
    # local stiffness: sum_k gw_k b_k / (4^j h) on the [[1,-1],[-1,1]] stencil
    return (bv @ GAUSS_WEIGHTS) * sb / h, m00, m01, m11


def _cyclic_csc(d0, off, d1):
    """Canonical CSC of the sum of the element blocks [[d0, off], [off, d1]].

    Element e joins nodes e and e+1 (mod m), m >= 3, so the sum is cyclic
    tridiagonal: column j holds off[j-1], d0[j] + d1[j-1] and off[j] at
    rows j-1, j and j+1 (mod m).  Only the first and last columns wrap,
    to rows (0, 1, m-1) and (0, m-2, m-1) in sorted order.
    """
    import scipy.sparse as sp
    m = d0.size
    j = np.arange(m, dtype=np.int32)
    rows = np.empty((m, 3), dtype=np.int32)
    rows[:, 0], rows[:, 1], rows[:, 2] = j - 1, j, j + 1
    rows[0], rows[-1] = (0, 1, m - 1), (0, m - 2, m - 1)
    data = np.empty((m, 3))
    data[1:, 0] = off[:-1]
    data[1:, 1] = d0[1:] + d1[:-1]
    data[1:, 2] = off[1:]
    data[0] = d0[0] + d1[-1], off[0], off[-1]
    data[-1] = off[-1], off[-2], d0[-1] + d1[-2]
    mat = sp.csc_matrix((data.ravel(), rows.ravel(),
                         np.arange(0, 3 * m + 1, 3, dtype=np.int32)),
                        shape=(m, m))
    mat.has_canonical_format = True
    return mat


def assemble(a, b, mesh, i=0, j=0):
    """Stiffness (from b / 4^j) and mass (from a / 4^i) matrices on the mesh.

    Both are canonical CSC, cyclic tridiagonal, with one sparsity
    pattern; the mesh needs at least 3 nodes (ValueError otherwise).
    """
    if mesh.n < 3:
        raise ValueError("assemble requires a mesh of at least 3 nodes")
    kdiag, m00, m01, m11 = _element_entries(a, b, mesh, i, j)
    return _cyclic_csc(kdiag, -kdiag, kdiag), _cyclic_csc(m00, m01, m11)


#: largest eigenpair residual ||K u - lambda M u|| / (||K||_1 ||u||)
#: best_constant accepts
EIG_RESIDUAL_TOL = 1e-10


#: best_constant raises SolverError, before any factorization, when
#: ess sup a / min(1, ess inf b) or ess sup b / min(1, ess inf a)
#: exceeds this, about the square root of the largest float, on the
#: weights scaled so that each ess sup lies in [1, 4).  So scaled, the
#: two ratios are the contrasts ess sup / ess inf of b and of a, to
#: within a factor of 4; the scale itself is not limited.  Measured
#: without the check, in quarter-decade steps, with the weight that is
#: 1 on [0, 3) and K on [3, 2pi) against a constant: a contrast K in a
#: alone solves, bit-reproducibly, up to K = 1e300 at n = 64 and 4096,
#: and fails in ARPACK at K = 1e77.5 and, with a few exceptions, from
#: 1e123.25 at n = 8.  The same K in a and b solves up to 1e300 at
#: n = 64 and 4096 and fails, all but once, from 1e145.75 at n = 8.
#: A contrast in b alone fails long before the limit, from 1e16.25 at
#: n = 8 and 1e14.5 at n = 64, after losing digits to the cancellation
#: in K from about 1e10; at n = 4096 the eigensolve runs for over a
#: minute at K = 1e8 ... 1e16 and fails from 1e20 on.
SCALE_LIMIT = 1e154


def _csc_product(mat):
    """x -> mat @ x for a float vector x, bit for bit, on a CSC matrix.

    scipy's own csc_matvec kernel, which `mat @ x` ends in, into a zeroed
    vector, without the dispatch before it.
    """
    from scipy.sparse._sparsetools import csc_matvec
    rows, cols = mat.shape

    def product(x):
        y = np.zeros(rows)
        csc_matvec(rows, cols, mat.indptr, mat.indices, mat.data, x, y)
        return y

    return product


def _unit_scale(a, b):
    """Exponents i, j with 4^i <= ess sup a < 4^(i + 1), likewise j for b,
    then the unit-scale bounds (sup a, inf a, sup b, inf b) / (4^i, 4^j)
    and the mean of a.

    SolverError for weights past SCALE_LIMIT and for an a whose integral
    over a period overflows, the eigenfunction's normalization.
    """
    ea, eb = a.ess_bounds(), b.ess_bounds()
    i, j = ((math.frexp(e.sup)[1] - 1) // 2 for e in (ea, eb))
    sup_a, inf_a = math.ldexp(ea.sup, -2 * i), math.ldexp(ea.inf, -2 * i)
    sup_b, inf_b = math.ldexp(eb.sup, -2 * j), math.ldexp(eb.inf, -2 * j)
    for ratio, scale in (("a / min(1, ess inf b)", sup_a / min(1.0, inf_b)),
                         ("b / min(1, ess inf a)", sup_b / min(1.0, inf_a))):
        if scale > SCALE_LIMIT:
            raise SolverError(f"ess sup {ratio} = {scale:.3g} exceeds "
                              f"{SCALE_LIMIT:g} with each ess sup scaled "
                              "into [1, 4); the eigensolve would overflow")
    mean_a = a.mean()
    if math.isinf(mean_a):
        raise SolverError("the integral of a over a period overflows a float")
    return i, j, (sup_a, inf_a, sup_b, inf_b), mean_a


def _caller_scale(lam1, i, j):
    """(constant, lambda_1) at the caller's scale from lambda_1 at unit scale.

    SolverError when the constant is not a normal float there."""
    shift = 2 * (j - i)
    constant = 1.0 / lam1
    if not (sys.float_info.min_exp <= math.frexp(constant)[1] - shift
            <= sys.float_info.max_exp):
        exponent = math.log10(constant) - shift * math.log10(2.0)
        raise SolverError(f"the constant, 10^{exponent:.1f}, is outside "
                          "the float range")
    return math.ldexp(constant, -shift), math.ldexp(lam1, shift)


def fem_constant(a, b, n=2048):
    """Estimate C(a, b) = 1/lambda_1 by finite elements on an n-node mesh.

    Shift-invert Lanczos (ARPACK) with the shift placed from a trial
    Rayleigh quotient; K - sigma M is factored once.  M and the solve
    with K - sigma M reach ARPACK as bare `matvec` callbacks on scipy's
    own LinearOperator, and its start vector and the generator of its
    restart vectors are fixed, so repeated calls return the same bits.
    Every product with K or M is scipy's csc_matvec kernel, called
    directly (`_csc_product`).
    The returned pair (lambda_1, eigenfunction) must satisfy
    ||K u - lambda_1 M u||_2 <= EIG_RESIDUAL_TOL * ||K||_1 ||u||_2,
    else SolverError.  The check catches a failed or unconverged
    eigensolve, not the digits lambda_1 loses to cancellation in K: on
    the reciprocal pair with a 3e-12 piece the residual is ~5e-18 while
    lambda_1 is off by 1.8e-5 at n = 4096 (the gradient-form quotient
    of ROADMAP.md is the remedy).

    The solve runs at unit scale: C(4^i a, 4^j b) = 4^(i - j) C(a, b),
    and K and M are assembled from a / 4^i and b / 4^j, each ess sup in
    [1, 4), so a power of 4 on a or b scales the constant exactly and
    only a weight's contrast can overflow.  Weights past SCALE_LIMIT and
    an a whose integral over a period overflows raise SolverError before
    the eigensolve and the scipy import; so does a constant outside the
    normal floats, after it.
    """
    i, j, (_, _, sup_b, inf_b), mean_a = _unit_scale(a, b)
    mesh = build_mesh(a, b, n)
    import scipy.sparse.linalg as spla
    stiff, mass = assemble(a, b, mesh, i, j)
    stiff_product, mass_product = _csc_product(stiff), _csc_product(mass)
    m = mesh.n
    e = np.ones(m)
    ones_mass = mass_product(e)
    ones_mass_norm = float(e @ ones_mass)

    # scale estimate from a deflated cosine test vector, used to place
    # the shift
    v = np.cos(mesh.nodes)
    v = v - (ones_mass @ v) / ones_mass_norm
    lam_est = float(v @ stiff_product(v)) / float(v @ mass_product(v))
    if lam_est <= 0:
        raise SolverError("trial Rayleigh quotient is nonpositive")

    sigma = -0.5 * lam_est
    try:
        # K - sigma M on K's pattern, which M shares; an entry that cancels
        # to 0.0 stays a structural zero (on a copy: K keeps its data)
        shifted = stiff.copy()
        shifted.data -= sigma * mass.data
        lu = spla.splu(shifted)
        # eigsh calls the matvec of M and of OPinv on every Lanczos step;
        # the bare functions there skip LinearOperator's shape checks and
        # wrapper layers
        mass_op = spla.LinearOperator((m, m), matvec=mass_product,
                                      dtype=np.float64)
        inv_op = spla.LinearOperator((m, m), matvec=lu.solve,
                                     dtype=np.float64)
        mass_op.matvec, inv_op.matvec = mass_product, lu.solve
        # a fixed start vector and restart generator keep repeated solves
        # bit-reproducible; in this mode eigsh reads only the shape and
        # dtype of its first argument
        vals, vecs = spla.eigsh(stiff, k=6, M=mass_op, sigma=sigma,
                                which="LM", v0=v / np.linalg.norm(v),
                                OPinv=inv_op, rng=0)
    except Exception as exc:  # ARPACK / factorization failure
        raise SolverError(f"generalized eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    # keep: the deflation's dot products round on the reindexed vecs' layout
    vals, vecs = vals[order], vecs[:, order]

    # the constant mode has the largest a-weighted mean; lambda_1 is the
    # lowest of the others (the first eigenvalue unless that one is it)
    means = np.abs(ones_mass @ vecs) / (ones_mass @ np.abs(vecs))
    i1 = int(np.argmax(means) == 0)
    lam1 = float(vals[i1])
    if lam1 <= 0:
        raise SolverError(f"lambda_1 = {lam1:.3g} at unit scale is "
                          "nonpositive: cancellation in the stiffness matrix "
                          "lost it (b's contrast ess sup b / ess inf b = "
                          f"{sup_b / inf_b:.3g})")

    u = vecs[:, i1] - (ones_mass @ vecs[:, i1]) / ones_mass_norm
    target = TWO_PI * math.ldexp(mean_a, -2 * i)
    u = u * math.sqrt(target / float(u @ mass_product(u)))
    abs_u = np.abs(u)
    first = int(np.argmax(abs_u >= (1.0 - 1e-8) * abs_u.max()))
    if u[first] < 0:
        u = -u
    # ||K||_1, the largest column sum (spla.norm takes ~10x as long)
    stiff_norm = np.add.reduceat(np.abs(stiff.data), stiff.indptr[:-1]).max()
    eig_residual = np.linalg.norm(
        stiff_product(u) - lam1 * mass_product(u)) / (
            stiff_norm * np.linalg.norm(u))
    if not eig_residual <= EIG_RESIDUAL_TOL:
        raise SolverError(f"eigenpair residual {eig_residual:.3g} exceeds "
                          f"{EIG_RESIDUAL_TOL:g}")
    residual = abs(ones_mass @ u) / float(ones_mass @ np.abs(u))
    constant, lambda1 = _caller_scale(lam1, i, j)
    return SpectralResult(constant=constant, lambda1=lambda1,
                          eigenfunction=u, nodes=mesh.nodes, n=m,
                          residual=residual)


#: largest |quotient * lambda_1 - 1| best_constant accepts for the
#: Rayleigh quotient of its exact eigenfunction
QUOTIENT_TOL = 1e-10


def _piecewise_pair(a, b):
    return a.kind == b.kind == "piecewise_constant"


def exact_constant(a, b):
    """C(a, b) of piecewise-constant a and b, from transfer matrices.

    -(b w')' = lambda a w is a Hill equation, and its monodromy T(lambda)
    is the product of one 2x2 matrix per piece (`hill.Hill`), so no mesh
    is needed: lambda_1 is a root of tr T = 2, bracketed as
    `hill.Hill.lambda1` describes and certified by
    `hill.certified_lambda1`.  Runs at unit scale, as `fem_constant`
    does, with the same refusals.  ValueError for a sampled weight.
    """
    if not _piecewise_pair(a, b):
        raise ValueError("exact_constant needs piecewise-constant weights")
    i, j, bounds, _ = _unit_scale(a, b)
    from .hill import certified_lambda1
    _, lam1 = certified_lambda1(a, b, i, j, bounds)
    return _caller_scale(lam1, i, j)[0]


def best_constant(a, b, n=2048):
    """C(a, b) = 1/lambda_1, with its eigenfunction on an n-node mesh.

    A piecewise-constant pair is solved exactly (`exact_constant`); a
    pair with a sampled weight by finite elements (`fem_constant`).  On
    the exact path the eigenfunction is sampled on `build_mesh(a, b, n)`'s
    nodes, normalized to int a w^2 = int a and signed as `fem_constant`
    signs it; `residual` is its constraint residual from
    `rayleigh_quotient`, and the quotient must be 1/lambda_1 within
    QUOTIENT_TOL, else SolverError.
    """
    if not _piecewise_pair(a, b):
        return fem_constant(a, b, n)
    i, j, bounds, mean_a = _unit_scale(a, b)
    mesh = build_mesh(a, b, n)
    from .hill import certified_lambda1
    hill, lam1 = certified_lambda1(a, b, i, j, bounds)
    constant, lambda1 = _caller_scale(lam1, i, j)
    values, norm = hill.eigenfunction(lam1)
    scale = math.sqrt(TWO_PI * math.ldexp(mean_a, -2 * i) / norm)
    u = scale * values(mesh.nodes)[0]
    abs_u = np.abs(u)
    first = int(np.argmax(abs_u >= (1.0 - 1e-8) * abs_u.max()))
    if u[first] < 0:
        u = -u
    # rayleigh_quotient's sums, at unit scale, with a and b evaluated
    # independently of the pieces
    pts, gw = panel_quadrature([a.breakpoints, b.breakpoints])
    w, wprime = values(pts)
    num, mom, absmom, den = weighted_moments(
        gw, np.ldexp(a.eval(pts), -2 * i), np.ldexp(b.eval(pts), -2 * j),
        scale * w, scale * wprime)
    error = abs(num / den * lam1 - 1.0)
    if not error <= QUOTIENT_TOL:
        raise SolverError(f"the eigenfunction's Rayleigh quotient times "
                          f"lambda_1 is off 1 by {error:.3g}, above "
                          f"{QUOTIENT_TOL:g}")
    return SpectralResult(constant=constant, lambda1=lambda1,
                          eigenfunction=u, nodes=mesh.nodes, n=mesh.n,
                          residual=abs(mom) / absmom)


def rayleigh_quotient(a, b, w, wprime):
    """Quotient int a w^2 / int b w'^2 plus the constraint residual.

    `w` and its analytic derivative `wprime` are vectorized callables,
    integrated by `panel_quadrature` cut at the breakpoints of a and b.
    ValueError where int b w'^2 <= 1e-14 int b w^2, a w whose derivative
    is (numerically) zero whatever the scales of a and b.
    """
    pts, gw = panel_quadrature([a.breakpoints, b.breakpoints])
    bv, wv = b.eval(pts), np.asarray(w(pts), dtype=float)
    num, mom, absmom, den = weighted_moments(gw, a.eval(pts), bv, wv,
                                             wprime(pts))
    if den <= 1e-14 * float(np.sum(gw * bv * wv**2)):
        raise ValueError("input has (numerically) zero derivative")
    return num / den, abs(mom) / absmom


def converge(a, b, n_list):
    """Refinement study: per-level constants, observed order, extrapolation.

    Richardson-extrapolates the last three levels, which must share one
    refinement ratio (n0 n2 = n1^2, as in a dyadic list).
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise ValueError("need at least 3 strictly increasing mesh sizes")
    n0, n1, n2 = n_list[-3:]
    if n0 * n2 != n1 * n1:
        raise ValueError(f"the last three mesh sizes {n0}, {n1}, {n2} do not "
                         "share one refinement ratio (n0 n2 != n1^2)")
    results = [fem_constant(a, b, n) for n in n_list]
    consts = np.array([r.constant for r in results])

    c0, c1, c2 = consts[-3:]
    r = n_list[-1] / n_list[-2]
    d1, d2 = c1 - c0, c2 - c1
    if d2 == 0.0 or d1 / d2 <= 0.0:
        order = None
        extrapolated = c2
    else:
        order = math.log(d1 / d2) / math.log(r)
        extrapolated = c2 + d2 / (r**order - 1.0)

    last = results[-1]
    return SpectralResult(constant=float(extrapolated),
                          lambda1=1.0 / float(extrapolated),
                          eigenfunction=last.eigenfunction,
                          nodes=last.nodes, n=last.n,
                          residual=last.residual,
                          estimated_order=order,
                          history=tuple((n, float(c))
                                        for n, c in zip(n_list, consts)))
