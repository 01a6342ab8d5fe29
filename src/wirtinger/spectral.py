"""Best constant via the periodic Sturm-Liouville eigenproblem.

Discretizes -(b w')' = lambda a w with piecewise-linear elements on a
periodic mesh aligned with the weight breakpoints; the best constant is
1/lambda_1 on the a-orthogonal complement of constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .weights import TWO_PI, PeriodicWeight, split_panels


class SolverError(RuntimeError):
    """Eigenvalue extraction failed or produced a nonpositive lambda_1."""


@dataclass(frozen=True)
class Mesh:
    """Periodic mesh on [0, 2pi): nodes plus a wraparound element."""

    nodes: np.ndarray

    @property
    def n(self):
        return self.nodes.size

    @property
    def lengths(self):
        wrapped = np.concatenate((self.nodes, [self.nodes[0] + TWO_PI]))
        return np.diff(wrapped)


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
    """Uniform n-node periodic mesh augmented with all weight breakpoints."""
    if n < 8:
        raise ValueError("mesh requires n >= 8")
    base = np.linspace(0.0, TWO_PI, n, endpoint=False)
    tol = 1e-9 * (TWO_PI / n)
    bps = [w.breakpoints for w in (a, b)
           if w.kind == "piecewise_constant"]
    if not bps:
        return Mesh(nodes=base)
    bp = np.unique(np.concatenate(bps))
    # keep breakpoints verbatim, drop uniform nodes that (circularly)
    # collide; only a node's circular neighbours among the sorted
    # breakpoints can (bp[0] == 0, and bp[-1] wraps around)
    right = np.searchsorted(bp, base)
    keep = np.ones(n, dtype=bool)
    for nearest in (bp[right - 1], bp[right % bp.size]):
        diff = np.abs(base - nearest)
        keep &= np.minimum(diff, TWO_PI - diff) > tol
    return Mesh(nodes=np.unique(np.concatenate((base[keep], bp))))


# 4-point Gauss-Legendre on [0, 1]; exact for per-element-constant weights
_GP, _GW = np.polynomial.legendre.leggauss(4)
_GP = 0.5 * (_GP + 1.0)
_GW = 0.5 * _GW


def assemble(a, b, mesh):
    """Stiffness (from b) and mass (from a) matrices on the periodic mesh.

    Per-element 4-point Gauss quadrature; exact whenever the weights are
    constant on each element, which mesh construction guarantees for
    piecewise-constant weights.
    """
    x = mesh.nodes
    h = mesh.lengths
    m = mesh.n
    pts = x[:, None] + h[:, None] * _GP[None, :]          # (m, 4)
    av = np.asarray(a.eval(pts.ravel())).reshape(m, 4)
    bv = np.asarray(b.eval(pts.ravel())).reshape(m, 4)

    phi0 = 1.0 - _GP
    phi1 = _GP
    # local mass entries: h * sum_k gw_k a_k phi_i(x_k) phi_j(x_k)
    m00 = h * (av @ (_GW * phi0 * phi0))
    m01 = h * (av @ (_GW * phi0 * phi1))
    m11 = h * (av @ (_GW * phi1 * phi1))
    # local stiffness: (1/h) * sum_k gw_k b_k on the [[1,-1],[-1,1]] stencil
    kdiag = (bv @ _GW) / h

    left = np.arange(m)
    right = (left + 1) % m
    rows = np.concatenate((left, left, right, right))
    cols = np.concatenate((left, right, left, right))
    mass = sp.coo_matrix((np.concatenate((m00, m01, m01, m11)), (rows, cols)),
                         shape=(m, m)).tocsc()
    stiff = sp.coo_matrix((np.concatenate((kdiag, -kdiag, -kdiag, kdiag)),
                           (rows, cols)), shape=(m, m)).tocsc()
    return stiff, mass


def _deflate(v, ones_mass, ones_mass_norm):
    return v - np.ones(v.size) * (ones_mass @ v) / ones_mass_norm


def best_constant(a, b, n=2048):
    """Estimate C(a, b) = 1/lambda_1 on an n-node mesh."""
    mesh = build_mesh(a, b, n)
    stiff, mass = assemble(a, b, mesh)
    m = mesh.n
    e = np.ones(m)
    ones_mass = mass @ e
    ones_mass_norm = float(e @ ones_mass)

    # scale estimate from a deflated cosine test vector, used both to
    # place the shift and to tell lambda_1 apart from the constant mode
    v = np.cos(mesh.nodes)
    v = _deflate(v, ones_mass, ones_mass_norm)
    lam_est = float(v @ (stiff @ v)) / float(v @ (mass @ v))
    if lam_est <= 0:
        raise SolverError("trial Rayleigh quotient is nonpositive")

    k = min(6, m - 2)
    try:
        # fixed start vector keeps repeated solves bit-reproducible
        vals, vecs = spla.eigsh(stiff, k=k, M=mass, sigma=-0.5 * lam_est,
                                which="LM", v0=v / np.linalg.norm(v))
    except Exception as exc:  # ARPACK / factorization failure
        raise SolverError(f"generalized eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    positive = vals > 1e-6 * lam_est
    if not np.any(positive):
        raise SolverError("no positive eigenvalue found (assembly bug?)")
    i1 = int(np.argmax(positive))
    lam1 = float(vals[i1])

    u = _deflate(vecs[:, i1], ones_mass, ones_mass_norm)
    target = TWO_PI * a.mean()
    u = u * math.sqrt(target / float(u @ (mass @ u)))
    peak = np.max(np.abs(u))
    first = int(np.argmax(np.abs(u) >= (1.0 - 1e-8) * peak))
    if u[first] < 0:
        u = -u
    residual = abs(ones_mass @ u) / float(ones_mass @ np.abs(u))
    return SpectralResult(constant=1.0 / lam1, lambda1=lam1,
                          eigenfunction=u, nodes=mesh.nodes, n=m,
                          residual=residual)


def rayleigh_quotient(a, b, w, wprime=None, panels=2048):
    """Quotient int a w^2 / int b w'^2 plus the constraint residual.

    `w` is a callable, which needs its analytic derivative `wprime`, or
    an array of node samples on a uniform periodic grid.
    """
    if not callable(w):
        u = np.asarray(w, dtype=float)
        mesh = Mesh(nodes=np.linspace(0.0, TWO_PI, u.size, endpoint=False))
        stiff, mass = assemble(a, b, mesh)
        den = float(u @ (stiff @ u))
        if den <= 1e-14 * float(u @ (mass @ u)):
            raise ValueError("input is constant: zero derivative")
        e = np.ones(u.size)
        residual = abs(e @ (mass @ u)) / float(e @ (mass @ np.abs(u)))
        return float(u @ (mass @ u)) / den, residual

    if wprime is None:
        raise ValueError("a callable w needs its derivative wprime")
    bps = [wt.breakpoints for wt in (a, b) if wt.kind == "piecewise_constant"]
    lefts, _, widths = split_panels(bps, panels)
    pts = (lefts[:, None] + widths[:, None] * _GP[None, :]).ravel()
    gw = (widths[:, None] * _GW[None, :]).ravel()
    av = np.asarray(a.eval(pts))
    bv = np.asarray(b.eval(pts))
    wv = np.asarray(w(pts), dtype=float)
    wpv = np.asarray(wprime(pts), dtype=float)
    num = float(np.sum(gw * av * wv**2))
    den = float(np.sum(gw * bv * wpv**2))
    mom = float(np.sum(gw * av * wv))
    absmom = float(np.sum(gw * av * np.abs(wv)))
    if den <= 1e-14 * num:
        raise ValueError("input has (numerically) zero derivative")
    return num / den, abs(mom) / absmom


def converge(a, b, n_list):
    """Refinement study: per-level constants, observed order, extrapolation.

    Assumes the levels share a common refinement ratio (dyadic in the
    intended use); the returned constant is Richardson-extrapolated from
    the last triple.
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise ValueError("need at least 3 strictly increasing mesh sizes")
    results = [best_constant(a, b, n) for n in n_list]
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
