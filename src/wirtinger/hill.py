"""Transfer matrices of the Hill equation -(b w')' = lambda a w.

For piecewise-constant a and b the solution crosses each piece by a 2x2
matrix, and lambda_1 of the periodic problem is a root of tr T = 2 of
their product T, the monodromy: no mesh is needed.  T(lambda) is the
root of a product tree whose levels are kept, so the states at every
piece's start come from the same tree by a down-sweep, O(log pieces)
numpy steps: one tree per lambda serves T, the Dirichlet count and the
eigenfunction.  `spectral` loads this module on the first exact solve,
so that importing `wirtinger` does not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import SolverError
from .weights import TWO_PI, sorted_unique

#: ratio between consecutive trial values of lambda in the march for
#: lambda_1; no power of it is 2, so the march, which starts at half of a
#: bound attained by reciprocal pairs, does not land on their lambda_1
MARCH_RATIO = 1.2

#: certified_lambda1 checks lambda_1 at lambda_1 (1 - CERTIFY_OFFSET)
CERTIFY_OFFSET = 1e-9


class Hill:
    """The pieces of a piecewise-constant pair at unit scale.

    On a piece of length l where a / 4^i = alpha and b / 4^j = beta, the
    solution of -(b w')' = lambda a w has k = sqrt(lambda alpha / beta),
    and (w, b w') crosses the piece by the matrix
    [[cos kl, sin kl / (beta k)], [-lambda alpha sin kl / k, cos kl]];
    the monodromy T(lambda) is their product from 0 to 2pi, the root of
    `tree`, and `sweep` carries a start vector down that tree to the
    start of every piece.
    """

    def __init__(self, a, b, i, j):
        self.starts = sorted_unique(np.concatenate((a.breakpoints,
                                                    b.breakpoints)))
        self.lengths = np.diff(np.append(self.starts, TWO_PI))
        self.alpha = np.ldexp(a.eval(self.starts), -2 * i)
        self.beta = np.ldexp(b.eval(self.starts), -2 * j)
        # k / sqrt(lambda) and beta k / sqrt(lambda), piece by piece
        self.rate = np.sqrt(self.alpha / self.beta)
        self.impedance = np.sqrt(self.alpha) * np.sqrt(self.beta)
        # the geometric mean of the extreme impedances
        self.balance = (math.sqrt(self.impedance.min())
                        * math.sqrt(self.impedance.max()))

    def entries(self, lam):
        """kl, and the entries cos kl, sin kl / (beta k) and
        -lambda alpha sin kl / k of each piece's matrix at lam."""
        k = math.sqrt(lam) * self.rate
        phase = k * self.lengths
        c, s = np.cos(phase), np.sin(phase)
        return phase, c, s / (k * self.beta), -lam * self.alpha * s / k

    def matrices(self, lam, derivative=False):
        """The pieces' matrices at lam, as an array (pieces, 2, 2).

        With `derivative`, (pieces, 4, 4) blocks [[T, 0], [lam T', T]],
        T' the derivative in lambda, whose products carry the product's
        lam T' in the same place.
        """
        phase, c, upper, lower = self.entries(lam)
        out = np.empty((phase.size, 4, 4) if derivative else
                       (phase.size, 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = c
        out[:, 0, 1], out[:, 1, 0] = upper, lower
        if derivative:
            out[:, :2, 2:] = 0.0
            out[:, 2:, 2:] = out[:, :2, :2]
            s = np.sin(phase)
            sinc = s / phase
            out[:, 2, 0] = out[:, 3, 1] = -0.5 * s * phase
            out[:, 2, 1] = 0.5 * self.lengths / self.beta * (c - sinc)
            out[:, 3, 0] = -0.5 * lam * self.alpha * self.lengths * (sinc + c)
        return out

    def tree(self, lam, derivative=False):
        """The levels of the product tree of the pieces' `matrices` at lam,
        leaves first, root last.

        Each level multiplies neighbouring pairs of the one below; where
        that one has an odd count, its last node is multiplied into the
        last pair, so a level's last node can span three of its children.
        """
        m = self.matrices(lam, derivative)
        levels = [m]
        while m.shape[0] > 1:
            odd = m[-1] if m.shape[0] % 2 else None
            m = m[1::2] @ m[0:m.shape[0] - 1:2]
            if odd is not None:
                m[-1] = odd @ m[-1]
            levels.append(m)
        return levels

    def balanced(self, lam, root):
        """A tree's root on the state (w, b w' / g), g = sqrt(lam)
        `balance`.

        The change of state is a similarity: it keeps det(T - I) and the
        sign of T_12, and it keeps the entries of T, and the squares
        `_gap_edge` takes of them, within the floats as the impedances
        beta k run from 1e-154 to 1e154.
        """
        g = math.sqrt(lam) * self.balance
        blocks = root.shape[0] // 2
        return root * np.tile([[1.0, g], [1.0 / g, 1.0]], (blocks, blocks))

    def monodromy(self, lam, derivative=False):
        """T(lam), or [[T, 0], [lam T', T]] with `derivative`, `balanced`,
        from its `tree`."""
        return self.balanced(lam, self.tree(lam, derivative)[-1][0])

    @staticmethod
    def sweep(levels, v):
        """(w, b w') at unit scale at every piece's start and at 2pi, from
        v at 0, down a 2x2 `tree`.

        A node's first child starts where it does, its second where the
        first ends, and an odd tail where the second ends: one batch of
        matrix-vector products per level, from the root to the leaves.
        """
        w, f = np.array([v[0]]), np.array([v[1]])
        for m in levels[-2::-1]:
            n = m.shape[0]
            first = m[0:n - 1:2]
            ws, fs = np.empty(n), np.empty(n)
            ws[0:n - 1:2], fs[0:n - 1:2] = w, f
            ws[1::2] = first[:, 0, 0] * w + first[:, 0, 1] * f
            fs[1::2] = first[:, 1, 0] * w + first[:, 1, 1] * f
            if n % 2:
                t = m[-2]
                ws[-1] = t[0, 0] * ws[-2] + t[0, 1] * fs[-2]
                fs[-1] = t[1, 0] * ws[-2] + t[1, 1] * fs[-2]
            w, f = ws, fs
        t = levels[0][-1]
        return (np.append(w, t[0, 0] * w[-1] + t[0, 1] * f[-1]),
                np.append(f, t[1, 0] * w[-1] + t[1, 1] * f[-1]))

    def dirichlet_zeros(self, lam, levels):
        """Zeros in (0, 2pi) of the solution with w(0) = 0, b w'(0) = 1,
        from the `tree` at lam.

        A Sturm count, exact along the pieces: on each piece w = R sin(phi
        + k x) with a Pruefer angle phi, taken mod pi at both ends from the
        states there, so a zero on a piece's end is counted once.
        """
        w, f = self.sweep(levels, (0.0, 1.0))
        # b w' / (beta k) = R cos: scale w by beta k
        g = math.sqrt(lam) * self.impedance
        start = np.mod(np.arctan2(g * w[:-1], f[:-1]), math.pi)
        end = np.mod(np.arctan2(g * w[1:], f[1:]), math.pi)
        turns = np.rint((start + math.sqrt(lam) * self.rate * self.lengths
                         - end) / math.pi)
        return int(turns.sum()) - int(w[-1] == 0.0)

    def lower_bound(self):
        """Half of the larger of two lower bounds on lambda_1, unit scale.

        C(a, b) <= (ess sup a / ess inf b) C(1, 1), C(1, 1) = 1, and the
        paper's bound (mean sqrt(a / b))^2 / ((4 / pi) arctan((inf ab /
        sup ab)^(1/4)))^2 on C(a, b) is attained by reciprocal pairs,
        whence the half."""
        mean_root = float(self.rate @ self.lengths) / TWO_PI
        ratio = math.sqrt(self.impedance.min() / self.impedance.max())
        return 0.5 * max(self.beta.min() / self.alpha.max(), (
            (4.0 / math.pi) * math.atan(ratio) / mean_root) ** 2)

    def lambda1(self, lam_lo, lam_hi):
        """lambda_1 at unit scale, marching up from lam_lo < lambda_1.

        The march stops where tr T >= 2, in the first gap [lambda_1,
        lambda_2], or where T_12, the Dirichlet entry, turns from negative
        to positive: there lies nu_2, the Dirichlet eigenvalue inside that
        gap.  lambda_1 is then the lower root of det(T - I) below either
        point, found by `_gap_edge`; a closed gap gives nu_2 itself.
        SolverError past lam_hi, which must exceed lambda_2.
        """
        lam, t = lam_lo, self.monodromy(lam_lo)
        while lam <= lam_hi:
            up = lam * MARCH_RATIO
            t_up = self.monodromy(up)
            if not np.all(np.isfinite(t_up)):
                break
            if _det_minus_identity(t_up) <= 0.0:
                return _refine(self._gap_edge, lam, up, up)
            if t[0, 1] < 0.0 <= t_up[0, 1]:
                # Newton from the secant's root
                start = lam - t[0, 1] * (up - lam) / (t_up[0, 1] - t[0, 1])
                nu2 = _refine(self._dirichlet, lam, up, start)
                return _refine(self._gap_edge, lam, nu2, nu2)
            lam, t = up, t_up
        raise SolverError("the transfer matrix gives no bracket for lambda_1")

    def _dirichlet(self, lam):
        """Newton step to the root of T_12, and whether lam is below it."""
        t = self.monodromy(lam, derivative=True)
        return t[0, 1] < 0.0, -lam * t[0, 1] / t[2, 1]

    def _gap_edge(self, lam):
        """Step to the lower root of det(T - I), and whether lam is below.

        T - I is linearized in lambda, D + mu lam T', and the step is
        lam mu for the smaller root mu of det(D + mu lam T') = 0: Newton's
        method for the pair of periodic eigenvalues around lam, which
        stays accurate where the two merge, as they do in a closed gap.
        """
        t = self.monodromy(lam, derivative=True)
        d, dd = t[:2, :2] - np.eye(2), t[2:, :2]
        quad = dd[0, 0] * dd[1, 1] - dd[0, 1] * dd[1, 0]
        lin = (d[0, 0] * dd[1, 1] + dd[0, 0] * d[1, 1]
               - d[0, 1] * dd[1, 0] - dd[0, 1] * d[1, 0])
        const = _det_minus_identity(t[:2, :2])
        return const > 0.0, lam * _smaller_root(quad, lin, const)

    def eigenfunction(self, lam):
        """w and w' of the periodic solution at lam, as one callable
        theta -> (w, w') on an array of angles in [0, 2pi), and the
        integral of a w^2 / 4^i over a period.

        One `tree` at lam gives both: its root T, whose T - I has the
        start vector in its kernel, and the states at the piece starts,
        swept down from that vector.
        """
        levels = self.tree(lam)
        t = self.balanced(lam, levels[-1][0]) - np.eye(2)
        row = t[0] if np.abs(t[0]).sum() >= np.abs(t[1]).sum() else t[1]
        v = (row[1], -row[0]) if np.any(row) else (1.0, 0.0)
        # back from the balanced state (w, b w' / g)
        w, f = self.sweep(levels,
                          (v[0], v[1] * math.sqrt(lam) * self.balance))
        w, slope = w[:-1], f[:-1] / self.beta     # w and w' at the starts
        k = math.sqrt(lam) * self.rate
        phase = k * self.lengths
        sinc = np.sin(phase) / phase
        # the integral of w^2 over each piece, without cancellation:
        # w = A cos kx + (B / k) sin kx with A = w, B = w' at its start
        ell = self.lengths
        norm = float(self.alpha @ (
            w * w * 0.5 * ell * (1.0 + np.sin(2 * phase) / (2 * phase))
            + w * slope * ell ** 2 * sinc * sinc
            + slope * slope * 2.0 * ell ** 3 * _x_minus_sin_x(2 * phase)))

        def values(theta):
            p = np.searchsorted(self.starts, theta, side="right") - 1
            kp, wp, sp = k[p], w[p], slope[p]
            x = kp * (theta - self.starts[p])
            c, s = np.cos(x), np.sin(x)
            return wp * c + sp * s / kp, sp * c - wp * kp * s

        return values, norm


def _x_minus_sin_x(x):
    """(x - sin x) / x^3, elementwise, by its series below x = 0.5."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = (1 / 6 - x2 * (1 / 120 - x2 * (1 / 5040 - x2 * (
        1 / 362880 - x2 * (1 / 39916800 - x2 / 6227020800)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (x - np.sin(x)) / (x2 * x)
    return np.where(x < 0.5, series, direct)


def _det_minus_identity(t):
    """det(T - I) = 2 - tr T of a 2x2 T with det T = 1.

    From the entries of T - I while T's diagonal is at most 2, where
    T_12 T_21 = T_11 T_22 - 1 is at most 5 and the trace would cancel:
    near a closed gap T - I is, to first order, a multiple of lambda -
    lambda_1, and so is this determinant's error, and at small lambda T
    is a shear [[1, x], [y, 1]] with 2 - tr T = -xy."""
    if max(abs(t[0, 0]), abs(t[1, 1])) <= 2.0:
        return (t[0, 0] - 1.0) * (t[1, 1] - 1.0) - t[0, 1] * t[1, 0]
    return 2.0 - (t[0, 0] + t[1, 1])


def _smaller_root(quad, lin, const):
    """The smaller real root of quad x^2 + lin x + const (a real part where
    the roots are complex)."""
    if quad == 0.0:
        return 0.0 if lin == 0.0 else -const / lin
    q = -0.5 * (lin + math.copysign(
        math.sqrt(max(lin * lin - 4.0 * quad * const, 0.0)), lin))
    if q == 0.0:
        return -0.5 * lin / quad
    return min(q / quad, const / q)


def _refine(step, lo, hi, lam):
    """A root in [lo, hi] by the steps of step(lam) -> (below, delta).

    `below` says whether the root lies above lam.  A step that leaves the
    bracket is replaced by bisection.  Stops at a step within 4 ulps, or
    within 1e-10 relative once the steps stop halving, roundoff's floor.
    """
    previous = math.inf
    for _ in range(200):
        below, delta = step(lam)
        if not math.isfinite(delta):
            break
        if below:
            lo = lam
        else:
            hi = lam
        size = abs(delta)
        if size <= 4 * math.ulp(lam) or (size <= 1e-10 * lam
                                         and size > 0.5 * previous):
            return min(max(lam + delta, lo), hi)
        previous = size
        lam += delta
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
    raise SolverError("the transfer-matrix root search did not converge")


def certified_lambda1(a, b, i, j, bounds):
    """The Hill of (a, b) and its certified lambda_1 at unit scale.

    The march starts at `Hill.lower_bound`, and gives up past 4 ess sup
    b / ess inf a, above lambda_2 because C(a, b) >= (ess inf a / ess
    sup b) C(1, 1) and lambda_2 of (1, 1) is 1.  At lambda_1 (1 -
    CERTIFY_OFFSET), tr T must be below 2 and the Dirichlet solution must
    have exactly one zero in (0, 2pi): else lambda_1 would be a later
    periodic eigenvalue, and SolverError.
    """
    _, inf_a, sup_b, _ = bounds
    hill = Hill(a, b, i, j)
    lam1 = hill.lambda1(hill.lower_bound(), 4.0 * sup_b / inf_a)
    below = lam1 * (1.0 - CERTIFY_OFFSET)
    levels = hill.tree(below)
    if not (_det_minus_identity(hill.balanced(below, levels[-1][0])) > 0.0
            and hill.dirichlet_zeros(below, levels) == 1):
        raise SolverError(f"lambda = {lam1:.17g} at unit scale is not "
                          "certified as lambda_1 by the transfer matrix")
    return hill, lam1
