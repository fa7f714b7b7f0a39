"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the code paths under test: dense
pseudoinverses instead of QR solves, bisection instead of the Newton
secular iteration, grid search on the feasible circle instead of any
multiplier machinery, 60-digit ``mpmath`` arithmetic where float
rounding is the question.  ``DenseQrProjector`` factors the whole of C,
where the projector under test splits off its coordinate columns.
``finite_step_check`` is the exception: it runs
the Lanczos solve itself and checks its exact termination against the
dense direct solver.  ``write_labels`` writes the label files that
``crqopt.io.read_labels`` reads, which only the tests need.
"""

import mpmath
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from crqopt import (CrqError, NotConvergedError, RankDeficientError, SolveOptions, classify,
                    direct_solve, solve)
from crqopt.secular import EASY_TAG


class DegenerateEigenvectorError(CrqError):
    """Reduced QEP eigenvector has (numerically) zero leading component."""


def pinv_min_norm(C, b):
    """Minimum-norm solution of C'v = b by explicit pseudoinverse."""
    return np.linalg.pinv(C.T) @ np.asarray(b, dtype=float)


class DenseQrProjector:
    """P and n0 from one column-pivoted QR of the whole of ``C.toarray()``:
    the arithmetic ``ProjectedOperator`` runs on a C with no coordinate
    column, with its rank test."""

    def __init__(self, C):
        C = C.toarray() if sp.issparse(C) else np.asarray(C, dtype=float)
        n, m = C.shape
        self.Q, self.R, self.piv = sla.qr(C, mode="economic", pivoting=True)
        diag = np.abs(np.diag(self.R))
        if np.any(diag <= max(n, m) * np.finfo(float).eps * diag.max()):
            raise RankDeficientError(f"C has numerical rank < m = {m}")

    def apply_P(self, c):
        return c - self.Q @ (self.Q.T @ c)

    def min_norm(self, b):
        return self.Q @ sla.solve_triangular(self.R, b[self.piv], trans="T", lower=False)


def dense_projector(C):
    """I - C (C'C)^{-1} C' formed explicitly."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[0] == 1:
        C = C.T
    n = C.shape[0]
    return np.eye(n) - C @ np.linalg.solve(C.T @ C, C.T)


def secular_derivative(spec, lam):
    """chi'(lam) of a ``SecularSpec``, summed directly."""
    return float(-2.0 * np.sum(spec.xi**2 / (lam - spec.theta) ** 3))


def bisection_secular_root(theta, xi, gamma, iters=200):
    """Smallest secular root by pure bisection on (theta_1 - d0, theta_1)."""
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    t1 = theta.min()
    d0 = np.sqrt(np.sum(xi**2)) / gamma
    lo, hi = t1 - d0, t1

    def chi(lam):
        return np.sum(xi**2 / (lam - theta) ** 2) - gamma**2

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if chi(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def mpmath_secular_root(alpha, beta, beta1, gamma, dps=60):
    """Reduced multiplier mu and minimizer x of the tridiagonal T_k with
    diagonal ``alpha`` and off-diagonal ``beta``, in ``dps``-digit
    arithmetic: the full eigen-decomposition of T_k (``mpmath.eigsy``)
    and bisection on the secular equation sum xi_i^2 / (theta_i - mu)^2 =
    gamma^2 in t = theta_1 - mu over (0, beta1/gamma].  Every weight counts,
    so the root lies strictly left of theta_1.  Returns float ``(mu, x)``.
    """
    with mpmath.workdps(dps):
        k = len(alpha)
        T = mpmath.matrix(k, k)
        for i in range(k):
            T[i, i] = mpmath.mpf(float(alpha[i]))
        for i in range(k - 1):
            T[i, i + 1] = T[i + 1, i] = mpmath.mpf(float(beta[i]))
        theta, Y = mpmath.eigsy(T)
        order = sorted(range(k), key=lambda i: theta[i])
        theta = [theta[i] for i in order]
        xi = [mpmath.mpf(beta1) * Y[0, i] for i in order]
        gamma = mpmath.mpf(gamma)

        def norm2(t):
            return mpmath.fsum((w / (th - theta[0] + t)) ** 2 for w, th in zip(xi, theta))

        lo, hi = mpmath.mpf(0), mpmath.mpf(beta1) / gamma
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            if norm2(mid) > gamma**2:
                lo = mid
            else:
                hi = mid
        t = (lo + hi) / 2
        mu = theta[0] - t
        y = [-w / (th - mu) for w, th in zip(xi, theta)]
        x = [mpmath.fsum(Y[r, i] * y[j] for j, i in enumerate(order)) for r in range(k)]
        return float(mu), np.array([float(v) for v in x])


def circle_min_objective(A, n0, gamma, S1, grid=20000, refine=60):
    """Minimum of v'Av over the feasible circle n0 + gamma*circle(S1).

    Only valid when null(C') is two-dimensional: the feasible set is a
    circle, parametrized by angle and scanned on a fine grid with a
    golden-section polish around the best sample.
    """
    assert S1.shape[1] == 2

    def value(t):
        v = n0 + gamma * (np.cos(t) * S1[:, 0] + np.sin(t) * S1[:, 1])
        return float(v @ (A @ v))

    ts = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = np.array([value(t) for t in ts])
    j = int(np.argmin(vals))
    lo = ts[j] - 2.0 * np.pi / grid
    hi = ts[j] + 2.0 * np.pi / grid
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = value(x1), value(x2)
    for _ in range(refine):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = value(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = value(x2)
    return min(f1, f2)


def krylov_slice_minimum(A_dense, P, n0, b0, gamma, k):
    """min v'Av over v in n0 + K_k(PAP, b0) with ||v|| = 1, brute force.

    Builds the Krylov basis by explicit powers plus orthonormalization
    and solves the small sphere-constrained quadratic by full
    eigen-decomposition of the reduced matrix and bisection on the
    resulting secular equation.  Independent of the Lanczos recurrence.
    """
    M = P @ A_dense @ P
    cols = [b0]
    for _ in range(k - 1):
        cols.append(M @ cols[-1])
    K = np.column_stack(cols)
    Q, _ = np.linalg.qr(K)
    Hk = Q.T @ M @ Q
    Hk = 0.5 * (Hk + Hk.T)
    gk = Q.T @ b0
    theta, Y = np.linalg.eigh(Hk)
    xi = Y.T @ gk
    # generic case only (weight on every eigendirection): secular root
    lam = bisection_secular_root(theta, xi, gamma, iters=200)
    y = Y @ (-xi / (theta - lam))
    v = n0 + Q @ y
    return float(v @ (A_dense @ v))


def apply_M(problem, X):
    """M X = P A P X for a vector or an n x k block, with the own projector
    ``P`` and operator ``A`` of a problem or of a projected Lanczos run."""
    P = problem.P.apply_P
    return P(problem.A.apply(P(X)))


def reduced_qep_to_rlgopt(sol, beta1, gamma):
    """Map the QEP eigenvector of a ``ReducedQepSolution`` to the reduced
    Lagrange minimizer.

    x = -(gamma^2 / (||b0|| e_1'w)) y, which satisfies
    (T_k - mu I) x = -||b0|| e_1 and ||x|| = gamma; the map is invalid
    when e_1'w vanishes (cannot happen for irreducible T_k).
    """
    e1w = float(sol.w[0])
    wnorm = np.linalg.norm(sol.w)
    if abs(e1w) <= 100.0 * np.finfo(float).eps * wnorm:
        raise DegenerateEigenvectorError("reduced QEP eigenvector has e_1'w ~ 0")
    return -(gamma**2 / (beta1 * e1w)) * sol.y


def exact_qep_residual(state, red, norm_a, gamma, beta1):
    """Exact normalized QEP residual of a qepmin check's
    ``ReducedLgSolution``, with the normalization of ``qep_residual_bound``.

    The full-space residual of (mu, Q_k w) is
    beta_{k+1} (y_k q_{k+1} + w_k (M - mu I) q_{k+1}); it needs one
    application of M = P A P to q_{k+1}.  y = (T_k - mu I) w is x on the
    easy tag and 0 on a boundary tag, where mu is the bottom eigenvalue
    of T_k and w its eigenvector.  It cannot be formed after breakdown,
    since the run never writes q_{k+1} there: it is NaN, which compares
    false with every bound.
    """
    if state.broke_down:
        return np.nan
    k = red.w.size
    mu = red.mu
    y_k = red.x[-1] if red.tag == EASY_TAG else 0.0
    denom = ((norm_a + abs(mu)) ** 2 + (beta1 / gamma) ** 2) * np.linalg.norm(red.w)
    q_next = state.q(k + 1)
    Mq = apply_M(state, q_next)
    r = state.beta[k] * (y_k * q_next + red.w[-1] * (Mq - mu * q_next))
    return float(np.linalg.norm(r) / denom)


def chebyshev_value(t, degree):
    """T_degree(t) for |t| <= 1 by the cosine form."""
    return np.cos(degree * np.arccos(np.clip(t, -1.0, 1.0)))


def graph_matrix(graph):
    """The full symmetric W of a raster graph's half store, as sorted CSR.

    The stored weight ``weights[d, q]`` is the pair (q - s, q) for
    s = ``shifts[d]``; each nonzero enters at that pair and its mirror.
    """
    rows, cols, vals = [], [], []
    for s, w in zip(graph.shifts, graph.weights):
        q = np.flatnonzero(w)
        rows += [q - s, q]
        cols += [q, q - s]
        vals += [w[q], w[q]]
    W = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(graph.n, graph.n)).tocsr()
    W.sort_indices()
    return W


def finite_step_check(problem):
    """Run a solve to breakdown and verify the exact-termination property.

    On instances whose Krylov subspace closes at dimension d < n - m the
    process must break down at step d with the recovered pair satisfying
    the full-space multiplier equations to roundoff (1e-10), and agreeing
    with the dense direct solver.  Returns a report dict (no exception on
    a failed property; callers assert on ``report["passed"]``).
    """
    opts = SolveOptions(tol=0.0, maxit=min(problem.n, 400), detect_hard=False)
    try:
        sol = solve(problem, opts)
    except NotConvergedError as err:
        sol = err.solution
    feas = classify(problem)
    u = sol.v - feas.n0
    scale = (problem.norm_a + abs(sol.mu)) * feas.gamma + np.linalg.norm(feas.b0)
    ref = direct_solve(problem)
    # sign-fix not needed: the easy case has a unique minimizer
    report = {
        "k_breakdown": sol.k,
        "residual": float(sol.residual / scale),
        "norm_gap": float(abs(np.linalg.norm(u) - feas.gamma)),
        "constraint_gap": float(
            np.linalg.norm(problem.C.T @ sol.v - problem.b)
        ),
        "match_v": float(np.linalg.norm(sol.v - ref.v)),
        "match_mu": float(abs(sol.mu - ref.mu)),
    }
    report["passed"] = (
        report["residual"] <= 1e-10
        and report["norm_gap"] <= 1e-10
        and report["constraint_gap"] <= 1e-10 * (1.0 + np.linalg.norm(problem.b))
        and report["match_v"] <= 1e-6
    )
    return report


def write_labels(path, foreground_rc, background_rc):
    """A label file of ``(row, col)`` pixels: '+' lines, then '-' lines."""
    with open(path, "w") as fh:
        for r, c in foreground_rc:
            fh.write(f"{r} {c} +\n")
        for r, c in background_rc:
            fh.write(f"{r} {c} -\n")
