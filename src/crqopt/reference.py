"""Dense and spectral oracles: the reference the solver is tested against.

This module does with explicit factorizations what the Lanczos driver
does matrix-free: split R^n into null(C') and range(C) with a full
orthogonal factorization, reduce A to H = S1' A S1 and b0 to
g0 = S1' b0, and solve the reduced multiplier problem through its full
eigen-decomposition and the spectral case analysis
``solve_plgopt_spectral`` (secular root strictly below the spectrum in
the generic case, boundary multiplier with optional eigenvector padding
in the degenerate ones).  The instance generator builds its reference
points on the same case analysis; no reduced solve of the driver calls
it.

The case analysis finds a secular root with ``smallest_root``'s
safeguarded Newton iteration on 1/||x(t)|| = 1/gamma (the secular form
of Gander, Golub & von Matt, Linear Algebra Appl. 114/115, 1989), on a
diagonal: x(t) = -xi / (d + t) with the pole offsets d = theta - theta_1,
formed once, and only the poles that carry weight.  It starts at the
one-pole bound, left of the root, and keeps the bracket
[that bound, ||xi|| / gamma]; the case analysis forms its minimizer from
t = theta_1 - lambda, so a root close to a large theta_1 stays on the
sphere.  The oracle shares the method with ``secular.solve_rlgopt`` but
no code: it works on an eigen-decomposition, the driver on LDL'
factorizations.

The dense 2k x 2k linearization of the quadratic eigenproblem,
``solve_qep_linearization``, is kept only here, as the oracle for the
QEP pair that ``secular.solve_reduced_qep`` derives from the reduced
solve.

The dense routines are O(n^3) and capped; the point is exactness, not
scale.  The rest of the package is tested against these routines.
"""

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .driver import EASY, HARD, crq_solution, unique_point_solution
from .errors import (BracketFailureError, InfeasibleError, MaxIterError, NoRealEigenvalueError,
                     NoRootError, TooLargeError)
from .problem import INFEASIBLE, INTERIOR, classify, compute_n0
from .secular import EASY_TAG, HARD_EXACT_TAG, HARD_PADDED_TAG, T_RTOL, TINY_LEADING_WEIGHT

DENSE_CAP = 5000
PINV_TRUNC = 1e-12
REAL_CLASSIFY_TOL = 1e-8
# steps before smallest_root gives up on its safeguarded Newton iteration
SECULAR_MAXIT = 200


class SecularSpec(NamedTuple):
    """Poles (ascending), weights and the radius gamma of a secular function."""

    theta: np.ndarray
    xi: np.ndarray
    gamma: float


def make_spec(theta, xi, gamma):
    """A checked ``SecularSpec``: finite ascending poles, finite weights
    of the same nonzero length and a finite positive gamma, or
    ``ValueError``."""
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if theta.ndim != 1 or theta.size == 0 or theta.shape != xi.shape:
        raise ValueError("theta and xi must be nonempty 1-D arrays of equal length")
    if not (np.isfinite(theta).all() and np.isfinite(xi).all()):
        raise ValueError("theta and xi must be finite")
    if np.any(np.diff(theta) < 0):
        raise ValueError("theta must be ascending")
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")
    return SecularSpec(theta, xi, float(gamma))


def secular_value(spec, lam):
    return float(np.sum(spec.xi**2 / (lam - spec.theta) ** 2) - spec.gamma**2)


def _secular_t(d, xi, gamma):
    """The root t = theta_1 - lambda >= 0 of ``smallest_root``, given the
    pole offsets d = theta - theta_1, and the iteration count.

    Only the poles that carry weight enter the iteration.
    """
    nz = np.flatnonzero(xi)
    if nz.size == 0:
        raise NoRootError("all secular weights vanish")
    dn, xn = d[nz], xi[nz]
    if dn[0] > 0.0 and np.sum((xn / dn) ** 2) <= gamma**2:
        # no pole at theta_1: a root below the spectrum needs ||xi/d|| > gamma
        raise NoRootError("secular function has no root left of theta_1")
    # the one-pole bound lies left of the root, ||xi|| / gamma right of it
    lo, hi = max(abs(xn[0]) / gamma - dn[0], 0.0), float(np.linalg.norm(xn)) / gamma
    t = lo
    for it in range(1, SECULAR_MAXIT + 1):
        r = xn / (dn + t)
        nx = math.sqrt(r @ r)
        if nx > gamma:
            lo = t
        else:
            hi = t
        if hi - lo <= T_RTOL * t:
            return t, it
        cand = t + (nx - gamma) * nx * nx / (gamma * float(r @ (r / (dn + t))))
        if not lo <= cand <= hi:
            cand = 0.5 * (lo + hi)
        step, t = abs(cand - t), cand
        if step <= T_RTOL * t:
            return t, it
    raise MaxIterError(f"secular iteration did not settle within {SECULAR_MAXIT} steps")


def smallest_root(spec):
    """Unique root of the secular function left of its smallest pole.

    Returns ``(lambda_star, iterations)``.  Requires either a pole at
    theta_1 carrying weight, or a positive left limit of chi at theta_1;
    otherwise there is no root below the spectrum and ``NoRootError`` is
    raised.
    """
    theta, xi, gamma = spec
    t, it = _secular_t(theta - theta[0], xi, gamma)
    return float(theta[0] - t), it


def _bottom_cluster(theta):
    """Indices of eigenvalues tied with the smallest one."""
    tol = 1e-9 * max(1.0, float(np.max(np.abs(theta))))
    return np.flatnonzero(theta <= theta[0] + tol)


def solve_plgopt_spectral(theta, xi, gamma):
    """Reduced multiplier problem in eigen-coordinates.

    ``theta`` ascending eigenvalues, ``xi`` the coordinates of the
    reduced gradient in the same eigenbasis.  Returns
    ``(lambda_star, y_hat, tag)`` with ``y_hat`` in eigen-coordinates.

    Case tree: weight on the bottom eigenspace forces a secular root
    strictly below theta_1; otherwise the minimum-norm stationary point
    w = -(H - theta_1)^+ g0 decides between a secular root (||w|| >
    gamma), the exact boundary solution (||w|| = gamma) and boundary
    plus eigenvector padding (||w|| < gamma).  A secular root is found
    in t = theta_1 - lambda, and y_hat = -xi / (theta - theta_1 + t) is
    formed from t, not from lambda, whose difference to theta_1 rounds.
    The input is checked as ``make_spec`` checks it.
    """
    theta, xi, gamma = make_spec(theta, xi, gamma)
    d = theta - theta[0]
    cluster = _bottom_cluster(theta)
    norm_g = np.linalg.norm(xi)
    weight_bottom = np.linalg.norm(xi[cluster])

    # a bottom weight with weight_bottom / gamma below the float spacing at
    # theta_1 counts as zero: a root that needs it (||w|| < gamma below)
    # lies within rounding of theta_1
    resolved = theta[0] - weight_bottom / gamma < theta[0]
    if weight_bottom > TINY_LEADING_WEIGHT * norm_g and resolved:
        t, _ = _secular_t(d, xi, gamma)
        return float(theta[0] - t), -xi / (d + t), EASY_TAG

    # bottom weight (numerically) zero: drop it and examine the boundary
    xi = xi.copy()
    xi[cluster] = 0.0
    outside = np.ones(theta.size, dtype=bool)
    outside[cluster] = False
    w_hat = np.zeros_like(xi)
    w_hat[outside] = -xi[outside] / d[outside]
    nw = np.linalg.norm(w_hat)

    if nw > gamma * (1.0 + 1e-12):
        t, _ = _secular_t(d, xi, gamma)
        return float(theta[0] - t), -xi / (d + t), EASY_TAG
    if abs(nw - gamma) <= 1e-12 * gamma:
        return float(theta[0]), w_hat, HARD_EXACT_TAG
    pad = np.sqrt(max(gamma**2 - nw**2, 0.0))
    w_hat[cluster[0]] += pad
    return float(theta[0]), w_hat, HARD_PADDED_TAG


class DenseReduction(NamedTuple):
    """Explicit split of the problem over [null(C') | range(C)]."""

    S1: np.ndarray       # n x (n-m), orthonormal basis of null(C')
    H: np.ndarray        # (n-m) x (n-m) symmetric reduced operator
    g0: np.ndarray       # length n-m reduced shifted gradient
    theta: np.ndarray    # ascending eigenvalues of H
    Y: np.ndarray        # eigenvectors of H, columns match theta


def dense_matrix(problem):
    """Materialize the operator A as a dense array (small problems only)."""
    return problem.A.apply(np.eye(problem.n))


def build_reduction(problem):
    """Factor C fully and form the reduced pair (H, g0) with its spectrum."""
    n, m = problem.n, problem.m
    if n > DENSE_CAP:
        raise TooLargeError(f"n = {n} exceeds the dense cap {DENSE_CAP}")
    C = problem.C.toarray() if sp.issparse(problem.C) else problem.C
    Q, _ = sla.qr(C)
    S1 = Q[:, m:]
    H = S1.T @ problem.A.apply(S1)
    H = 0.5 * (H + H.T)
    n0 = compute_n0(problem)
    b0 = problem.P.apply_P(problem.A.matvec(n0))
    g0 = S1.T @ b0
    theta, Y = sla.eigh(H)
    return DenseReduction(S1, H, g0, theta, Y)


def solve_plgopt_dense(red, gamma):
    """Reduced multiplier problem for a DenseReduction.

    Returns ``(lambda_star, y_star, tag)`` with ``y_star`` expressed in
    null-space coordinates (length n - m).
    """
    xi = red.Y.T @ red.g0
    lam, y_hat, tag = solve_plgopt_spectral(red.theta, xi, gamma)
    return lam, red.Y @ y_hat, tag


def direct_solve(problem):
    """Reference solution by full reduction; exact up to dense eigensolves."""
    feas = classify(problem)
    if feas.tag == INFEASIBLE:
        raise InfeasibleError("no feasible point")
    if feas.tag != INTERIOR:
        return unique_point_solution(problem, feas)
    red = build_reduction(problem)
    lam, y, tag = solve_plgopt_dense(red, feas.gamma)
    return crq_solution(problem, feas.n0 + red.S1 @ y, lam,
                        EASY if tag == EASY_TAG else HARD, feas.n0)


def pinv_shift_apply(red, lam, vec):
    """(H - lam I)^+ vec in the stored eigenbasis, truncating tiny shifts."""
    xi = red.Y.T @ vec
    shifts = red.theta - lam
    scale = max(np.max(np.abs(shifts)), 1.0)
    inv = np.where(np.abs(shifts) > PINV_TRUNC * scale, 1.0 / np.where(shifts == 0, 1.0, shifts), 0.0)
    return red.Y @ (inv * xi)


def hard_case_predicate(red, gamma):
    """True iff the instance is degenerate: the case analysis of
    ``solve_plgopt_dense`` puts the multiplier on the bottom of the
    spectrum of H (the reduced gradient is orthogonal to its bottom
    eigenspace and the minimum-norm stationary point fits within the
    radius gamma)."""
    return solve_plgopt_dense(red, gamma)[2] != EASY_TAG


def solve_qep_linearization(T, coupling):
    """Leftmost real eigenpair of (T - lam)^2 w = -coupling w via the
    block linearization; works for any symmetric dense T.

    Returns ``(mu, y, w, spectrum)`` with the eigenvector rotated real
    and unit-normalized.  An eigenvalue counts as real when
    ``|Im| <= REAL_CLASSIFY_TOL * (1 + |Re| + ||T||)``; if none qualifies the
    classification tolerance is too tight or the solve failed, and
    ``NoRealEigenvalueError`` is raised.
    """
    k = T.shape[0]
    L = np.block([[T, coupling], [-np.eye(k), T]])
    vals, vecs = sla.eig(L)
    scale_t = float(np.linalg.norm(T, 1))
    real_mask = np.abs(vals.imag) <= REAL_CLASSIFY_TOL * (1.0 + np.abs(vals.real) + scale_t)
    if not np.any(real_mask):
        raise NoRealEigenvalueError(
            "no eigenvalue of the reduced QEP classified as real"
        )
    idx = np.flatnonzero(real_mask)
    best = idx[np.argmin(vals.real[idx])]
    mu = float(vals.real[best])

    s = vecs[:, best]
    pivot = np.argmax(np.abs(s))
    phase = s[pivot] / abs(s[pivot])
    s = (s / phase).real
    s /= np.linalg.norm(s)
    return mu, s[:k].copy(), s[k:].copy(), vals


def solve_pqepmin_dense(red, gamma):
    """Dense quadratic-eigenvalue route: leftmost real eigenpair of
    (H - lam)^2 w = gamma^{-2} g0 g0' w.  Returns (mu, y, w, spectrum)."""
    coupling = -np.outer(red.g0, red.g0) / gamma**2
    return solve_qep_linearization(red.H, coupling)


def equivalence_maps(red, gamma):
    """Cross-check both reduced routes and the maps between their minimizers.

    Solves the multiplier problem and the quadratic-eigenvalue problem
    independently, pushes each minimizer through the constructive map to
    the other formulation, and reports the optimal-value gap plus the
    worst constraint residuals of the mapped points.
    """
    theta = red.theta
    lam_lg, y_lg, tag = solve_plgopt_dense(red, gamma)
    mu_qep, _, w_qep, spectrum = solve_pqepmin_dense(red, gamma)
    scale = max(1.0, float(np.max(np.abs(theta)))) ** 2 + np.linalg.norm(red.g0) ** 2 / gamma**2

    # multiplier -> QEP map
    if lam_lg < theta[0] - 1e-12 * max(1.0, abs(theta[0])):
        w_map = sla.solve(red.H - lam_lg * np.eye(theta.size), y_lg, assume_a="sym")
    else:
        w_map = red.Y[:, 0]
    resid_fwd = np.linalg.norm(
        (red.H - lam_lg * np.eye(theta.size)) @ ((red.H - lam_lg * np.eye(theta.size)) @ w_map)
        - (red.g0 @ w_map) / gamma**2 * red.g0
    ) / (scale * np.linalg.norm(w_map))

    # QEP -> multiplier map, including the orthogonal-gradient branch
    g0w = float(red.g0 @ w_qep)
    if abs(g0w) > 1e-12 * np.linalg.norm(red.g0) * np.linalg.norm(w_qep):
        y_map = -(gamma**2 / g0w) * (red.H - mu_qep * np.eye(theta.size)) @ w_qep
        branch = "gradient_coupled"
    else:
        x_star = pinv_shift_apply(red, mu_qep, -red.g0)
        pad = np.sqrt(max(gamma**2 - float(x_star @ x_star), 0.0))
        y_map = x_star + pad * w_qep / np.linalg.norm(w_qep)
        branch = "gradient_orthogonal"
    resid_bwd = np.linalg.norm(
        (red.H - mu_qep * np.eye(theta.size)) @ y_map + red.g0
    ) / (max(1.0, float(np.max(np.abs(theta)))) * gamma + np.linalg.norm(red.g0))
    norm_gap = abs(np.linalg.norm(y_map) - gamma)

    return {
        "lambda_multiplier": float(lam_lg),
        "lambda_qep": float(mu_qep),
        "lambda_gap": float(abs(lam_lg - mu_qep)),
        "forward_residual": float(resid_fwd),
        "backward_residual": float(resid_bwd),
        "backward_norm_gap": float(norm_gap),
        "multiplier_tag": tag,
        "backward_branch": branch,
        "qep_spectrum": spectrum,
    }


def _dual_matrices(problem):
    n, m = problem.n, problem.m
    A = dense_matrix(problem)
    red = build_reduction(problem)
    U = red.S1
    u = np.sqrt(n) * compute_n0(problem)
    N = np.zeros((n + 1, n - m + 1))
    N[:n, : n - m] = U
    N[:n, n - m] = u
    N[n, n - m] = 1.0
    Ahat = np.zeros((n + 1, n + 1))
    Ahat[:n, :n] = A
    Ehat = np.zeros((n + 1, n + 1))
    Ehat[:n, :n] = -np.eye(n) / (n + 1)
    Ehat[n, n] = 1.0 - 1.0 / (n + 1)
    Bhat = np.zeros((n + 1, n + 1))
    Bhat[:n, :n] = np.eye(n)
    L = N.T @ Ahat @ N
    E = N.T @ Ehat @ N
    M = N.T @ Bhat @ N
    return L, E, M


def dual_check(problem):
    """Eigenvalue-optimization cross-check of the optimal value.

    Builds the pencil (L + t E, M) of the dual formulation, verifies M is
    positive definite, maximizes f(t) = lambda_min(L + tE, M) by at most
    60 bracket expansions plus golden-section refinement to relative
    width 1e-8, and returns ``(t_star, f(t_star), gap)`` where ``gap``
    compares the dual optimum with the primal optimal value from the
    direct solver.  f is a pointwise minimum of functions affine in t, so
    it is concave and the expansions end unless f is monotone; then no
    interior maximizer exists and ``BracketFailureError`` is raised.
    """
    L, E, M = _dual_matrices(problem)
    lam_min_M = float(sla.eigvalsh(M)[0])
    if lam_min_M <= 0.0:
        raise BracketFailureError(f"mass matrix not positive definite ({lam_min_M:.3e})")
    K = sla.cholesky(M, lower=True)
    Lt = sla.solve_triangular(K, sla.solve_triangular(K, L, lower=True).T, lower=True)
    Et = sla.solve_triangular(K, sla.solve_triangular(K, E, lower=True).T, lower=True)
    Lt = 0.5 * (Lt + Lt.T)
    Et = 0.5 * (Et + Et.T)

    def f(t):
        return float(sla.eigvalsh(Lt + t * Et, subset_by_index=(0, 0))[0])

    a, b, c = -1.0, 0.0, 1.0
    fa, fb, fc = f(a), f(b), f(c)
    budget = 60
    while not (fb >= fa and fb >= fc):
        if budget == 0:
            # f is concave, so the bracket only runs out while f is monotone
            raise BracketFailureError("no interior dual maximizer found")
        width = c - a
        if fa > fb:
            a, b, c = a - 2.0 * width, a, b
            fa, fb, fc = f(a), fa, fb
        else:
            a, b, c = b, c, c + 2.0 * width
            fa, fb, fc = fb, fc, f(c)
        budget -= 1

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, c
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-8 * (1.0 + abs(lo) + abs(hi)):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    t_star = 0.5 * (lo + hi)
    f_star = f(t_star)
    primal = direct_solve(problem).objective
    return float(t_star), float(f_star), float(abs(f_star - primal))
