"""Reduced quadratic-eigenvalue route: the QEP eigenpair and its certificate.

Projecting the quadratic eigenproblem onto the Krylov basis and dropping
the rank-one edge coupling leaves

    (T_k - lam I)^2 w = gamma^{-2} ||b0||^2 e_1 e_1' w,

whose leftmost real eigenvalue is the multiplier of the reduced Lagrange
problem (Gander, Golub & von Matt, LAA 114/115, 1989).  So the route
takes mu and the minimizer x from ``secular.solve_rlgopt`` and derives
the eigenvector from them: y = (T_k - mu I) w is proportional to x, and
w = (T_k - mu I)^{-1} x costs one banded solve.  When mu sits on the
bottom of the spectrum of T_k (the boundary fallback of the secular
solve), T_k - mu I is singular and w is the bottom eigenvector of T_k.
What is left to this route is its residual certificate,
``qep_residual_bound``.  The dense 2k x 2k linearization lives in
``reference`` as the oracle.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateEigenvectorError
from .secular import EASY_TAG, EIG, shifted_solve, solve_rlgopt


class ReducedQepSolution(NamedTuple):
    """QEP eigenpair (mu, w, y), the reduced minimizer x, and the reduced
    solver and iteration count of the ``solve_rlgopt`` call behind them."""

    mu: float
    w: np.ndarray
    y: np.ndarray
    x: np.ndarray
    solver: str = EIG
    iterations: int = 0


def solve_reduced_qep(alpha, beta, beta1, gamma):
    """Leftmost real eigenpair (mu, y, w) of the reduced QEP, with the
    reduced minimizer x it comes from."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    red = solve_rlgopt(alpha, beta, beta1, gamma)
    w = shifted_solve(alpha, beta, red.mu, red.x) if red.tag == EASY_TAG else None
    if w is not None:
        return ReducedQepSolution(red.mu, w, red.x, red.x, red.solver, red.iterations)
    theta, Z = sla.eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
    w = Z[:, 0]
    return ReducedQepSolution(red.mu, w, (theta[0] - red.mu) * w, red.x,
                              red.solver, red.iterations)


def reduced_qep_to_rlgopt(sol, beta1, gamma):
    """Map the QEP eigenvector to the reduced Lagrange minimizer.

    x = -(gamma^2 / (||b0|| e_1'w)) y, which satisfies
    (T_k - mu I) x = -||b0|| e_1 and ||x|| = gamma; the map is invalid
    when e_1'w vanishes (cannot happen for irreducible T_k).
    """
    e1w = float(sol.w[0])
    wnorm = np.linalg.norm(sol.w)
    if abs(e1w) <= 100.0 * np.finfo(float).eps * wnorm:
        raise DegenerateEigenvectorError("reduced QEP eigenvector has e_1'w ~ 0")
    return -(gamma**2 / (beta1 * e1w)) * sol.y


def qep_residual_bound(state, sol, norm_a, gamma, beta1):
    """Normalized QEP residual and its cheap per-step upper bound.

    The bound ``delta`` uses only the trailing components of (y, w) and
    beta_{k+1}; the exact normalized residual ``nres`` additionally needs
    one application of M = P A P to q_{k+1} and always satisfies
    ``nres <= delta``.  After breakdown both are zero.
    """
    if state.broke_down:
        return 0.0, 0.0
    k = sol.w.size
    mu = sol.mu
    wnorm = np.linalg.norm(sol.w)
    denom = ((norm_a + abs(mu)) ** 2 + (beta1 / gamma) ** 2) * wnorm
    beta_next = state.beta[k]
    delta = abs(beta_next) * (abs(sol.y[-1]) + (norm_a + abs(mu)) * abs(sol.w[-1])) / denom
    q_next = state.q(k + 1)
    Mq = state.op.matvec(q_next, in_nullspace=True)
    r = beta_next * (sol.y[-1] * q_next + sol.w[-1] * (Mq - mu * q_next))
    nres = np.linalg.norm(r) / denom
    return float(nres), float(delta)
