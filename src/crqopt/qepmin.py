"""Reduced quadratic-eigenvalue route: the QEP eigenpair and its certificate.

Projecting the quadratic eigenproblem onto the Krylov basis and dropping
the rank-one edge coupling leaves

    (T_k - lam I)^2 w = gamma^{-2} ||b0||^2 e_1 e_1' w,

whose leftmost real eigenvalue is the multiplier of the reduced Lagrange
problem (Gander, Golub & von Matt, LAA 114/115, 1989).  So the route
reads mu, the minimizer x and the eigenvector w off one
``secular.solve_rlgopt`` call: on the Newton path w = (T_k - mu I)^{-1} x
comes from Newton's last LDL' factorization, and y = (T_k - mu I) w is x
itself.  When mu sits on the bottom of the spectrum of T_k (a boundary
tag of the case analysis), w is the bottom eigenvector of T_k and
y = (theta_1 - mu) w = 0.  What is left to this route is its residual
certificate, ``qep_residual_bound``: an O(1) bound read from the
trailing components of (y, w), with no operator applied.  The dense
2k x 2k linearization lives in ``reference`` as the oracle.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateEigenvectorError
from .secular import EASY_TAG, EIG, solve_rlgopt


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
    red = solve_rlgopt(alpha, beta, beta1, gamma)
    # y = (T_k - mu I) w; on a boundary tag mu is theta_1 of the same
    # decomposition, so y vanishes
    y = red.x if red.tag == EASY_TAG else np.zeros_like(red.w)
    return ReducedQepSolution(red.mu, red.w, y, red.x, red.solver, red.iterations)


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
    """Cheap upper bound ``delta`` on the normalized QEP residual.

    The bound uses only the trailing components of (y, w) and
    beta_{k+1}, so it costs O(1) and applies no operator; the exact
    normalized residual, which would need M = P A P applied to q_{k+1},
    never exceeds it.  After breakdown it is zero.
    """
    if state.broke_down:
        return 0.0
    mu = sol.mu
    denom = ((norm_a + abs(mu)) ** 2 + (beta1 / gamma) ** 2) * np.linalg.norm(sol.w)
    beta_next = state.beta[sol.w.size]
    return float(abs(beta_next) * (abs(sol.y[-1]) + (norm_a + abs(mu)) * abs(sol.w[-1])) / denom)
