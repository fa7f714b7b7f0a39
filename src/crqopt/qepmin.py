"""Reduced quadratic-eigenvalue certificate over the one reduced solve.

Projecting the quadratic eigenproblem onto the Krylov basis and dropping
the rank-one edge coupling leaves

    (T_k - lam I)^2 w = gamma^{-2} ||b0||^2 e_1 e_1' w,

whose leftmost real eigenvalue is the multiplier of the reduced Lagrange
problem (Gander, Golub & von Matt, LAA 114/115, 1989).  So the
``ReducedLgSolution`` of a check's one ``secular.solve_rlgopt`` call
holds the QEP eigenpair: mu, w, and y = (T_k - mu I) w, which is x on
the easy tag and (theta_1 - mu) w = 0 on a boundary tag, where mu is
the bottom eigenvalue theta_1 of T_k and w its eigenvector.  This module
adds the ``qepmin`` certificate, ``qep_residual_bound``: an O(1) bound
from the trailing components of (y, w), with no operator applied.
``solve_reduced_qep`` gives the pair in the form the dense 2k x 2k
linearization of ``reference`` is checked against.
"""

from typing import NamedTuple

import numpy as np

from .secular import EASY_TAG, solve_rlgopt


class ReducedQepSolution(NamedTuple):
    """QEP eigenpair (mu, w, y) and the reduced minimizer x it comes from."""

    mu: float
    w: np.ndarray
    y: np.ndarray
    x: np.ndarray


def _qep_y(red):
    # y = (T_k - mu I) w: x on the easy tag, 0 on a boundary tag
    return red.x if red.tag == EASY_TAG else np.zeros_like(red.w)


def solve_reduced_qep(alpha, beta, beta1, gamma):
    """Leftmost real eigenpair (mu, y, w) of the reduced QEP, with the
    reduced minimizer x it comes from."""
    red = solve_rlgopt(alpha, beta, beta1, gamma)
    return ReducedQepSolution(red.mu, red.w, _qep_y(red), red.x)


def qep_residual_bound(state, red, norm_a, gamma, beta1):
    """Cheap upper bound ``delta`` on the normalized QEP residual of the
    ``ReducedLgSolution`` ``red``.

    The bound uses only the trailing components of (y, w) and
    beta_{k+1}, so it costs O(1) and applies no operator; the exact
    normalized residual, which would need M = P A P applied to q_{k+1},
    never exceeds it.  After breakdown it is zero.
    """
    if state.broke_down:
        return 0.0
    shift = norm_a + abs(red.mu)
    denom = (shift**2 + (beta1 / gamma) ** 2) * np.linalg.norm(red.w)
    beta_next = state.beta[red.w.size]
    return float(abs(beta_next) * (abs(_qep_y(red)[-1]) + shift * abs(red.w[-1])) / denom)
