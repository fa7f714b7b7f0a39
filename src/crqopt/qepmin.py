"""The reduced quadratic eigenpair, in the form the dense oracle checks.

Projecting the quadratic eigenproblem onto the Krylov basis and dropping
the rank-one edge coupling leaves

    (T_k - lam I)^2 w = gamma^{-2} ||b0||^2 e_1 e_1' w,

whose leftmost real eigenvalue is the multiplier of the reduced Lagrange
problem (Gander, Golub & von Matt, LAA 114/115, 1989).  So the
``ReducedLgSolution`` of one ``secular.solve_rlgopt`` call holds the QEP
eigenpair: mu, w, and y = (T_k - mu I) w, which is x on the easy tag and
(theta_1 - mu) w = 0 on a boundary tag, where mu is the bottom
eigenvalue theta_1 of T_k and w its eigenvector.  ``solve_reduced_qep``
returns that pair as the dense 2k x 2k linearization of ``reference``
is checked against.  The ``qepmin`` route's certificate,
``qep_residual_bound``, sits in ``driver`` beside lgopt's.

No solve calls this module: it stays in the library only because the
benchmark tracer patches ``driver.solve_reduced_qep`` by name, and it
moves to the tests' oracles when the tracer drops that patch.  It must
not import ``driver``, which imports it.
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


def solve_reduced_qep(alpha, beta, beta1, gamma):
    """Leftmost real eigenpair (mu, y, w) of the reduced QEP, with the
    reduced minimizer x it comes from."""
    red = solve_rlgopt(alpha, beta, beta1, gamma)
    y = red.x if red.tag == EASY_TAG else np.zeros_like(red.w)
    return ReducedQepSolution(red.mu, red.w, y, red.x)
