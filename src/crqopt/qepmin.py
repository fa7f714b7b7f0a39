"""Reduced quadratic-eigenvalue route to the optimal multiplier.

Projecting the quadratic eigenproblem onto the Krylov basis and dropping
the rank-one edge coupling leaves

    (T_k - lam I)^2 w = gamma^{-2} ||b0||^2 e_1 e_1' w,

whose leftmost eigenvalue is guaranteed real (the dropped-term problem
has exactly the structure of the full-space one).  It is solved through
the 2k x 2k linearization

    [ T_k   -gamma^{-2}||b0||^2 e_1 e_1' ] [y]       [y]
    [ -I     T_k                         ] [w] = lam [w],

where y = (T_k - lam I) w.  Keeping the edge coupling is available as a
diagnostic (``edge_weight``); it generally destroys realness of the
spectrum, which is precisely why the term is dropped.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateEigenvectorError, NoRealEigenvalueError
from .lanczos import tridiagonal_dense

REAL_CLASSIFY_TOL = 1e-8
TINY_E1W = 1e-12


class ReducedQepSolution(NamedTuple):
    mu: float
    w: np.ndarray
    y: np.ndarray
    spectrum: np.ndarray
    tiny_e1w: bool


def solve_qep_linearization(T, coupling, real_tol=REAL_CLASSIFY_TOL):
    """Leftmost real eigenpair of (T - lam)^2 w = -coupling w via the
    block linearization; works for any symmetric dense T.

    Returns ``(mu, y, w, spectrum)`` with the eigenvector rotated real
    and unit-normalized.  An eigenvalue counts as real when
    ``|Im| <= real_tol * (1 + |Re| + ||T||)``; if none qualifies the
    classification tolerance is too tight or the solve failed, and
    ``NoRealEigenvalueError`` is raised.
    """
    k = T.shape[0]
    L = np.block([[T, coupling], [-np.eye(k), T]])
    vals, vecs = sla.eig(L)
    scale_t = float(np.linalg.norm(T, 1))
    real_mask = np.abs(vals.imag) <= real_tol * (1.0 + np.abs(vals.real) + scale_t)
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


def solve_reduced_qep(alpha, beta, beta1, gamma, edge_weight=0.0,
                      real_tol=REAL_CLASSIFY_TOL):
    """Leftmost real eigenpair of the reduced QEP on the Krylov basis.

    ``edge_weight`` adds ``edge_weight * e_k e_k'`` to the quadratic term
    (diagnostic only; the production path uses 0 because the kept term
    can push the whole spectrum complex).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    k = alpha.size
    T = tridiagonal_dense(alpha, beta)
    coupling = np.zeros((k, k))
    coupling[0, 0] = -(beta1**2) / gamma**2
    if edge_weight != 0.0:
        coupling[k - 1, k - 1] += edge_weight
    mu, y, w, vals = solve_qep_linearization(T, coupling, real_tol=real_tol)
    tiny = abs(w[0]) < TINY_E1W * np.linalg.norm(w)
    return ReducedQepSolution(mu, w, y, vals, tiny)


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
