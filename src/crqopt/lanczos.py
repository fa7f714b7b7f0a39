"""Symmetric Lanczos process on M = P A P with full reorthogonalization.

The operator is a ``ProjectedOperator`` (anything with ``apply_P``) or a
plain symmetric operator; the norm estimate runs the same loop on A.

The recurrence is started at the shifted gradient b0 (which lies in the
null space of C'), so every basis vector stays in that null space and
only one projection per step is needed: for q in null(C'),
M q = P(A q).  After k clean steps the compact relation

    M Q_k = Q_k T_k + beta_{k+1} q_{k+1} e_k'

holds with T_k tridiagonal; beta_{k+1} = 0 means the Krylov subspace is
invariant (breakdown) and the reduced solves become exact.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import EigFailureError, ZeroStartError

CONTINUED = "continued"
BROKE_DOWN = "broke_down"

_REORTH_LOSS_TOL = 1e-10


def tridiagonal_dense(alpha, beta):
    """Dense symmetric tridiagonal matrix with diagonal ``alpha`` and
    off-diagonal ``beta``."""
    T = np.diag(alpha)
    if len(beta):
        T += np.diag(beta, 1) + np.diag(beta, -1)
    return T


class LanczosState:
    """Basis Q, tridiagonal coefficients and breakdown bookkeeping.

    ``alpha[j]`` holds the j-th diagonal entry, ``beta[0]`` stores the
    norm of the start vector and ``beta[j]`` (j >= 1) the off-diagonal
    coupling produced by step j.  After k steps the basis holds k+1
    vectors (k on breakdown).

    The basis is stored one vector per contiguous row of a store
    preallocated for ``min(maxit, n)`` steps, so reading q_j, writing
    q_{k+1} and the reorthogonalization products all stream through
    contiguous memory.  Rows never written are never touched, so the
    resident memory grows with the steps actually taken.
    """

    def __init__(self, op, r0, breakdown_tol, maxit=None):
        r0 = np.asarray(r0, dtype=float)
        beta1 = float(np.linalg.norm(r0))
        if beta1 <= 0.0:
            raise ZeroStartError("Lanczos start vector is zero")
        self.op = op
        self.projected = hasattr(op, "apply_P")
        self.n = r0.shape[0]
        self.alpha = []
        self.beta = [beta1]
        self.broke_down = False
        self.breakdown_tol = breakdown_tol
        self.maxit = self.n if maxit is None else min(maxit, self.n)
        self._Q = np.empty((self.maxit + 1, self.n))
        self._Q[0] = r0 / beta1

    @property
    def k(self):
        return len(self.alpha)

    def basis(self, k=None):
        """First k basis vectors as an (n, k) view."""
        if k is None:
            k = self.k
        return self._Q[:k].T

    def q(self, j):
        """Basis vector q_j (1-based)."""
        return self._Q[j - 1]

    def tridiagonal(self, k=None):
        """(diagonal, off-diagonal) arrays of T_k."""
        if k is None:
            k = self.k
        return np.array(self.alpha[:k]), np.array(self.beta[1:k])

    def tridiagonal_matrix(self, k=None):
        return tridiagonal_dense(*self.tridiagonal(k))


def lanczos_init(op, b0, norm_scale=1.0, maxit=None):
    """Start the process at b0; ``norm_scale`` calibrates the breakdown test.

    ``maxit`` caps the number of steps (at most n, the default) and sizes
    the basis store; stepping past it raises ``RuntimeError``.

    The breakdown threshold must sit above the rounding-noise floor of
    one recurrence step (cancellation leaves residue well above
    eps * ||A||), otherwise exact invariant-subspace closures are never
    detected and the process wanders into noise-seeded ghost directions.
    eps^(2/3) * ||A|| separates the two regimes by several orders of
    magnitude on every instance family exercised by the tests.
    """
    tol = np.finfo(float).eps ** (2.0 / 3.0) * max(norm_scale, 1.0)
    return LanczosState(op, b0, breakdown_tol=tol, maxit=maxit)


def lanczos_step(state):
    """One three-term recurrence step; returns CONTINUED or BROKE_DOWN."""
    if state.broke_down:
        raise RuntimeError("cannot step a broken-down Lanczos process")
    if state.k == state.maxit:
        raise RuntimeError(
            f"Lanczos basis is full: the store was sized for maxit={state.maxit} steps"
        )
    k = state.k + 1
    q_k = state.q(k)
    if state.projected:
        w = state.op.matvec(q_k, in_nullspace=True)
    else:
        w = state.op.matvec(q_k)
    if k >= 2:
        w -= state.beta[k - 1] * state.q(k - 1)
    a_k = float(q_k @ w)
    w -= a_k * q_k
    # full reorthogonalization: one classical Gram-Schmidt pass, refined
    # once more if the first pass removed a non-negligible component
    Q_r = state._Q[:k]
    base = np.linalg.norm(w)
    h = Q_r @ w
    w -= h @ Q_r
    if np.linalg.norm(h) > _REORTH_LOSS_TOL * max(base, 1e-300):
        w -= (Q_r @ w) @ Q_r
    # pin the basis to null(C'): without this, roundoff leaks components
    # into range(C) where M has spurious zero eigenvalues, and long runs
    # (inner eigensolves in particular) pick them up as ghost Ritz values
    if state.projected:
        w = state.op.apply_P(w)
    b_next = float(np.linalg.norm(w))
    state.alpha.append(a_k)
    state.beta.append(b_next)
    if b_next <= state.breakdown_tol:
        state.broke_down = True
        return BROKE_DOWN
    np.divide(w, b_next, out=state._Q[k])
    return CONTINUED


def run(op, b0, steps, norm_scale=1.0):
    """Run up to ``steps`` Lanczos steps; stops early on breakdown."""
    state = lanczos_init(op, b0, norm_scale=norm_scale, maxit=steps)
    for _ in range(state.maxit):
        if lanczos_step(state) == BROKE_DOWN:
            break
    return state


@dataclass
class RitzStep:
    """Bottom Ritz pair after one step of a ``bottom_ritz_pairs`` run."""

    state: LanczosState
    theta: float
    s: np.ndarray
    resid: float
    converged: bool

    @property
    def k(self):
        return self.state.k

    def vector(self):
        """Ritz vector Q_k s (unit norm up to roundoff)."""
        return self.state.basis() @ self.s


def bottom_ritz_pairs(op, start, maxit, tol, norm_scale=1.0):
    """Lanczos run from ``start`` that yields the bottom Ritz pair after each step.

    Each ``RitzStep`` carries the smallest eigenvalue ``theta`` of T_k,
    its eigenvector ``s``, the Ritz residual ``beta_{k+1} |s_k|`` and
    whether that residual is below ``tol * max(norm_scale, |theta|)``.
    Breakdown makes the pair exact (residual 0) and ends the run; so does
    step ``maxit``.  The consumer decides when to stop earlier, and forms
    the Ritz vector only if it needs it.
    """
    state = lanczos_init(op, start, norm_scale=norm_scale, maxit=maxit)
    while state.k < state.maxit:
        broke = lanczos_step(state) == BROKE_DOWN
        a, b = state.tridiagonal()
        vals, vecs = sla.eigh_tridiagonal(a, b, select="i", select_range=(0, 0))
        theta = float(vals[0])
        s = vecs[:, 0]
        resid = 0.0 if broke else float(state.beta[state.k] * abs(s[-1]))
        converged = resid <= tol * max(norm_scale, abs(theta), 1e-300)
        yield RitzStep(state, theta, s, resid, converged)
        if broke:
            return


def smallest_eigenpair(op, start, tol=1e-10, maxit=None, norm_scale=1.0):
    """Smallest Ritz pair of M = P A P restricted to null(C').

    ``start`` must already lie in the null space (pass a projected random
    vector).  Convergence is declared when the Ritz residual
    ``beta_{k+1} |last component|`` drops below ``tol * scale``; on
    breakdown the pair is exact.  Returns ``(theta, z, info)`` where
    ``info`` carries steps, residual and the convergence flag.
    """
    if maxit is None:
        maxit = min(op.n, 500)
    step = None
    for step in bottom_ritz_pairs(op, start, maxit, tol, norm_scale):
        if step.converged:
            break
    if step is None or not np.isfinite(step.theta):
        raise EigFailureError("projected eigensolve produced no finite Ritz value")
    info = {"steps": step.k, "residual": step.resid, "converged": step.converged}
    return step.theta, step.vector(), info
