"""Symmetric Lanczos process on M = P A P with full reorthogonalization.

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


class LanczosState:
    """Basis Q, tridiagonal coefficients and breakdown bookkeeping.

    ``alpha[j]`` holds the j-th diagonal entry, ``beta[0]`` stores the
    norm of the start vector and ``beta[j]`` (j >= 1) the off-diagonal
    coupling produced by step j.  After k steps the basis holds k+1
    vectors (k on breakdown).
    """

    def __init__(self, op, r0, breakdown_tol):
        r0 = np.asarray(r0, dtype=float)
        beta1 = float(np.linalg.norm(r0))
        if beta1 <= 0.0:
            raise ZeroStartError("Lanczos start vector is zero")
        self.op = op
        self.n = r0.shape[0]
        self.alpha = []
        self.beta = [beta1]
        self.broke_down = False
        self.breakdown_tol = breakdown_tol
        self._cap = 16
        self._Q = np.empty((self.n, self._cap))
        self._nq = 0
        self._push(r0 / beta1)

    def _push(self, q):
        if self._nq == self._cap:
            self._cap = min(max(2 * self._cap, self._nq + 1), max(self.n + 1, self._nq + 1))
            newQ = np.empty((self.n, self._cap))
            newQ[:, : self._nq] = self._Q[:, : self._nq]
            self._Q = newQ
        self._Q[:, self._nq] = q
        self._nq += 1

    @property
    def k(self):
        return len(self.alpha)

    def basis(self, k=None):
        """First k basis vectors as an (n, k) view."""
        if k is None:
            k = self.k
        return self._Q[:, :k]

    def q(self, j):
        """Basis vector q_j (1-based)."""
        return self._Q[:, j - 1]

    @property
    def has_next(self):
        """Whether q_{k+1} is available (False after breakdown)."""
        return self._nq > self.k

    def tridiagonal(self, k=None):
        """(diagonal, off-diagonal) arrays of T_k."""
        if k is None:
            k = self.k
        return np.array(self.alpha[:k]), np.array(self.beta[1:k])

    def tridiagonal_matrix(self, k=None):
        a, b = self.tridiagonal(k)
        T = np.diag(a)
        if len(b):
            T += np.diag(b, 1) + np.diag(b, -1)
        return T


def lanczos_init(op, b0, norm_scale=1.0):
    """Start the process at b0; ``norm_scale`` calibrates the breakdown test.

    The breakdown threshold must sit above the rounding-noise floor of
    one recurrence step (cancellation leaves residue well above
    eps * ||A||), otherwise exact invariant-subspace closures are never
    detected and the process wanders into noise-seeded ghost directions.
    eps^(2/3) * ||A|| separates the two regimes by several orders of
    magnitude on every instance family exercised by the tests.
    """
    tol = np.finfo(float).eps ** (2.0 / 3.0) * max(norm_scale, 1.0)
    return LanczosState(op, b0, breakdown_tol=tol)


def lanczos_step(state):
    """One three-term recurrence step; returns CONTINUED or BROKE_DOWN."""
    if state.broke_down:
        raise RuntimeError("cannot step a broken-down Lanczos process")
    k = state.k + 1
    q_k = state.q(k)
    w = state.op.matvec(q_k, in_nullspace=True)
    if k >= 2:
        w -= state.beta[k - 1] * state.q(k - 1)
    a_k = float(q_k @ w)
    w -= a_k * q_k
    # full reorthogonalization: one classical Gram-Schmidt pass, refined
    # once more if the first pass removed a non-negligible component
    Q = state.basis(k)
    base = np.linalg.norm(w)
    h = Q.T @ w
    w -= Q @ h
    if np.linalg.norm(h) > _REORTH_LOSS_TOL * max(base, 1e-300):
        w -= Q @ (Q.T @ w)
    # pin the basis to null(C'): without this, roundoff leaks components
    # into range(C) where M has spurious zero eigenvalues, and long runs
    # (inner eigensolves in particular) pick them up as ghost Ritz values
    if hasattr(state.op, "apply_P"):
        w = state.op.apply_P(w)
    b_next = float(np.linalg.norm(w))
    state.alpha.append(a_k)
    state.beta.append(b_next)
    if b_next <= state.breakdown_tol:
        state.broke_down = True
        return BROKE_DOWN
    state._push(w / b_next)
    return CONTINUED


def run(op, b0, steps, norm_scale=1.0):
    """Run up to ``steps`` Lanczos steps; stops early on breakdown."""
    state = lanczos_init(op, b0, norm_scale=norm_scale)
    for _ in range(steps):
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
    state = lanczos_init(op, start, norm_scale=norm_scale)
    while state.k < maxit:
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


def smallest_eigenpair(op, start, tol=1e-10, maxit=None, norm_scale=1.0,
                       require_converged=False):
    """Smallest Ritz pair of M = P A P restricted to null(C').

    ``start`` must already lie in the null space (pass a projected random
    vector).  Convergence is declared when the Ritz residual
    ``beta_{k+1} |last component|`` drops below ``tol * scale``; on
    breakdown the pair is exact.  Returns ``(theta, z, info)`` where
    ``info`` carries steps, residual and the convergence flag; with
    ``require_converged`` an unconverged run raises ``EigFailureError``.
    """
    if maxit is None:
        maxit = min(op.n, 500)
    step = None
    for step in bottom_ritz_pairs(op, start, maxit, tol, norm_scale):
        if step.converged:
            break
    if step is None or not np.isfinite(step.theta):
        raise EigFailureError("projected eigensolve produced no finite Ritz value")
    if require_converged and not step.converged:
        raise EigFailureError(
            f"projected eigensolve stalled at residual {step.resid:.3e} after {step.k} steps"
        )
    info = {"steps": step.k, "residual": step.resid, "converged": step.converged}
    return step.theta, step.vector(), info
