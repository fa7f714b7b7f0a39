"""Symmetric Lanczos process on M = P A P with partial reorthogonalization.

A run is given the symmetric operator A and the projector P, a
problem's ``ProjectedOperator``, explicitly; with ``P=None`` it runs on
A itself, as the norm estimate does.  The run is a ``LanczosState``, built
at its start vector with an estimate of ||A|| from which it derives its
breakdown threshold and the rounding noise of its orthogonality
estimates, and advanced by ``lanczos_step``.

The basis is kept semiorthogonal, |q_j' q_{k+1}| <= sqrt(eps), not
orthogonal: that keeps T_k the projection of M onto the Krylov space to
working accuracy (Simon, Linear Algebra Appl. 61, 1984), which is all the
reduced solves need.  Simon's omega recurrence (Math. Comp. 42, 1984)
estimates the loss in O(k) per step, and a Gram-Schmidt pass against the
basis runs only on the steps where the estimate passes sqrt(eps) and on
the step after each.

The recurrence is started at the shifted gradient b0 (which lies in the
null space of C'), so every basis vector stays in that null space and
only one projection per step is needed: P fixes q_k and q_{k-1}, so

    M q_k - alpha_k q_k - beta_k q_{k-1} = P(A q_k - alpha_k q_k - beta_k q_{k-1}),

and a step applies A and projects once, after the subtractions.  Two
runs on the same A and P can share those two applies:
``lanczos_pair_step`` passes both runs' vectors to A, and both residuals
to P, as one n x 2 block.  After k clean steps the compact relation

    M Q_k = Q_k T_k + beta_{k+1} q_{k+1} e_k'

holds with T_k tridiagonal; beta_{k+1} = 0 means the Krylov subspace is
invariant.  A run stops once beta_{k+1} falls to its breakdown threshold
(``broke_down``), where rounding can leave it far above zero.

``bottom_ritz_pair`` reads a run's smallest Ritz pair off T_k.  The one
loop that forms such pairs of P A P is the driver's ``DetectionRun``,
which settles both the b0 = 0 instance and hard-case detection.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import EigFailureError, ZeroStartError

_EPS = np.finfo(float).eps
_SQRT_EPS = np.sqrt(_EPS)


def tridiagonal_dense(alpha, beta):
    """Dense symmetric tridiagonal matrix with diagonal ``alpha`` and
    off-diagonal ``beta``."""
    T = np.diag(alpha)
    if len(beta):
        T += np.diag(beta, 1) + np.diag(beta, -1)
    return T


class LanczosState:
    """Basis Q, tridiagonal coefficients, orthogonality estimates and
    breakdown bookkeeping.

    ``alpha[j]`` holds the j-th diagonal entry, ``beta[0]`` stores the
    norm of the start vector and ``beta[j]`` (j >= 1) the off-diagonal
    coupling produced by step j.  After k steps the basis holds k+1
    vectors (k on breakdown).  ``reorth_steps`` counts the steps that ran
    a Gram-Schmidt pass.

    The process on P A P (on A when ``P`` is None) starts at b0, which
    lies in the range of P.  ``maxit`` caps the number of steps (at
    most n, the default) and sizes the basis store; stepping past it
    raises ``RuntimeError``.  ``norm_scale`` (an estimate of ||A||)
    calibrates the breakdown test and the rounding noise of the
    orthogonality estimates.  The breakdown threshold ``breakdown_tol``
    must sit above the rounding-noise floor of one recurrence step
    (cancellation leaves residue well above eps * ||A||), otherwise exact
    invariant-subspace closures are never detected and the process
    wanders into noise-seeded ghost directions; eps^(2/3) * ||A|| separates
    the two regimes by several orders of magnitude on every instance
    family exercised by the tests.  The rounding of one step, the term
    psi of the omega recurrence (``noise``), is taken as
    eps * sqrt(n) * ||A||.

    The basis is stored one vector per contiguous row of a store
    preallocated for ``min(maxit, n)`` steps, so reading q_j, writing
    q_{k+1} and the reorthogonalization products all stream through
    contiguous memory.  Rows never written are never touched, so the
    resident memory grows with the steps actually taken.  The
    coefficients and the two rows of omega estimates (see
    ``lanczos_step``) live in arrays preallocated to the same cap.
    """

    def __init__(self, A, b0, P=None, norm_scale=1.0, maxit=None):
        r0 = np.asarray(b0, dtype=float)
        beta1 = float(np.linalg.norm(r0))
        if beta1 <= 0.0:
            raise ZeroStartError("Lanczos start vector is zero")
        self.A = A
        self.P = P
        self.n = r0.shape[0]
        self.broke_down = False
        self.breakdown_tol = _EPS ** (2.0 / 3.0) * max(norm_scale, 1.0)
        self.noise = _EPS * np.sqrt(self.n) * norm_scale
        self.reorth_steps = 0
        self.maxit = self.n if maxit is None else min(maxit, self.n)
        self._k = 0
        self._Q = np.empty((self.maxit + 1, self.n))
        self._Q[0] = r0 / beta1
        self._alpha = np.empty(self.maxit)
        self._beta = np.empty(self.maxit + 1)
        self._beta[0] = beta1
        # row _cur estimates q_j' q_{k+1} for j <= k+1, the other row
        # q_j' q_k; the diagonal entry q_{k+1}' q_{k+1} is 1
        self._omega = np.empty((2, self.maxit + 1))
        self._omega[0, 0] = 1.0
        self._cur = 0
        self._force_reorth = False

    @property
    def k(self):
        return self._k

    @property
    def alpha(self):
        return self._alpha[:self._k]

    @property
    def beta(self):
        return self._beta[:self._k + 1]

    def basis(self, k=None):
        """First k basis vectors as an (n, k) view."""
        if k is None:
            k = self.k
        return self._Q[:k].T

    def q(self, j):
        """Basis vector q_j (1-based)."""
        return self._Q[j - 1]

    def omega(self):
        """Estimates of q_j' q_{k+1} for j = 1..k."""
        return self._omega[self._cur, :self._k]

    def tridiagonal(self, k=None):
        """(diagonal, off-diagonal) arrays of T_k."""
        if k is None:
            k = self.k
        return self._alpha[:k].copy(), self._beta[1:k].copy()

    def tridiagonal_matrix(self, k=None):
        return tridiagonal_dense(*self.tridiagonal(k))

    def _advance_omega(self, b_next):
        """Simon's recurrence for the row of q_{k+1}, from the rows of q_k
        and q_{k-1}; returns max_j |omega_{k+1,j}| over j <= k.

        With M q_j = beta_{j+1} q_{j+1} + alpha_j q_j + beta_j q_{j-1},
        q_j' M q_k = q_k' M q_j gives, for j < k,

            beta_{k+1} omega_{k+1,j} = beta_{j+1} omega_{k,j+1}
                + (alpha_j - alpha_k) omega_{k,j} + beta_j omega_{k,j-1}
                - beta_k omega_{k-1,j} + psi,

        where psi, of the sign of the rest, stands for the rounding of
        one step; omega_{k+1,k} = psi / beta_{k+1}.
        """
        c = self._k  # q_k, 0-based (the step is not yet counted)
        a, b, psi = self._alpha, self._beta, self.noise
        cur = self._omega[self._cur]
        new = self._omega[1 - self._cur]  # holds the row of q_{k-1} until written
        if c > 0:
            t = b[1:c + 1] * cur[1:c + 1]
            t += (a[:c] - a[c]) * cur[:c]
            t[1:] += b[1:c] * cur[:c - 1]
            t -= b[c] * new[:c]
            t += np.copysign(psi, t)
            np.divide(t, b_next, out=new[:c])
        new[c] = psi / b_next
        new[c + 1] = 1.0
        self._cur = 1 - self._cur
        return float(np.max(np.abs(new[:c + 1])))


def _check_room(state):
    if state.broke_down:
        raise RuntimeError("cannot step a broken-down Lanczos process")
    if state.k == state.maxit:
        raise RuntimeError(
            f"Lanczos basis is full: the store was sized for maxit={state.maxit} steps"
        )


def _project(P, w):
    """P w, or w itself on a run without a projector."""
    return w if P is None else P.apply_P(w)


def _recur(state, w):
    """Subtract beta_k q_{k-1} and alpha_k q_k from w = A q_k in place;
    returns alpha_k."""
    k = state.k + 1
    q_k = state.q(k)
    if k >= 2:
        w -= state._beta[k - 1] * state.q(k - 1)
    a_k = float(q_k @ w)
    w -= a_k * q_k
    return a_k


def _finish(state, w, a_k):
    """The rest of a step once w holds the projected recurrence residual:
    the omega update, a Gram-Schmidt pass where it is due, the breakdown
    test and q_{k+1} = w / beta_{k+1}."""
    k = state.k + 1
    b_next = float(np.linalg.norm(w))
    state._alpha[k - 1] = a_k
    # a Gram-Schmidt pass only shrinks w, so at or below the breakdown
    # threshold the step breaks down either way
    if b_next > state.breakdown_tol and (
            state._advance_omega(b_next) > _SQRT_EPS or state._force_reorth):
        Q_r = state._Q[:k]
        w -= (Q_r @ w) @ Q_r
        w = _project(state.P, w)
        b_next = float(np.linalg.norm(w))
        omega = state._omega[state._cur]
        omega[:k - 1] = _EPS
        omega[k - 1] = state.noise / b_next
        state._force_reorth = not state._force_reorth
        state.reorth_steps += 1
    state._beta[k] = b_next
    state._k = k
    if b_next <= state.breakdown_tol:
        state.broke_down = True
    else:
        np.divide(w, b_next, out=state._Q[k])


def lanczos_step(state):
    """One three-term recurrence step; one that breaks down sets
    ``state.broke_down``, and the run takes no step after it.

    The step applies A to q_k, subtracts beta_k q_{k-1} and alpha_k q_k,
    and projects the result with P, the one projection of the step; since
    q_k lies in null(C'), the alpha_k it takes from A equals q_k' M q_k.
    After the recurrence and the projection the step advances the omega
    estimates of q_j' q_{k+1}.  When their largest passes sqrt(eps) it
    runs one classical Gram-Schmidt pass of the new vector against the
    basis and projects again; the next step does the same, since q_k
    passes its loss on to q_{k+2} through the recurrence.  A pass resets
    the estimates of the new vector to eps (psi / beta_{k+1} against
    q_k), so after the second pass both rows are at that level.  Near a
    breakdown beta_{k+1} is small, so the estimate passes sqrt(eps) and
    the pass runs before the breakdown test.
    """
    _check_room(state)
    q_k = state.q(state.k + 1)
    w = state.A.matvec(q_k)
    a_k = _recur(state, w)
    # the step's one projection, which also pins the basis to null(C'):
    # without it roundoff leaks components into range(C), where M has
    # spurious zero eigenvalues that long runs (inner eigensolves in
    # particular) pick up as ghost Ritz values
    return _finish(state, _project(state.P, w), a_k)


def lanczos_pair_step(first, second):
    """One step of each of two runs on the same A and P.

    The two runs' current vectors go to A as one n x 2 block, and the two
    recurrence residuals to the projection as another, so the pair costs
    one A-apply and one projection of a two-column block instead of two of
    each.  Everything else (the recurrence, the omega update, a
    Gram-Schmidt pass where it is due, the breakdown test) is each run's
    own, as in ``lanczos_step``.
    """
    if first.A is not second.A or first.P is not second.P:
        raise ValueError("paired Lanczos runs must share A and P")
    states = (first, second)
    for state in states:
        _check_room(state)
    X = np.empty((first.n, 2), order="F")
    for j, state in enumerate(states):
        X[:, j] = state.q(state.k + 1)
    W = np.asfortranarray(first.A.apply(X))
    a = [_recur(state, W[:, j]) for j, state in enumerate(states)]
    W = np.asfortranarray(_project(first.P, W))
    for j, state in enumerate(states):
        _finish(state, W[:, j], a[j])


def run(A, b0, steps, P=None, norm_scale=1.0):
    """Run up to ``steps`` Lanczos steps; stops early on breakdown."""
    state = LanczosState(A, b0, P, norm_scale=norm_scale, maxit=steps)
    while state.k < state.maxit and not state.broke_down:
        lanczos_step(state)
    return state


def bottom_eigenpair(alpha, beta):
    """Smallest eigenvalue and its unit eigenvector of the symmetric
    tridiagonal matrix with diagonal ``alpha`` and off-diagonal ``beta``.

    LAPACK ``dstebz`` (bisection for the first eigenvalue, tolerance 0,
    block order) and ``dstein`` (inverse iteration), as
    ``scipy.linalg.eigh_tridiagonal(select="i", select_range=(0, 0))``
    calls them, without that wrapper's argument checks; k = 1 is closed
    form.  Returns ``(theta, s)``; a nonzero ``info`` raises
    ``EigFailureError``.
    """
    if alpha.size == 1:
        return float(alpha[0]), np.ones(1)
    _, w, iblock, isplit, info = lapack.dstebz(alpha, beta, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise EigFailureError(f"dstebz failed with info = {info}")
    z, info = lapack.dstein(alpha, beta, w[:1], iblock, isplit)
    if info != 0:
        raise EigFailureError(f"dstein failed with info = {info}")
    return float(w[0]), z[:, 0]


def top_eigenvalue(alpha, beta):
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``alpha`` and off-diagonal ``beta``: one LAPACK ``dstebz`` bisection
    (range I, il = iu = k, tolerance 0)."""
    k = alpha.size
    if k == 1:
        return float(alpha[0])
    _, w, _, _, info = lapack.dstebz(alpha, beta, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info != 0:
        raise EigFailureError(f"dstebz failed with info = {info}")
    return float(w[0])


@dataclass
class RitzStep:
    """Bottom Ritz pair of a Lanczos run after its step ``k``."""

    state: LanczosState
    k: int
    theta: float
    s: np.ndarray
    resid: float
    converged: bool

    def vector(self):
        """Ritz vector Q_k s (unit norm up to roundoff)."""
        return self.state.basis(self.k) @ self.s


def bottom_ritz_pair(state, tol, norm_scale=1.0):
    """The smallest eigenvalue ``theta`` of the run's current T_k, its
    eigenvector ``s``, the Ritz residual ``beta_{k+1} |s_k|`` and whether
    that residual is below ``tol * max(norm_scale, |theta|)``.  After a
    breakdown the residual is read at the stored beta_{k+1} as before one.
    """
    k = state.k
    theta, s = bottom_eigenpair(state.alpha, state._beta[1:k])
    resid = float(state.beta[k] * abs(s[-1]))
    converged = resid <= tol * max(norm_scale, abs(theta), 1e-300)
    return RitzStep(state, k, theta, s, resid, converged)

