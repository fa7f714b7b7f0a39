"""Symmetric Lanczos process on M = P A P with partial reorthogonalization.

A run is given the symmetric operator A and the projector P, a
problem's ``ProjectedOperator``, explicitly; with ``P=None`` it runs on
A itself, as the norm estimate does.  The run is a ``LanczosState``, built
at its start vector with an estimate of ||A|| from which it derives its
breakdown threshold and the rounding noise of its orthogonality
estimates, and advanced by ``lanczos_step``.

The basis is kept semiorthogonal, |q_j' q_{k+1}| <= sqrt(u), not
orthogonal: that keeps T_k the projection of M onto the Krylov space to
working accuracy (Simon, Linear Algebra Appl. 61, 1984), which is all the
reduced solves need.  Simon's omega recurrence (Math. Comp. 42, 1984)
estimates the loss in O(k) per step, and a Gram-Schmidt pass against the
basis runs only on the steps where the estimate passes sqrt(u) and on
the step after each.  Here u is A's ``unit_roundoff``: float64 eps, or
float32 eps for an operator that applies a float32 store, whose rounding
then drives the loss (Paige, J. Inst. Math. Appl. 18, 1976).

The basis rows are stored in the precision the operator rounds at
(``basis_dtype``): float32 where u is float32 eps, else float64.  A
semiorthogonal basis of such a run is accurate only to about u, so the
digits below it are not worth storing, and the store is the one memory
term that grows with both n and the steps.  Every step computes in
float64 and rounds only q_{k+1} = w / beta_{k+1}, once, into its row.
Every product with the basis - the Gram-Schmidt pass, a Ritz vector,
the driver's iterate and its replay from a ``KrylovRecord`` - goes
through ``basis_product``, which never forms a k x n float64 copy of the
rows: on a float32 store it sums a pass's coefficients Q_k' w in float64
and forms Q_k x in float32.

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import EigFailureError, ZeroStartError

_EPS = np.finfo(float).eps
# dstebz's absolute tolerance for a bottom eigenvalue to relative accuracy
BISECTION_ABSTOL = 2.0 * np.finfo(float).tiny


def basis_dtype(unit_roundoff):
    """The dtype of the basis rows of a run on an operator with this unit
    roundoff: float32 where it rounds at float32 eps or coarser, else
    float64."""
    return np.dtype(np.float32 if unit_roundoff >= np.finfo(np.float32).eps else np.float64)


def tridiagonal_dense(alpha, beta):
    """Dense symmetric tridiagonal matrix with diagonal ``alpha`` and
    off-diagonal ``beta``."""
    T = np.diag(alpha)
    if len(beta):
        T += np.diag(beta, 1) + np.diag(beta, -1)
    return T


def basis_product(rows, x, transpose=False):
    """Q_k x for a k-vector x, or Q_k' x for an n-vector x with
    ``transpose``, where ``rows`` holds q_1..q_k as a (k, n) array of
    contiguous rows.  Returned in float64 and with no k x n float64 copy
    of the rows, which numpy's mixed-dtype matmul would make.

    On float64 rows both are the plain products, ``x @ rows`` and
    ``rows @ x`` bit for bit.  On float32 rows Q_k x runs in float32, with
    x rounded into it, and Q_k' x sums in float64, ``einsum`` widening the
    rows a buffer at a time.  Q_k' w gives a Gram-Schmidt pass its
    coefficients, and their accuracy sets the orthogonality the pass
    leaves: summed in float32 they left losses of several u against the
    reset's u, and the omega estimate's lead over the measured loss fell
    2-3x.  The error of Q_k x scales with x, which is small in that pass,
    and the driver projects and rescales its iterate.
    """
    if transpose and rows.dtype != np.float64:
        return np.einsum("ij,j->i", rows, x)
    x = np.asarray(x).astype(rows.dtype, copy=False)
    y = rows @ x if transpose else x @ rows
    return y.astype(float, copy=False)


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
    family exercised by the tests.

    The orthogonality control reads u = ``A.unit_roundoff``, the rounding
    of one apply.  The rounding of one step, the term psi of the omega
    recurrence (``noise``), is max(u, eps * sqrt(n)) * ||A||: the apply's
    own error where it computes in a lower precision, else the float64
    rounding of the step's n-term products.  The semiorthogonality
    threshold ``semiorth_tol`` is sqrt(u), and a Gram-Schmidt pass resets
    the estimates to u.  For a float64 operator u = eps, and the three are
    eps * sqrt(n) * ||A||, sqrt(eps) and eps.  For a float32 store psi
    must be the apply's u ||A||: with eps * sqrt(n) * ||A|| the estimate
    stays under sqrt(eps) while the measured loss passes it.

    The basis is stored one vector per contiguous row of a store
    preallocated for ``min(maxit, n)`` steps, so reading q_j, writing
    q_{k+1} and the reorthogonalization products all stream through
    contiguous memory.  Rows never written are never touched, so the
    resident memory grows with the steps actually taken.  The store's
    ``dtype`` is ``basis_dtype(u)``: float32 for a float32 operator,
    which halves the store, else float64.  The coefficients and the two
    rows of omega estimates (see ``lanczos_step``) live in float64 arrays
    preallocated to the same cap.  ``basis_product`` is the one way the
    basis enters a product.
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
        self.noise = max(A.unit_roundoff, _EPS * np.sqrt(self.n)) * norm_scale
        self.semiorth_tol = np.sqrt(A.unit_roundoff)
        self.reorth_steps = 0
        self.maxit = self.n if maxit is None else min(maxit, self.n)
        self._k = 0
        self._Q = np.empty((self.maxit + 1, self.n), dtype=basis_dtype(A.unit_roundoff))
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
    def dtype(self):
        """The dtype of the basis rows (see ``basis_dtype``)."""
        return self._Q.dtype

    @property
    def alpha(self):
        return self._alpha[:self._k]

    @property
    def beta(self):
        return self._beta[:self._k + 1]

    def basis(self, k=None):
        """First k basis vectors as an (n, k) view, in the store's dtype."""
        if k is None:
            k = self.k
        return self._Q[:k].T

    def basis_product(self, x, k=None, transpose=False):
        """``basis_product`` of the first k rows (all k steps' by default)."""
        return basis_product(self._Q[:self.k if k is None else k], x, transpose)

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


def _recur(state, w, q_k):
    """Subtract beta_k q_{k-1} and alpha_k q_k from w = A q_k in place, in
    float64 whatever the store's dtype; ``q_k`` is the float64 vector the
    caller applied A to.  Returns alpha_k."""
    k = state.k + 1
    if k >= 2:
        w -= state._beta[k - 1] * state.q(k - 1)
    a_k = float(q_k @ w)
    w -= a_k * q_k
    return a_k


def _finish(state, w, a_k):
    """The rest of a step once w holds the projected recurrence residual:
    the omega update, a Gram-Schmidt pass where it is due, the breakdown
    test and q_{k+1} = w / beta_{k+1}.  Raises ``ValueError``, naming the
    step, where alpha_k or beta_{k+1} is not finite: an apply of A that
    returned a value that is not finite, caught where it enters."""
    k = state.k + 1
    b_next = float(np.linalg.norm(w))
    if not (math.isfinite(a_k) and math.isfinite(b_next)):
        raise ValueError(f"Lanczos step {k}: alpha_k = {a_k}, beta_(k+1) = {b_next}; "
                         f"the apply of A returned a value that is not finite")
    state._alpha[k - 1] = a_k
    # a Gram-Schmidt pass only shrinks w, so at or below the breakdown
    # threshold the step breaks down either way
    if b_next > state.breakdown_tol and (
            state._advance_omega(b_next) > state.semiorth_tol or state._force_reorth):
        w -= state.basis_product(state.basis_product(w, k, transpose=True), k)
        w = _project(state.P, w)
        b_next = float(np.linalg.norm(w))
        omega = state._omega[state._cur]
        omega[:k - 1] = state.A.unit_roundoff
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
    estimates of q_j' q_{k+1}.  When their largest passes sqrt(u) it
    runs one classical Gram-Schmidt pass of the new vector against the
    basis and projects again; the next step does the same, since q_k
    passes its loss on to q_{k+2} through the recurrence.  A pass resets
    the estimates of the new vector to u (psi / beta_{k+1} against
    q_k), so after the second pass both rows are at that level.  Near a
    breakdown beta_{k+1} is small, so the estimate passes sqrt(u) and
    the pass runs before the breakdown test.  u is A's ``unit_roundoff``
    (see ``LanczosState``).
    """
    _check_room(state)
    q_k = state.q(state.k + 1).astype(float, copy=False)
    w = state.A.matvec(q_k)
    a_k = _recur(state, w, q_k)
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
    a = [_recur(state, W[:, j], X[:, j]) for j, state in enumerate(states)]
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

    LAPACK ``dstebz`` (bisection for the first eigenvalue, block order)
    and ``dstein`` (inverse iteration), as
    ``scipy.linalg.eigh_tridiagonal(select="i", select_range=(0, 0),
    tol=BISECTION_ABSTOL)`` calls them, without that wrapper's argument
    checks; k = 1 is closed form.  That tolerance makes the bisection run
    to relative accuracy, where tolerance 0 stops at an absolute
    eps ||T||; the reduced solve's mu = theta_1 - t inherits theta's
    error.  Returns ``(theta, s)``; a nonzero ``info`` raises
    ``EigFailureError``.
    """
    if alpha.size == 1:
        return float(alpha[0]), np.ones(1)
    _, w, iblock, isplit, info = lapack.dstebz(alpha, beta, 2, 0.0, 1.0, 1, 1,
                                               BISECTION_ABSTOL, "B")
    if info != 0:
        raise EigFailureError(f"dstebz failed with info = {info}")
    z, info = lapack.dstein(alpha, beta, w[:1], iblock, isplit)
    if info != 0:
        raise EigFailureError(f"dstein failed with info = {info}")
    return float(w[0]), z[:, 0]


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
        return self.state.basis_product(self.s, self.k)


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

