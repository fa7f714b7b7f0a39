"""Problem container, feasibility trichotomy and projection machinery.

A problem instance is

    minimize v'Av   subject to  ||v|| = 1,  C'v = b,

with A symmetric (n x n), C of full column rank (n x m, m < n).  Writing
n0 for the minimum-norm solution of C'v = b and P for the orthogonal
projector onto the null space of C', every feasible v splits as
v = n0 + Pv, which classifies the instance by ||n0||:

    ||n0|| > 1  -> infeasible,
    ||n0|| = 1  -> the single feasible point v = n0,
    ||n0|| < 1  -> an (n-m-1)-sphere of feasible points; the solvers
                   then work with gamma = sqrt(1 - ||n0||^2) and the
                   shifted gradient b0 = P A n0.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import RankDeficientError
from .lanczos import smallest_eigenpair
from .operators import SymmetricOperator, as_operator, norm_estimate

INFEASIBLE = "infeasible"
UNIQUE_POINT = "unique_point"
INTERIOR = "interior"

_SYM_PROBES = 3
_SYM_TOL = 1e-8


class CrqProblem:
    """Operator A, constraint matrix C and right-hand side b.

    ``A`` may be a dense array, a sparse matrix, a ``SymmetricOperator``
    or a callable (pass ``n`` for callables).  ``C`` is dense or sparse
    with full column rank; rank is checked through a column-pivoted QR
    factorization, which also backs all least-squares projections.
    """

    def __init__(self, A, C, b, n=None, validate=True):
        if sp.issparse(C):
            C_dense = np.asarray(C.todense(), dtype=float)
        else:
            C_dense = np.atleast_2d(np.asarray(C, dtype=float))
            if C_dense.shape[0] == 1 and C_dense.shape[1] > 1:
                C_dense = C_dense.T
        self.C = C_dense
        self.n, self.m = C_dense.shape
        if self.m >= self.n:
            raise ValueError("need m < n constraints")
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.b.shape != (self.m,):
            raise ValueError("b must have length m")
        self.A = as_operator(A, n=self.n if n is None else n)
        if self.A.n != self.n:
            raise ValueError("A and C have inconsistent dimensions")

        # column-pivoted QR of C; never normal equations
        Q, R, piv = sla.qr(C_dense, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        tol = max(self.n, self.m) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
        if diag.size == 0 or np.any(diag <= tol):
            raise RankDeficientError(
                f"C has numerical rank < m = {self.m} (|R_ii| floor {diag.min() if diag.size else 0:.3e})"
            )
        self._Q = Q
        self._R = R
        self._piv = piv
        self._norm_a = None
        self._n0An0 = None

        if validate:
            self._spot_check_symmetry()

    def _spot_check_symmetry(self):
        rng = np.random.default_rng(12345)
        for _ in range(_SYM_PROBES):
            x = rng.standard_normal(self.n)
            y = rng.standard_normal(self.n)
            Ax, Ay = self.A.matvec(x), self.A.matvec(y)
            scale = np.linalg.norm(Ax) * np.linalg.norm(y) + np.linalg.norm(Ay) * np.linalg.norm(x)
            if abs(x @ Ay - y @ Ax) > _SYM_TOL * max(scale, 1e-300):
                raise ValueError("A fails the symmetry spot check")

    @property
    def norm_a(self):
        """Cached 2-norm estimate of A (short Lanczos run, fixed seed)."""
        if self._norm_a is None:
            self._norm_a = max(norm_estimate(self.A), np.finfo(float).tiny)
        return self._norm_a

    def apply_A(self, x):
        return self.A.apply(x)

    def solve_min_norm(self):
        """Minimum-norm solution n0 of C'v = b via the pivoted QR of C."""
        z = sla.solve_triangular(self._R, self.b[self._piv], trans="T", lower=False)
        return self._Q @ z

    def n0_quadratic(self):
        """Cached value of n0' A n0 (used by cheap objective recovery)."""
        if self._n0An0 is None:
            n0 = self.solve_min_norm()
            self._n0An0 = float(n0 @ self.A.matvec(n0))
        return self._n0An0

    def projected_operator(self):
        return ProjectedOperator(self)


class ProjectedOperator(SymmetricOperator):
    """P = I - C C^+ and the product M = P A P, matrix-free.

    P c is evaluated as c - Q(Q'c) with Q the orthonormal factor of C,
    i.e. by subtracting the least-squares fit of c from range(C).
    Subclasses may override ``apply_P`` to swap the factorization-based
    least squares for an iterative solver when C is too large to factor.
    """

    def __init__(self, problem):
        super().__init__(problem.n)
        self.problem = problem
        self._Q = problem._Q

    def apply_P(self, c):
        c = np.asarray(c, dtype=float)
        return c - self._Q @ (self._Q.T @ c)

    def matvec(self, x, in_nullspace=False):
        """Apply M = P A P.  With ``in_nullspace`` the first projection is skipped."""
        y = x if in_nullspace else self.apply_P(x)
        return self.apply_P(self.problem.A.matvec(y))

    def matmat(self, X):
        return self.apply_P(self.problem.A.apply(self.apply_P(X)))


class Feasibility:
    """Outcome of the feasible-set trichotomy."""

    __slots__ = ("tag", "n0", "gamma", "b0")

    def __init__(self, tag, n0, gamma=None, b0=None):
        self.tag = tag
        self.n0 = n0
        self.gamma = gamma
        self.b0 = b0

    def __repr__(self):
        extra = "" if self.gamma is None else f", gamma={self.gamma:.6g}"
        return f"Feasibility({self.tag}{extra})"


def compute_n0(problem):
    """Minimum-norm solution of C'v = b."""
    return problem.solve_min_norm()


def classify(problem, eps_f=None):
    """Feasible-set trichotomy on ||n0||.

    ``eps_f`` is the boundary tolerance; it defaults to
    ``1e-12 * (1 + ||b||)``.
    """
    if eps_f is None:
        eps_f = 1e-12 * (1.0 + np.linalg.norm(problem.b))
    n0 = compute_n0(problem)
    nrm = np.linalg.norm(n0)
    if nrm > 1.0 + eps_f:
        return Feasibility(INFEASIBLE, n0)
    if abs(nrm - 1.0) <= eps_f:
        return Feasibility(UNIQUE_POINT, n0)
    gamma = float(np.sqrt(1.0 - nrm * nrm))
    op = problem.projected_operator()
    b0 = op.apply_P(problem.A.matvec(n0))
    return Feasibility(INTERIOR, n0, gamma, b0)


def b0_zero_threshold(problem, feas):
    """Threshold under which b0 = P A n0 is treated as exactly zero."""
    return 1e-12 * problem.norm_a * np.linalg.norm(feas.n0)


def resolve_b0_zero(problem, feas, rng=None, eig_tol=1e-10, eig_maxit=None):
    """Shortcut for b0 = 0: one projected eigensolve settles the instance.

    When the shifted gradient vanishes, the minimizer is
    ``n0 + gamma * z/||z||`` with ``(theta, z)`` the smallest eigenpair of
    P A P restricted to the null space of C' (a random projected start
    keeps the iteration inside that subspace).  Returns ``None`` when
    ``||b0||`` is above the zero threshold, so the caller proceeds to the
    main Lanczos loop.
    """
    if feas.tag != INTERIOR:
        raise ValueError("resolve_b0_zero expects an interior instance")
    if np.linalg.norm(feas.b0) > b0_zero_threshold(problem, feas):
        return None
    from .driver import CrqSolution, B0_ZERO

    rng = np.random.default_rng(rng)
    op = problem.projected_operator()
    start = op.apply_P(rng.standard_normal(problem.n))
    theta, z, info = smallest_eigenpair(
        op, start, tol=eig_tol, maxit=eig_maxit, norm_scale=problem.norm_a
    )
    v = feas.n0 + feas.gamma * z / np.linalg.norm(z)
    objective = float(v @ problem.A.matvec(v))
    return CrqSolution(
        v=v,
        mu=float(theta),
        k=info["steps"],
        history=[],
        case=B0_ZERO,
        objective=objective,
        n0=feas.n0,
        gamma=feas.gamma,
    )
