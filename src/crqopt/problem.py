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
from .operators import as_operator, norm_estimate

INFEASIBLE = "infeasible"
UNIQUE_POINT = "unique_point"
INTERIOR = "interior"


class CrqProblem:
    """Operator A, constraint matrix C and right-hand side b.

    ``A`` may be a dense array, a sparse matrix or a ``SymmetricOperator``;
    ``as_operator`` checks an explicit matrix for symmetry.  ``C`` is
    dense or sparse, with 0 < m < n columns of full rank.  C is factored
    once, into the ``ProjectedOperator`` ``P``, which checks the rank and
    backs n0 and every projection.
    """

    def __init__(self, A, C, b):
        if sp.issparse(C):
            C_dense = np.asarray(C.todense(), dtype=float)
        else:
            C_dense = np.atleast_2d(np.asarray(C, dtype=float))
            if C_dense.shape[0] == 1 and C_dense.shape[1] > 1:
                C_dense = C_dense.T
        self.C = C_dense
        self.n, self.m = C_dense.shape
        if self.m == 0:
            raise ValueError("need at least one constraint")
        if self.m >= self.n:
            raise ValueError("need m < n constraints")
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.b.shape != (self.m,):
            raise ValueError("b must have length m")
        self.A = as_operator(A)
        if self.A.n != self.n:
            raise ValueError("A and C have inconsistent dimensions")
        self.P = ProjectedOperator(C_dense)
        self._norm_a = None

    @property
    def norm_a(self):
        """The 2-norm scale of A, cached: the operator's rigorous
        ``norm_bound`` where it has one (2 for the normalized Laplacian),
        else a short Lanczos estimate from a fixed seed."""
        if self._norm_a is None:
            norm = self.A.norm_bound
            if norm is None:
                norm = norm_estimate(self.A)
            self._norm_a = max(norm, np.finfo(float).tiny)
        return self._norm_a


class ProjectedOperator:
    """The factorization of an n x m constraint matrix C (0 < m < n) and
    what is read from it: the projector P = I - C C^+ and the
    minimum-norm solution of C'v = b.

    C is factored once by a column-pivoted QR, C[:, piv] = Q R, never
    through the normal equations, and rejected when its numerical rank is
    below m.  P c is evaluated as c - Q(Q'c), i.e. by subtracting the
    least-squares fit of c from range(C), for a vector or an n x k block.
    The Lanczos runs on M = P A P apply A and then P themselves, so M is
    never applied as a whole.
    """

    def __init__(self, C):
        n, m = C.shape
        Q, R, piv = sla.qr(C, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        tol = max(n, m) * np.finfo(float).eps * diag.max()
        if np.any(diag <= tol):
            raise RankDeficientError(
                f"C has numerical rank < m = {m} (|R_ii| floor {diag.min():.3e})")
        self._Q = Q
        self._R = R
        self._piv = piv

    def apply_P(self, c):
        c = np.asarray(c, dtype=float)
        return c - self._Q @ (self._Q.T @ c)

    def min_norm(self, b):
        """Minimum-norm solution of C'v = b."""
        z = sla.solve_triangular(self._R, b[self._piv], trans="T", lower=False)
        return self._Q @ z


class Feasibility:
    """Outcome of the feasible-set trichotomy.  An interior instance also
    carries gamma, b0 = P A n0 and n0'A n0, the last two from one A-apply."""

    __slots__ = ("tag", "n0", "gamma", "b0", "n0An0")

    def __init__(self, tag, n0, gamma=None, b0=None, n0An0=None):
        self.tag = tag
        self.n0 = n0
        self.gamma = gamma
        self.b0 = b0
        self.n0An0 = n0An0

    def __repr__(self):
        extra = "" if self.gamma is None else f", gamma={self.gamma:.6g}"
        return f"Feasibility({self.tag}{extra})"


def compute_n0(problem):
    """Minimum-norm solution of C'v = b, from the problem's factored C."""
    return problem.P.min_norm(problem.b)


def classify(problem):
    """Feasible-set trichotomy on ||n0||, with the boundary tolerance
    eps_f = 1e-12 (1 + ||b||)."""
    eps_f = 1e-12 * (1.0 + np.linalg.norm(problem.b))
    n0 = compute_n0(problem)
    nrm = np.linalg.norm(n0)
    if nrm > 1.0 + eps_f:
        return Feasibility(INFEASIBLE, n0)
    if abs(nrm - 1.0) <= eps_f:
        return Feasibility(UNIQUE_POINT, n0)
    gamma = float(np.sqrt(1.0 - nrm * nrm))
    An0 = problem.A.matvec(n0)
    b0 = problem.P.apply_P(An0)
    return Feasibility(INTERIOR, n0, gamma, b0, float(n0 @ An0))


def b0_zero_threshold(problem, feas):
    """Threshold under which b0 = P A n0 is treated as exactly zero."""
    return 1e-12 * problem.norm_a * np.linalg.norm(feas.n0)

