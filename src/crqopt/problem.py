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

C is held as given, dense or sparse; a sparse C stays sparse (CSC).  A
column with a single nonzero, c_j e_i, is a coordinate column: a label
constraint of the clustering pipeline is one.  Such columns span
coordinate directions, which are orthogonal to every vector that is zero
on their rows, so ``ProjectedOperator`` applies them by zeroing those
rows and factors only the other columns.  A label problem then needs
O(n + nnz(C)) memory, however many labels it has.
"""

from dataclasses import dataclass

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
    dense or sparse, with 0 < m < n columns of full rank; a dense C is
    kept as a float64 array, a sparse one as a float64 CSC matrix with
    no stored zeros.  C is factored once, into the ``ProjectedOperator``
    ``P``, which checks the rank and backs n0 and every projection.
    """

    def __init__(self, A, C, b):
        if sp.issparse(C):
            C = sp.csc_array(C, dtype=float, copy=True)
            C.sum_duplicates()
            C.eliminate_zeros()
        else:
            C = np.atleast_2d(np.asarray(C, dtype=float))
            if C.shape[0] == 1 and C.shape[1] > 1:
                C = C.T
        self.C = C
        self.n, self.m = C.shape
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
        self.P = ProjectedOperator(C)
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

    @property
    def constraints_nbytes(self):
        """Bytes held by C and by the arrays of its factorization ``P``."""
        C = self.C
        held = C.data.nbytes + C.indices.nbytes + C.indptr.nbytes if sp.issparse(C) else C.nbytes
        return held + self.P.nbytes


def _coordinate_columns(C):
    """The coordinate columns of C, as ``(cols, rows, entries)``: every
    column with exactly one nonzero, C[:, j] = c_j e_i, taken greedily in
    column order so that no two share a row.  ``C`` is a dense array or a
    CSC matrix without stored zeros."""
    if sp.issparse(C):
        cols = np.flatnonzero(np.diff(C.indptr) == 1)
        rows = C.indices[C.indptr[cols]].astype(np.intp)
        entries = C.data[C.indptr[cols]]
    else:
        cols = np.flatnonzero(np.count_nonzero(C, axis=0) == 1)
        rows = np.argmax(C[:, cols] != 0.0, axis=0)
        entries = C[rows, cols]
    _, first = np.unique(rows, return_index=True)
    first.sort()
    return cols[first], rows[first], entries[first]


def _dense_columns(C, cols):
    """C[:, cols] as a dense array; C itself when it is dense and cols
    are all its columns."""
    if not sp.issparse(C):
        return C if cols.size == C.shape[1] else C[:, cols]
    G = np.zeros((C.shape[0], cols.size))
    for k, j in enumerate(cols):
        entries = slice(C.indptr[j], C.indptr[j + 1])
        G[C.indices[entries], k] = C.data[entries]
    return G


class ProjectedOperator:
    """The factorization of an n x m constraint matrix C (0 < m < n) and
    what is read from it: the projector P = I - C C^+ and the
    minimum-norm solution of C'v = b.

    C splits into its coordinate columns c_j e_i (``_coordinate_columns``;
    rows L) and the g others, G.  span{e_i : i in L} is orthogonal to
    every vector that is zero on L, so range(C) is that span plus
    range(G~), with G~ = G with its L rows zeroed, and the two parts are
    orthogonal.  G~ is factored by a column-pivoted QR on the rows off L,
    G~[:, piv] = Q R, never through the normal equations; Q is n x g with
    exact zeros on L.  C is rejected when a coordinate entry or a |R_ii|
    is at most max(n, m) eps times the largest of them: a column of G
    supported on L alone, or two coordinate columns on one row, leave
    G~ a zero column.  P c is c - Q(Q'c) with its L rows zeroed, for a
    vector or an n x k block.  A C with no coordinate column has L empty
    and G~ = C, and runs the same code: P c is c - Q(Q'c) of C's own
    pivoted QR.  A label C (one coordinate column per label pixel and
    the balance column sqrt(d)) has g = 1: its P-apply costs O(n) and
    its factor one n-vector.
    The Lanczos runs on M = P A P apply A and then P themselves, so M is
    never applied as a whole.
    """

    def __init__(self, C):
        n, m = C.shape
        cols, rows, entries = _coordinate_columns(C)
        rest = np.setdiff1d(np.arange(m), cols)
        G = _dense_columns(C, rest)
        G_L = G[rows]
        # n - |L| > m - |L| = g rows remain, since m < n
        off = np.ones(n, dtype=bool)
        off[rows] = False
        Q_off, R, piv = sla.qr(G[off], mode="economic", pivoting=True)
        # Fortran order, as LAPACK returns Q: the products with it keep
        # their BLAS layout whether or not C has coordinate columns
        Q = np.zeros((n, rest.size), order="F")
        Q[off] = Q_off
        diag = np.concatenate([np.abs(np.diag(R)), np.abs(entries)])
        tol = max(n, m) * np.finfo(float).eps * diag.max()
        if np.any(diag <= tol):
            raise RankDeficientError(
                f"C has numerical rank < m = {m} (|R_ii| floor {diag.min():.3e})")
        self._Q = Q
        self._R = R
        self._piv = piv
        self._rest = rest
        self._cols = cols
        self._rows = rows
        self._entries = entries
        self._G_L = G_L

    @property
    def nbytes(self):
        """Bytes held by the factorization's arrays."""
        return sum(a.nbytes for a in (self._Q, self._R, self._piv, self._rest, self._cols,
                                      self._rows, self._entries, self._G_L))

    def apply_P(self, c):
        # np.dot, not @: numpy's matmul runs a non-BLAS loop for a one-column Q
        c = np.asarray(c, dtype=float)
        out = c - np.dot(self._Q, np.dot(self._Q.T, c))
        out[self._rows] = 0.0
        return out

    def min_norm(self, b):
        """Minimum-norm solution of C'v = b: v_i = b_j / c_j on the
        coordinate rows, and the minimum-norm solution of
        G~'w = b_G - G_L' v_L, in range(G~), off them."""
        v_L = b[self._cols] / self._entries
        rhs = b[self._rest] - np.dot(self._G_L.T, v_L)
        z = sla.solve_triangular(self._R, rhs[self._piv], trans="T", lower=False)
        v = np.dot(self._Q, z)
        v[self._rows] = v_L
        return v


@dataclass
class Feasibility:
    """Outcome of the feasible-set trichotomy.  An interior instance also
    carries gamma, b0 = P A n0 and n0'A n0, the last two from one A-apply."""

    tag: str
    n0: np.ndarray
    gamma: float = None
    b0: np.ndarray = None
    n0An0: float = None


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

