"""Symmetric linear operators applied without forming matrices.

Everything downstream (Lanczos, projections, the clustering pipeline)
talks to matrices through this thin wrapper so that dense arrays, sparse
matrices and matrix-free ``SymmetricOperator`` subclasses are
interchangeable.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .lanczos import run

_NORM_SEED = 0x5EED
_NORM_STEPS = 20
# an explicit matrix is symmetric when max |A - A'| <= _SYM_TOL max |A|
_SYM_TOL = 1e-8


class SymmetricOperator:
    """Action of a symmetric matrix, applied to vectors or column blocks.

    A subclass is symmetric by contract, and nothing checks it.
    A subclass whose norm has a known rigorous bound sets ``norm_bound``;
    ``CrqProblem.norm_a`` then takes it instead of an estimate.

    ``unit_roundoff`` is the relative rounding u of one apply: the
    computed A x is A x + e with ||e|| of order u ||A|| ||x||.  It is
    float64 eps unless the subclass computes in a lower precision, as the
    raster Laplacian on a float32 weight store does (float32 eps).  The
    Lanczos run sizes its orthogonality control by it, and ``solve``
    refuses a tolerance below the floor ``driver.tol_floor`` it sets.
    """

    norm_bound = None
    unit_roundoff = float(np.finfo(float).eps)

    def __init__(self, n):
        self.n = int(n)

    def matvec(self, x):
        raise NotImplementedError

    def matmat(self, X):
        out = np.empty_like(X, dtype=float)
        for j in range(X.shape[1]):
            out[:, j] = self.matvec(X[:, j])
        return out

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.matvec(x)
        return self.matmat(x)


class _MatrixOperator(SymmetricOperator):
    def __init__(self, mat):
        super().__init__(mat.shape[0])
        # entry by entry against the transpose: O(nnz), no apply
        gap = abs(mat - mat.T).max()
        if gap > _SYM_TOL * abs(mat).max():
            raise ValueError(f"A is not symmetric: max |A - A'| = {gap:.3e}")
        self.mat = mat

    def matvec(self, x):
        return np.asarray(self.mat @ x, dtype=float).reshape(-1)

    def matmat(self, X):
        return np.asarray(self.mat @ X, dtype=float)


def as_operator(A):
    """Wrap ``A`` (array, sparse matrix or operator) as a
    SymmetricOperator; a matrix is checked for symmetry."""
    if isinstance(A, SymmetricOperator):
        return A
    if sp.issparse(A):
        if A.shape[0] != A.shape[1]:
            raise ValueError("operator must be square")
        return _MatrixOperator(A.tocsr())
    if callable(A):
        raise TypeError("a matrix-free A must be a SymmetricOperator subclass, not a callable")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be a square matrix")
    return _MatrixOperator(A)


def norm_estimate(op):
    """Estimate ||A||_2 by a short Lanczos run with a fixed seeded start.

    The run is ``lanczos.run`` on A itself, and the estimate the largest
    |Ritz value| of its tridiagonal.  It is a lower bound on the true norm
    that is typically accurate to several digits after its 20 steps; it
    only feeds residual normalizations and tolerances, never the math
    itself.
    """
    start = np.random.default_rng(_NORM_SEED).standard_normal(op.n)
    state = run(op, start, min(_NORM_STEPS, op.n))
    return float(np.max(np.abs(sla.eigvalsh_tridiagonal(*state.tridiagonal()))))
