"""Symmetric linear operators applied without forming matrices.

Everything downstream (Lanczos, projections, the clustering pipeline)
talks to matrices through this thin wrapper so that dense arrays, sparse
matrices and matrix-free callables are interchangeable.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .lanczos import run

_NORM_SEED = 0x5EED


class SymmetricOperator:
    """Action of a symmetric matrix, applied to vectors or column blocks."""

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

    def __call__(self, x):
        return self.apply(x)


class _MatrixOperator(SymmetricOperator):
    def __init__(self, mat):
        super().__init__(mat.shape[0])
        self.mat = mat

    def matvec(self, x):
        return np.asarray(self.mat @ x, dtype=float).reshape(-1)

    def matmat(self, X):
        return np.asarray(self.mat @ X, dtype=float)


class _CallableOperator(SymmetricOperator):
    def __init__(self, fn, n):
        super().__init__(n)
        self.fn = fn

    def matvec(self, x):
        return np.asarray(self.fn(x), dtype=float).reshape(-1)


def as_operator(A, n=None):
    """Wrap ``A`` (array, sparse matrix, callable or operator) as a SymmetricOperator."""
    if isinstance(A, SymmetricOperator):
        return A
    if sp.issparse(A):
        if A.shape[0] != A.shape[1]:
            raise ValueError("operator must be square")
        return _MatrixOperator(A.tocsr())
    if callable(A):
        if n is None:
            raise ValueError("callable operator needs an explicit dimension n")
        return _CallableOperator(A, n)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be a square matrix")
    return _MatrixOperator(A)


def norm_estimate(op, iters=20, seed=_NORM_SEED):
    """Estimate ||A||_2 by a short Lanczos run with a fixed seeded start.

    The run is ``lanczos.run`` on A itself, and the estimate the largest
    |Ritz value| of its tridiagonal.  It is a lower bound on the true norm
    that is typically accurate to several digits after ``iters`` steps; it
    only feeds residual normalizations and tolerances, never the math
    itself.
    """
    start = np.random.default_rng(seed).standard_normal(op.n)
    state = run(op, start, min(iters, op.n))
    return float(np.max(np.abs(sla.eigvalsh_tridiagonal(*state.tridiagonal()))))
