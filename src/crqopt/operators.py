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
_NORM_STEPS = 20
# an explicit matrix is symmetric when max |A - A'| <= _SYM_TOL max |A|, a
# callable when |x'Ay - y'Ax| <= _SYM_TOL (|Ax||y| + |Ay||x|) on each of
# _SYM_PROBES random pairs
_SYM_TOL = 1e-8
_SYM_PROBES = 3


class SymmetricOperator:
    """Action of a symmetric matrix, applied to vectors or column blocks.

    A subclass is symmetric by contract, and nothing checks it.
    A subclass whose norm has a known rigorous bound sets ``norm_bound``;
    ``CrqProblem.norm_a`` then takes it instead of an estimate.
    """

    norm_bound = None

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


class _CallableOperator(SymmetricOperator):
    def __init__(self, fn, n):
        super().__init__(n)
        self.fn = fn
        # one n x 2 block per probe pair (x_i, y_i), drawn in order from its
        # own generator; y'Ax = x'Ay is checked for each pair
        rng = np.random.default_rng(12345)
        for _ in range(_SYM_PROBES):
            X = rng.standard_normal((2, self.n)).T
            AX = self.apply(X)
            x, y, Ax, Ay = X[:, 0], X[:, 1], AX[:, 0], AX[:, 1]
            scale = np.linalg.norm(Ax) * np.linalg.norm(y) + np.linalg.norm(Ay) * np.linalg.norm(x)
            if abs(x @ Ay - y @ Ax) > _SYM_TOL * max(scale, 1e-300):
                raise ValueError("A fails the symmetry spot check")

    def matvec(self, x):
        return np.asarray(self.fn(x), dtype=float).reshape(-1)


def as_operator(A, n=None):
    """Wrap ``A`` (array, sparse matrix, callable or operator) as a
    SymmetricOperator; a matrix or a callable is checked for symmetry."""
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
