import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import crqopt
from crqopt import CrqProblem
from oracles import exact_qep_residual


@pytest.fixture
def small_example():
    """The 5x1 worked example used throughout: diagonal A, one constraint."""
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    C = np.array([0.65, 1.0, 0.68, 1.13, -0.23]).reshape(-1, 1)
    b = np.array([1.0])
    return CrqProblem(A, C, b)


@pytest.fixture
def qep_residuals(monkeypatch):
    """One entry per reduced solve of the solves a test runs: ``(exact
    residual, delta)`` of the qepmin check it served, the exact one taken
    while the check's Lanczos state is live (NaN after a breakdown, where
    it cannot be formed), or None if no QEP bound was read from it."""
    records = []
    reduced = crqopt.driver.solve_rlgopt
    bound = crqopt.driver.qep_residual_bound

    def solving(*args):
        records.append(None)
        return reduced(*args)

    def recording(state, red, norm_a, gamma, beta1):
        delta = bound(state, red, norm_a, gamma, beta1)
        records[-1] = (exact_qep_residual(state, red, norm_a, gamma, beta1), delta)
        return delta

    monkeypatch.setattr(crqopt.driver, "solve_rlgopt", solving)
    monkeypatch.setattr(crqopt.driver, "qep_residual_bound", recording)
    return records


def random_interior_problem(rng, n, m, target_n0=0.6, spread=1.0):
    """Random dense symmetric problem with an interior feasible set.

    b is rescaled so that ||n0|| hits ``target_n0`` exactly (n0 is
    linear in b); generic data keeps the instance in the generic
    (non-degenerate) case with probability one.
    """
    A = rng.standard_normal((n, n)) * spread
    A = 0.5 * (A + A.T)
    C = rng.standard_normal((n, m))
    b_raw = rng.standard_normal(m)
    n0_raw = np.linalg.pinv(C.T) @ b_raw
    b = b_raw * (target_n0 / np.linalg.norm(n0_raw))
    return CrqProblem(A, C, b)


def degenerate_problem(seed, n, m, zeta=0.9):
    """The degenerate benchmark pattern: bottom eigenvalue 1 with zero
    gradient weight, tail linspace(3, 100), and the stationary point at
    a random fill in [0.3, 0.7] of the feasible radius."""
    rng = np.random.default_rng(seed)
    nm = n - m
    h = np.concatenate([[1.0], np.linspace(3.0, 100.0, nm - 1)])
    gamma = np.sqrt(1.0 - zeta**2)
    fill = rng.uniform(0.3, 0.7)
    g_tail = rng.uniform(0.5, 1.5, nm - 1)
    w_norm = np.linalg.norm(g_tail / (h[1:] - 1.0))
    g0 = np.concatenate([[0.0], g_tail * (fill * gamma / w_norm)])
    return crqopt.embed(h, g0, zeta, m, rng)[0]


class BlockRecordingOperator(crqopt.SymmetricOperator):
    """Wraps an operator and records the shape of every block passed to
    its ``matmat``; vector applies go through ``matvec`` unrecorded."""

    def __init__(self, op):
        super().__init__(op.n)
        self.op = op
        self.blocks = []

    def matvec(self, x):
        return self.op.matvec(x)

    def matmat(self, X):
        self.blocks.append(X.shape)
        return self.op.matmat(X)


def breakdown_probe(seed, spread, n=200, m=4):
    """An instance whose Krylov space closes at rounding level near step 11.

    A = Q diag(d) Q' with d taking the values 1, 2 and 5 (66, 66 and 68
    times) plus ``spread`` N(0, 1), Q orthogonal and C, b random.  Over
    seeds 0-5 and spreads 0, 1e-14 and 1e-13 the main run mostly breaks
    down at step 11 with beta_{k+1}/||A|| between 1e-12 and 3.1e-11:
    below the breakdown threshold eps^(2/3), and far above the default
    tol.  b0 is orthogonal to every eigenvector of A in null(C'), so the
    instance is a hard case, which detection decides at that step.
    """
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.repeat([1.0, 2.0, 5.0], [66, 66, 68]) + spread * rng.standard_normal(n)
    A = Q @ np.diag(d) @ Q.T
    A = 0.5 * (A + A.T)
    C = rng.standard_normal((n, m))
    b = 0.1 * rng.standard_normal(m)
    return CrqProblem(A, C, b)
