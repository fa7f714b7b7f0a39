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
    """``(exact residual, delta)`` at every qepmin check of the solves a
    test runs, the exact one taken while the check's Lanczos state is live."""
    records = []
    bound = crqopt.driver.qep_residual_bound

    def recording(state, sol, norm_a, gamma, beta1):
        delta = bound(state, sol, norm_a, gamma, beta1)
        records.append((exact_qep_residual(state, sol, norm_a, gamma, beta1), delta))
        return delta

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
