import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_interior_problem
from oracles import DenseQrProjector, circle_min_objective, dense_projector, pinv_min_norm

import crqopt
from crqopt import CrqProblem, classify, compute_n0, resolve_b0_zero
from crqopt.clustering import LabelSet, build_graph, encode_constraints
from crqopt.errors import RankDeficientError
from crqopt.problem import INFEASIBLE, INTERIOR, UNIQUE_POINT, b0_zero_threshold


def test_n0_orthonormal_column():
    p = CrqProblem(np.eye(2), np.array([[1.0], [0.0]]), [1.0])
    assert np.allclose(compute_n0(p), [1.0, 0.0], atol=1e-15)


def test_n0_scaled_column():
    p = CrqProblem(np.eye(2), np.array([[2.0], [0.0]]), [1.0])
    assert np.allclose(compute_n0(p), [0.5, 0.0], atol=1e-15)


def test_n0_matches_pinv_oracle(small_example):
    n0 = compute_n0(small_example)
    oracle = pinv_min_norm(small_example.C, small_example.b)
    assert np.linalg.norm(n0 - oracle) <= 1e-14
    # for a single column the minimum-norm solution is C / ||C||^2
    assert np.allclose(n0, small_example.C[:, 0] / (small_example.C[:, 0] @ small_example.C[:, 0]))


def test_apply_p_kills_range_vectors():
    rng = np.random.default_rng(0)
    C = rng.standard_normal((6, 2))
    p = CrqProblem(np.eye(6), C, [0.1, 0.1])
    c = C @ rng.standard_normal(2)
    assert np.linalg.norm(p.P.apply_P(c)) <= 1e-12 * np.linalg.norm(c)


def test_apply_p_fixes_orthogonal_vectors():
    rng = np.random.default_rng(1)
    C = rng.standard_normal((6, 2))
    p = CrqProblem(np.eye(6), C, [0.1, 0.1])
    c_perp = dense_projector(C) @ rng.standard_normal(6)
    assert np.allclose(p.P.apply_P(c_perp), c_perp, atol=1e-12)


def test_apply_p_matches_dense_projector():
    rng = np.random.default_rng(2)
    C = rng.standard_normal((6, 2))
    p = CrqProblem(np.eye(6), C, [0.1, 0.1])
    c = rng.standard_normal(6)
    assert np.linalg.norm(p.P.apply_P(c) - dense_projector(C) @ c) <= 1e-12


def test_apply_p_idempotent_and_annihilates_c():
    rng = np.random.default_rng(3)
    C = rng.standard_normal((40, 5))
    p = CrqProblem(np.eye(40), C, np.zeros(5) + 0.01)
    c = rng.standard_normal(40)
    pc = p.P.apply_P(c)
    assert np.linalg.norm(p.P.apply_P(pc) - pc) <= 1e-12 * np.linalg.norm(c)
    assert np.linalg.norm(p.P.apply_P(C)) <= 1e-12 * np.linalg.norm(C)


def test_classify_infeasible():
    p = CrqProblem(np.eye(2), np.array([[1.0], [0.0]]), [2.0])
    assert classify(p).tag == INFEASIBLE


def test_classify_unique_point():
    p = CrqProblem(np.eye(2), np.array([[1.0], [0.0]]), [1.0])
    feas = classify(p)
    assert feas.tag == UNIQUE_POINT
    assert np.allclose(feas.n0, [1.0, 0.0])


def test_classify_interior_gamma_from_zeta():
    spec = crqopt.InstanceSpec(n=40, m=4, alpha=1.0, beta=10.0, zeta=0.9, rng_seed=5)
    prob, _ = crqopt.generate(spec)
    feas = classify(prob)
    assert feas.tag == INTERIOR
    assert abs(feas.gamma - np.sqrt(0.19)) <= 1e-12


def test_interior_identities():
    rng = np.random.default_rng(7)
    p = random_interior_problem(rng, 30, 4)
    feas = classify(p)
    assert feas.tag == INTERIOR
    assert abs(np.linalg.norm(feas.n0) ** 2 + feas.gamma**2 - 1.0) <= 1e-14
    assert np.linalg.norm(p.P.apply_P(feas.b0) - feas.b0) <= 1e-12 * np.linalg.norm(feas.b0)
    assert np.linalg.norm(p.C.T @ feas.b0) <= 1e-10 * np.linalg.norm(p.C) * np.linalg.norm(feas.b0)


def test_rank_deficient_rejected():
    C = np.zeros((5, 2))
    C[:, 0] = 1.0
    C[:, 1] = 2.0
    with pytest.raises(RankDeficientError):
        CrqProblem(np.eye(5), C, [1.0, 2.0])


def test_asymmetric_rejected():
    # an explicit matrix, dense or sparse, is checked against its
    # transpose; a matrix-free A is a SymmetricOperator subclass, so a
    # bare callable is refused unchecked
    A = np.triu(np.ones((4, 4)))
    for given in (A, sp.csr_matrix(A)):
        with pytest.raises(ValueError, match="symmetr"):
            CrqProblem(given, np.eye(4)[:, :1], [0.5])
    with pytest.raises(TypeError, match="SymmetricOperator"):
        CrqProblem(lambda x: A @ x, np.eye(4)[:, :1], [0.5])


def test_no_constraints_rejected():
    with pytest.raises(ValueError, match="at least one constraint"):
        CrqProblem(np.eye(5), np.zeros((5, 0)), [])


def test_constraints_factored_once(monkeypatch):
    # C is factored once, at construction, into the problem's P; every
    # solve path reads it from there
    built = []
    init = crqopt.ProjectedOperator.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(crqopt.ProjectedOperator, "__init__", counting)
    p = random_interior_problem(np.random.default_rng(10), 30, 3)
    assert len(built) == 1
    feas = classify(p)
    for detect in (True, False):
        crqopt.solve(p, crqopt.SolveOptions(detect_hard=detect))
    crqopt.direct_solve(p)
    crqopt.driver.crq_solution(p, feas.n0, 0.0, crqopt.EASY, feas.n0)
    assert len(built) == 1


def _recording(monkeypatch, cls, names):
    """Record the shape of every argument to ``cls``'s methods ``names``."""
    shapes = []
    for name in names:
        method = getattr(cls, name)

        def recording(self, x, method=method):
            shapes.append(x.shape)
            return method(self, x)

        monkeypatch.setattr(cls, name, recording)
    return shapes


def test_roundoff_asymmetry_accepted():
    # a matrix symmetric up to roundoff passes the entrywise check
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = (Q * rng.uniform(-3.0, 3.0, 20)) @ Q.T
    assert np.abs(A - A.T).max() > 0.0
    for given in (A, sp.csr_matrix(A)):
        CrqProblem(given, np.eye(20)[:, :1], [0.5])


class _DenseOperator(crqopt.SymmetricOperator):
    def __init__(self, mat):
        super().__init__(mat.shape[0])
        self.mat = mat

    def matvec(self, x):
        return self.mat @ x


@pytest.mark.parametrize("kind", ["dense", "csr", "operator"])
def test_construction_applies_no_a(monkeypatch, kind):
    # an explicit matrix is checked against its transpose and an operator
    # is symmetric by contract: neither is applied at construction
    rng = np.random.default_rng(9)
    A = rng.standard_normal((30, 30))
    S = A + A.T
    if kind == "operator":
        given, cls = _DenseOperator(S), _DenseOperator
    else:
        given, cls = (S if kind == "dense" else sp.csr_matrix(S)), crqopt.operators._MatrixOperator
    applies = _recording(monkeypatch, cls, ["matvec", "matmat"])
    p = CrqProblem(given, rng.standard_normal((30, 2)), [0.1, 0.1])
    assert applies == []
    # the counter sees the applies that do run: classify's one A n0
    classify(p)
    assert applies == [(30,)]


def test_b0_zero_scaled_identity():
    # A = -I: every feasible point has objective -1
    p = CrqProblem(-np.eye(3), np.eye(3)[:, :1], [0.6])
    feas = classify(p)
    assert np.linalg.norm(feas.b0) <= b0_zero_threshold(p, feas)
    sol = resolve_b0_zero(p, feas, rng=0)
    assert sol is not None and sol.case == crqopt.B0_ZERO
    assert abs(sol.objective + 1.0) <= 1e-12
    assert abs(sol.mu + 1.0) <= 1e-10
    assert np.linalg.norm(p.C.T @ sol.v - p.b) <= 1e-12
    assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-12


def test_b0_zero_matches_circle_oracle():
    A = np.diag([-2.0, 0.0, 0.0])
    p = CrqProblem(A, np.eye(3)[:, :1], [0.6])
    feas = classify(p)
    sol = resolve_b0_zero(p, feas, rng=1)
    assert sol is not None
    S1 = np.eye(3)[:, 1:]
    oracle = circle_min_objective(A, feas.n0, feas.gamma, S1)
    assert abs(sol.objective - oracle) <= 1e-9


def test_b0_zero_zero_matrix():
    p = CrqProblem(np.zeros((3, 3)), np.eye(3)[:, :1], [0.6])
    feas = classify(p)
    sol = resolve_b0_zero(p, feas, rng=2)
    assert sol is not None
    assert abs(sol.objective) <= 1e-12
    assert np.linalg.norm(p.C.T @ sol.v - p.b) <= 1e-12
    assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-12


def test_b0_zero_reports_unconverged_eigensolve(monkeypatch):
    # b0 = 0 by construction: zero gradient weight on every reduced mode
    p, _ = crqopt.embed(np.linspace(1.0, 10.0, 60), np.zeros(60), 0.9, 3,
                        np.random.default_rng(0))
    with monkeypatch.context() as patch:
        patch.setattr(crqopt.driver, "EIG_MAXIT", 3)
        with pytest.raises(crqopt.NotConvergedError, match="EIG_TOL") as err:
            crqopt.solve(p, crqopt.SolveOptions())
    assert err.value.solution.case == crqopt.B0_ZERO and err.value.solution.k == 3
    full = crqopt.solve(p, crqopt.SolveOptions())
    assert full.case == crqopt.B0_ZERO
    assert abs(full.mu - 1.0) <= 1e-8
    # v = n0 + gamma z/||z||, with z's Ritz residual below EIG_TOL ||A||
    assert full.residual <= 1e-8 * p.norm_a


def test_b0_nonzero_returns_none(small_example):
    feas = classify(small_example)
    assert resolve_b0_zero(small_example, feas, rng=0) is None


def test_solver_outputs_feasible():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = random_interior_problem(rng, 25, 3)
        sol = crqopt.solve(p, crqopt.SolveOptions(tol=1e-12, maxit=50))
        assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-10
        scale = np.linalg.norm(p.C) + np.linalg.norm(p.b)
        assert np.linalg.norm(p.C.T @ sol.v - p.b) <= 1e-10 * scale


def _assert_projector_agrees(problem, oracle, c, tol=1e-12):
    """P c (for a vector and a block) and n0 of ``problem`` against the
    dense QR ``oracle`` to ``tol`` relative, and C'Pc = 0 to ``tol``."""
    C = problem.C.toarray() if sp.issparse(problem.C) else problem.C
    norm_c = np.linalg.norm(C, 2)
    for given_c in (c, np.column_stack([c, c[::-1]])):
        Pc = problem.P.apply_P(given_c)
        assert np.linalg.norm(Pc - oracle.apply_P(given_c)) <= tol * np.linalg.norm(given_c)
        assert np.linalg.norm(C.T @ Pc) <= tol * norm_c * np.linalg.norm(given_c)
    n0, reference = compute_n0(problem), oracle.min_norm(problem.b)
    assert np.linalg.norm(n0 - reference) <= tol * np.linalg.norm(reference)


@settings(max_examples=80, deadline=None)
@given(side=st.integers(8, 32), foreground=st.integers(1, 40), background=st.integers(1, 40),
       balance=st.booleans(), raster=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_split_projector_agrees_with_a_dense_qr_of_the_label_constraints(
        side, foreground, background, balance, raster, seed):
    # the label columns e_i / sqrt(d_i) are split off C; P and n0 from the
    # split must be those of one pivoted QR of the whole dense C, whether C
    # comes sparse or dense, with or without the balance column sqrt(d)
    rng = np.random.default_rng(seed)
    n = side * side
    foreground, background = min(foreground, n // 4), min(background, n // 4)
    if raster:
        degrees = build_graph(rng.uniform(0.0, 255.0, (side, side)), 0.1, 2).degrees
    else:
        degrees = rng.uniform(0.05, 50.0, n)
    pixels = rng.permutation(n)[:foreground + background]
    C, b = encode_constraints(degrees, LabelSet(pixels[:foreground], pixels[foreground:]))
    if not balance:
        C, b = C[:, :-1], b[:-1]
    oracle = DenseQrProjector(C)
    c = rng.standard_normal(n)
    for given_C in (C, C.toarray()):
        problem = CrqProblem(sp.eye(n, format="csr"), given_C, b)
        _assert_projector_agrees(problem, oracle, c)


@pytest.mark.parametrize("n, m", [(6, 2), (40, 5), (300, 30)])
@pytest.mark.parametrize("sparse", [False, True])
def test_a_c_without_coordinate_columns_runs_a_qr_of_the_whole_c(n, m, sparse):
    # no column of a Gaussian C has a single nonzero, so nothing is split
    # off and P and n0 are the dense pivoted QR's to the bit; a sparse C
    # (here with a third of its entries zero) factors its dense copy
    rng = np.random.default_rng(n + m)
    C = rng.standard_normal((n, m))
    if sparse:
        C[rng.uniform(size=C.shape) < 1.0 / 3.0] = 0.0
        assert np.all(np.count_nonzero(C, axis=0) > 1)
        C = sp.csr_matrix(C)
    b = 0.1 * rng.standard_normal(m)
    problem, oracle = CrqProblem(np.eye(n), C, b), DenseQrProjector(C)
    for c in (rng.standard_normal(n), rng.standard_normal((n, 2))):
        assert np.array_equal(problem.P.apply_P(c), oracle.apply_P(c))
    assert np.array_equal(compute_n0(problem), oracle.min_norm(b))


def test_coordinate_columns_beside_several_dense_columns():
    # g = 3 dense columns beside 5 coordinate columns, one of them a
    # repeated row that stays with the dense ones
    rng = np.random.default_rng(5)
    n = 50
    rows = [3, 17, 30, 41, 8]
    C = np.zeros((n, 9))
    C[:, [1, 4, 7]] = rng.standard_normal((n, 3))
    for j, i in zip([0, 2, 3, 5, 6], rows):
        C[i, j] = rng.uniform(0.5, 2.0)
    C[30, 8] = 1.5
    C[12, 8] = -0.5
    problem = CrqProblem(np.eye(n), C, 0.05 * rng.standard_normal(9))
    assert problem.P._rows.tolist() == rows and problem.P._Q.shape == (n, 4)
    _assert_projector_agrees(problem, DenseQrProjector(C), rng.standard_normal(n))


def _label_columns_and(extra):
    """Two label columns (rows 3 and 10), the balance column and ``extra``."""
    n = 64
    d = np.linspace(1.0, 4.0, n)
    C = np.zeros((n, 4))
    C[3, 0], C[10, 1] = 1.0 / np.sqrt(d[3]), 1.0 / np.sqrt(d[10])
    C[:, 2] = np.sqrt(d)
    C[:, 3] = extra
    return C


@pytest.mark.parametrize("case", ["two_on_one_row", "tiny_entry", "labelled_rows_only"])
def test_split_rejects_what_the_dense_qr_rejects(case):
    extra = np.zeros(64)
    if case == "two_on_one_row":
        extra[3] = 2.0
    elif case == "tiny_entry":
        extra[20] = 1e-20
    else:
        extra[[3, 10]] = 1.0
    C = _label_columns_and(extra)
    with pytest.raises(RankDeficientError):
        DenseQrProjector(C)
    for given in (C, sp.csc_array(C)):
        with pytest.raises(RankDeficientError):
            CrqProblem(np.eye(64), given, np.zeros(4))


def test_a_sparse_c_stays_sparse():
    # a label problem holds C as CSC and factors one n-vector beside it
    degrees = np.random.default_rng(1).uniform(1.0, 8.0, 400)
    C, b = encode_constraints(degrees, LabelSet(np.arange(0, 40), np.arange(200, 240)))
    problem = CrqProblem(sp.eye(400, format="csr"), C, b)
    assert sp.issparse(problem.C) and problem.C.format == "csc" and problem.C.nnz == 480
    assert problem.P._Q.shape == (400, 1)
    # C: 480 values and row indices, 82 column pointers; the projector:
    # its n-vector Q, and for each of the 80 label columns its index, row,
    # entry and the balance column's entry on that row
    assert problem.constraints_nbytes <= 480 * 12 + 82 * 4 + 400 * 8 + 80 * 32 + 32
