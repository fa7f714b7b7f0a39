import numpy as np
import pytest
import scipy.linalg as sla

from conftest import random_interior_problem
from oracles import dense_projector

import crqopt
from crqopt import classify
from crqopt.errors import ZeroStartError
from crqopt.lanczos import BROKE_DOWN, lanczos_init, lanczos_step, run, smallest_eigenpair


def _projected(problem):
    return problem.projected_operator()


def test_init_unit_start():
    rng = np.random.default_rng(0)
    p = random_interior_problem(rng, 8, 2)
    op = _projected(p)
    b0 = op.apply_P(np.eye(8)[:, 0])
    state = lanczos_init(op, b0)
    assert np.allclose(state.q(1), b0 / np.linalg.norm(b0))
    assert state.beta[0] == pytest.approx(np.linalg.norm(b0))


def test_init_records_start_norm():
    rng = np.random.default_rng(1)
    p = random_interior_problem(rng, 8, 2)
    op = _projected(p)
    b0 = 2.0 * op.apply_P(np.eye(8)[:, 1])
    state = lanczos_init(op, b0)
    assert state.beta[0] == pytest.approx(np.linalg.norm(b0))
    assert np.linalg.norm(state.q(1)) == pytest.approx(1.0)


def test_init_small_example_start(small_example):
    feas = classify(small_example)
    state = lanczos_init(_projected(small_example), feas.b0)
    assert np.allclose(state.q(1), feas.b0 / np.linalg.norm(feas.b0), atol=1e-15)


def test_zero_start_rejected(small_example):
    with pytest.raises(ZeroStartError):
        lanczos_init(_projected(small_example), np.zeros(5))


def test_identity_breaks_down_immediately():
    # A = I: the projected operator acts as the identity on null(C'),
    # so the Krylov space is one-dimensional
    rng = np.random.default_rng(2)
    C = rng.standard_normal((6, 2))
    p = crqopt.CrqProblem(np.eye(6), C, 0.1 * np.ones(2))
    op = _projected(p)
    b0 = op.apply_P(rng.standard_normal(6))
    state = lanczos_init(op, b0, norm_scale=1.0)
    assert lanczos_step(state) == BROKE_DOWN
    assert state.alpha[0] == pytest.approx(1.0)
    assert state.beta[1] <= state.breakdown_tol


def test_tridiagonal_matches_dense_gram(small_example):
    feas = classify(small_example)
    op = _projected(small_example)
    state = run(op, feas.b0, 2, norm_scale=small_example.norm_a)
    P = dense_projector(small_example.C)
    M = P @ np.diag([1.0, 2, 3, 4, 5]) @ P
    Q = state.basis(2)
    T_oracle = Q.T @ M @ Q
    assert np.linalg.norm(state.tridiagonal_matrix(2) - T_oracle) <= 1e-12


def test_compact_relation_and_nullspace_small():
    rng = np.random.default_rng(3)
    p = random_interior_problem(rng, 30, 4)
    feas = classify(p)
    op = _projected(p)
    state = run(op, feas.b0, 12, norm_scale=p.norm_a)
    k = state.k
    Q = state.basis(k)
    # orthonormality
    G = Q.T @ Q - np.eye(k)
    assert np.max(np.abs(G)) <= 1e-12
    # basis stays in null(C')
    assert np.linalg.norm(p.C.T @ Q) <= 1e-10 * np.linalg.norm(p.C)
    # M Q_k = Q_k T_k + beta_{k+1} q_{k+1} e_k'
    Adense = p.A.apply(np.eye(30))
    P = dense_projector(p.C)
    M = P @ Adense @ P
    lhs = M @ Q
    rhs = Q @ state.tridiagonal_matrix(k)
    rhs[:, -1] += state.beta[k] * state.q(k + 1)
    assert np.max(np.linalg.norm(lhs - rhs, axis=0)) <= 1e-10 * p.norm_a
    # T_k equals the projected Gram matrix
    assert np.linalg.norm(state.tridiagonal_matrix(k) - Q.T @ M @ Q) <= 1e-10 * p.norm_a


def test_krylov_span_matches_power_basis():
    rng = np.random.default_rng(4)
    p = random_interior_problem(rng, 20, 3)
    feas = classify(p)
    state = run(_projected(p), feas.b0, 6, norm_scale=p.norm_a)
    P = dense_projector(p.C)
    M = P @ p.A.apply(np.eye(20)) @ P
    cols = [feas.b0]
    for _ in range(5):
        cols.append(M @ cols[-1])
    K = np.column_stack(cols)
    angles = sla.subspace_angles(state.basis(6), K)
    assert np.max(angles) <= 1e-8


def test_smallest_eigenpair_matches_dense():
    rng = np.random.default_rng(5)
    p = random_interior_problem(rng, 24, 3)
    op = _projected(p)
    start = op.apply_P(rng.standard_normal(24))
    theta, z, info = smallest_eigenpair(op, start, tol=1e-12, norm_scale=p.norm_a)
    # dense comparison on the reduced block
    red = crqopt.build_reduction(p)
    assert info["converged"]
    assert theta == pytest.approx(red.theta[0], abs=1e-9 * max(1, abs(red.theta[0])))
    # eigenvector residual in the full space
    resid = op.matvec(z, in_nullspace=True) - theta * z
    assert np.linalg.norm(resid) <= 1e-7 * p.norm_a


def test_long_run_compact_relation_large_instance():
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=7)
    prob, truth = crqopt.generate(spec)
    feas = classify(prob)
    state = run(prob.projected_operator(), feas.b0, 200, norm_scale=prob.norm_a)
    assert state.k == 200 and not state.broke_down
    k = state.k
    Q = state.basis(k)
    MQ = prob.projected_operator().matmat(Q)
    R = MQ - Q @ state.tridiagonal_matrix(k)
    R[:, -1] -= state.beta[k] * state.q(k + 1)
    assert np.max(np.linalg.norm(R, axis=0)) <= 1e-8
    assert np.max(np.abs(Q.T @ Q - np.eye(k))) <= 1e-10


def test_basis_store_is_row_per_vector_and_preallocated():
    rng = np.random.default_rng(6)
    p = random_interior_problem(rng, 40, 3)
    feas = classify(p)
    maxit = 9
    state = lanczos_init(_projected(p), feas.b0, norm_scale=p.norm_a, maxit=maxit)
    store = state._Q
    assert store.shape == (maxit + 1, 40)
    for _ in range(maxit):
        assert lanczos_step(state) != BROKE_DOWN
        assert state._Q is store
    assert state.k == maxit
    for j in range(1, maxit + 2):
        assert state.q(j).flags.c_contiguous
        assert np.shares_memory(state.q(j), store)
    Q = state.basis(maxit)
    assert Q.shape == (40, maxit) and np.shares_memory(Q, store)
    with pytest.raises(RuntimeError, match="maxit=9"):
        lanczos_step(state)


def test_basis_store_capped_at_dimension():
    rng = np.random.default_rng(7)
    p = random_interior_problem(rng, 10, 2)
    feas = classify(p)
    state = run(_projected(p), feas.b0, 50, norm_scale=p.norm_a)
    assert state._Q.shape == (11, 10)
    assert state.broke_down and state.k <= 8
