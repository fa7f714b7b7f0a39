import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import degenerate_problem, random_interior_problem
from oracles import apply_M, dense_projector

import crqopt
from crqopt import classify
from crqopt.clustering import LabelSet, build_graph, to_crqopt
from crqopt.errors import ZeroStartError
from crqopt.driver import DetectionRun
from crqopt.lanczos import LanczosState, bottom_eigenpair, lanczos_pair_step, lanczos_step, run


def test_init_unit_start():
    rng = np.random.default_rng(0)
    p = random_interior_problem(rng, 8, 2)
    b0 = p.P.apply_P(np.eye(8)[:, 0])
    state = LanczosState(p.A, b0, p.P)
    assert np.allclose(state.q(1), b0 / np.linalg.norm(b0))
    assert state.beta[0] == pytest.approx(np.linalg.norm(b0))


def test_init_records_start_norm():
    rng = np.random.default_rng(1)
    p = random_interior_problem(rng, 8, 2)
    b0 = 2.0 * p.P.apply_P(np.eye(8)[:, 1])
    state = LanczosState(p.A, b0, p.P)
    assert state.beta[0] == pytest.approx(np.linalg.norm(b0))
    assert np.linalg.norm(state.q(1)) == pytest.approx(1.0)


def test_init_small_example_start(small_example):
    feas = classify(small_example)
    state = LanczosState(small_example.A, feas.b0, small_example.P)
    assert np.allclose(state.q(1), feas.b0 / np.linalg.norm(feas.b0), atol=1e-15)


def test_zero_start_rejected(small_example):
    with pytest.raises(ZeroStartError):
        LanczosState(small_example.A, np.zeros(5), small_example.P)


def test_identity_breaks_down_immediately():
    # A = I: the projected operator acts as the identity on null(C'),
    # so the Krylov space is one-dimensional
    rng = np.random.default_rng(2)
    C = rng.standard_normal((6, 2))
    p = crqopt.CrqProblem(np.eye(6), C, 0.1 * np.ones(2))
    b0 = p.P.apply_P(rng.standard_normal(6))
    state = LanczosState(p.A, b0, p.P, norm_scale=1.0)
    lanczos_step(state)
    assert state.broke_down
    assert state.alpha[0] == pytest.approx(1.0)
    assert state.beta[1] <= state.breakdown_tol


def test_tridiagonal_matches_dense_gram(small_example):
    feas = classify(small_example)
    state = run(small_example.A, feas.b0, 2, small_example.P, norm_scale=small_example.norm_a)
    P = dense_projector(small_example.C)
    M = P @ np.diag([1.0, 2, 3, 4, 5]) @ P
    Q = state.basis(2)
    T_oracle = Q.T @ M @ Q
    assert np.linalg.norm(state.tridiagonal_matrix(2) - T_oracle) <= 1e-12


def test_compact_relation_and_nullspace_small():
    rng = np.random.default_rng(3)
    p = random_interior_problem(rng, 30, 4)
    feas = classify(p)
    state = run(p.A, feas.b0, 12, p.P, norm_scale=p.norm_a)
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
    state = run(p.A, feas.b0, 6, p.P, norm_scale=p.norm_a)
    P = dense_projector(p.C)
    M = P @ p.A.apply(np.eye(20)) @ P
    cols = [feas.b0]
    for _ in range(5):
        cols.append(M @ cols[-1])
    K = np.column_stack(cols)
    angles = sla.subspace_angles(state.basis(6), K)
    assert np.max(angles) <= 1e-8


def test_smallest_eigenpair_matches_dense(monkeypatch):
    monkeypatch.setattr(crqopt.driver, "EIG_TOL", 1e-12)
    rng = np.random.default_rng(5)
    p = random_interior_problem(rng, 24, 3)
    # at an infinite threshold the detection run stops only on its eigenpair
    ritz, _ = DetectionRun(p, rng).finish(math.inf)
    theta, z = ritz.theta, ritz.vector()
    # dense comparison on the reduced block
    red = crqopt.build_reduction(p)
    assert ritz.converged
    assert theta == pytest.approx(red.theta[0], abs=1e-9 * max(1, abs(red.theta[0])))
    # eigenvector residual in the full space
    resid = apply_M(p, z) - theta * z
    assert np.linalg.norm(resid) <= 1e-7 * p.norm_a


def test_long_run_compact_relation_large_instance():
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=7)
    prob, truth = crqopt.generate(spec)
    feas = classify(prob)
    state = run(prob.A, feas.b0, 200, prob.P, norm_scale=prob.norm_a)
    assert state.k == 200 and not state.broke_down
    k = state.k
    Q = state.basis(k)
    MQ = apply_M(prob, Q)
    R = MQ - Q @ state.tridiagonal_matrix(k)
    R[:, -1] -= state.beta[k] * state.q(k + 1)
    assert np.max(np.linalg.norm(R, axis=0)) <= 1e-8
    assert np.max(np.abs(Q.T @ Q - np.eye(k))) <= 1e-10


def test_basis_store_is_row_per_vector_and_preallocated():
    rng = np.random.default_rng(6)
    p = random_interior_problem(rng, 40, 3)
    feas = classify(p)
    maxit = 9
    state = LanczosState(p.A, feas.b0, p.P, norm_scale=p.norm_a, maxit=maxit)
    store, omega = state._Q, state._omega
    assert store.shape == (maxit + 1, 40)
    assert omega.shape == (2, maxit + 1)
    for _ in range(maxit):
        lanczos_step(state)
        assert not state.broke_down
        assert state._Q is store and state._omega is omega
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
    state = run(p.A, feas.b0, 50, p.P, norm_scale=p.norm_a)
    assert state._Q.shape == (11, 10)
    assert state.broke_down and state.k <= 8


def test_pair_step_needs_one_a_and_one_p():
    # paired runs share their two applies, so they must run on the same
    # A and the same P
    rng = np.random.default_rng(8)
    p, q = random_interior_problem(rng, 12, 2), random_interior_problem(rng, 12, 2)
    b0 = p.P.apply_P(rng.standard_normal(12))
    with pytest.raises(ValueError, match="share A and P"):
        lanczos_pair_step(LanczosState(p.A, b0, p.P), LanczosState(q.A, b0, q.P))
    with pytest.raises(ValueError, match="share A and P"):
        lanczos_pair_step(LanczosState(p.A, b0, p.P), LanczosState(p.A, b0))


def test_norm_estimate_runs_the_lanczos_loop_on_plain_operators():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 40))
    A = 0.5 * (A + A.T)
    op = crqopt.as_operator(A)
    est = crqopt.norm_estimate(op)
    true = np.max(np.abs(np.linalg.eigvalsh(A)))
    assert est <= true * (1.0 + 1e-12)
    assert est >= 0.9 * true
    # the same seeded start through lanczos.run gives the same tridiagonal
    start = np.random.default_rng(0x5EED).standard_normal(40)
    a, b = run(op, start, 20).tridiagonal()
    assert est == np.max(np.abs(sla.eigvalsh_tridiagonal(a, b)))
    # the identity breaks down at the first step
    identity = crqopt.as_operator(np.eye(9))
    assert crqopt.norm_estimate(identity) == pytest.approx(1.0, rel=1e-14)
    assert crqopt.norm_estimate(crqopt.as_operator(np.array([[-2.5]]))) == 2.5


SQRT_EPS = np.sqrt(np.finfo(float).eps)


def _worst_case(beta):
    def make(seed):
        spec = crqopt.InstanceSpec(n=400, m=40, alpha=1.0, beta=beta, zeta=0.9, rng_seed=seed)
        return crqopt.generate(spec)[0]
    return make


def _raster(seed, size=64):
    """Two-region 64x64 raster; the seed shifts the texture phase."""
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 2)
    yy, xx = np.mgrid[0:size, 0:size]
    image = np.where(xx < size // 2, 60.0, 180.0)
    image += 10.0 * np.sin(yy / 9.0 + phase[0]) + 6.0 * np.cos(xx / 7.0 + phase[1])
    graph = build_graph(image, 0.1, 5)
    labels = LabelSet.from_pixels(image.shape, [(32, 8)], [(32, 55)])
    return to_crqopt(graph, labels)


FAMILIES = {
    "worst_case_10": _worst_case(10.0),
    "worst_case_100": _worst_case(100.0),
    "worst_case_1000": _worst_case(1000.0),
    "degenerate": lambda seed: degenerate_problem(seed, 400, 40),
    "raster_64": _raster,
}


@pytest.mark.parametrize("family", list(FAMILIES))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16))
def test_basis_stays_semiorthogonal_under_the_omega_estimate(family, seed):
    # at every step the measured loss max_j |q_j' q_{k+1}| stays below
    # sqrt(eps), and the omega estimate, which decides when to
    # reorthogonalize, stays above it
    prob = FAMILIES[family](seed)
    feas = classify(prob)
    state = LanczosState(prob.A, feas.b0, prob.P, norm_scale=prob.norm_a, maxit=300)
    while state.k < state.maxit:
        lanczos_step(state)
        if state.broke_down:
            break
        k = state.k
        loss = np.max(np.abs(state.basis(k).T @ state.q(k + 1)))
        assert loss <= SQRT_EPS
        assert np.max(np.abs(state.omega())) >= loss
    if family in ("degenerate", "raster_64"):
        assert state.reorth_steps > 0


@st.composite
def tridiagonals(draw):
    """Symmetric tridiagonals with k = 1..160: Gaussian, graded and
    clustered diagonals, off-diagonals down to 1e-12 of the diagonal."""
    k = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["gaussian", "graded", "clustered"]))
    if kind == "gaussian":
        alpha = rng.standard_normal(k)
    elif kind == "graded":
        alpha = np.logspace(0, -draw(st.integers(1, 12)), k) * rng.choice([-1.0, 1.0], k)
    else:
        alpha = draw(st.floats(-5.0, 5.0)) + 1e-10 * rng.standard_normal(k)
    beta = rng.standard_normal(k - 1) * 10.0 ** -draw(st.integers(0, 12))
    return alpha, beta


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tri=tridiagonals())
def test_bottom_eigenpair_is_eigh_tridiagonal_bit_for_bit(tri):
    alpha, beta = tri
    theta, s = bottom_eigenpair(alpha, beta)
    vals, vecs = sla.eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
    assert theta == vals[0]
    assert np.array_equal(s, vecs[:, 0])


def test_bottom_eigenpair_scalar():
    theta, s = bottom_eigenpair(np.array([-2.5]), np.empty(0))
    assert theta == -2.5 and np.array_equal(s, [1.0])
