import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chebyshev_value

import crqopt
from crqopt import (InstanceSpec, chebyshev_extreme_nodes, classify, direct_solve,
                    generate, reference_solution, verify_roundtrip)
from crqopt.errors import SingularHError, VerificationError


def test_nodes_degree_one():
    assert np.allclose(chebyshev_extreme_nodes(1, 0.0, 1.0), [1.0, 0.0])


def test_nodes_degree_two_reference_interval():
    assert np.allclose(chebyshev_extreme_nodes(2, -1.0, 1.0), [1.0, 0.0, -1.0])


def test_nodes_high_degree_extremality():
    nodes = chebyshev_extreme_nodes(999, 1.0, 100.0)
    assert nodes.min() == 1.0 and nodes.max() == 100.0
    # map back to [-1, 1] and evaluate the degree-999 polynomial: all
    # node values are extreme points with |T_999| = 1
    omega = (100.0 - 1.0) / 2.0
    tau = -(1.0 + 100.0) / (100.0 - 1.0)
    t = nodes / omega + tau
    vals = chebyshev_value(t, 999)
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-8


def test_generate_roundtrip_and_gamma():
    spec = InstanceSpec(n=80, m=8, alpha=1.0, beta=30.0, zeta=0.9, rng_seed=12)
    prob, truth = generate(spec)
    report = verify_roundtrip(prob, truth)
    assert report["h_gap"] <= 1e-10 * 30.0
    assert abs(classify(prob).gamma - np.sqrt(0.19)) <= 1e-12
    # positive definite H: assembled operator is positive semidefinite
    assert report["min_eig_a"] is not None
    assert report["min_eig_a"] >= -1e-10 * abs(truth.eta_coupling)


def test_generate_deterministic():
    spec = InstanceSpec(n=50, m=5, alpha=1.0, beta=10.0, zeta=0.8, rng_seed=77)
    prob1, truth1 = generate(spec)
    prob2, truth2 = generate(spec)
    assert np.array_equal(prob1.C, prob2.C)
    assert np.array_equal(prob1.b, prob2.b)
    probe = np.random.default_rng(0).standard_normal(50)
    assert np.array_equal(prob1.A.matvec(probe), prob2.A.matvec(probe))
    assert truth1.lambda_star == truth2.lambda_star


def test_schur_complement_identity():
    spec = InstanceSpec(n=40, m=6, alpha=0.5, beta=9.0, zeta=0.7, rng_seed=13)
    prob, truth = generate(spec)
    h, g0, a = truth.h_diag, truth.g0, truth.a
    lhs = truth.eta_coupling * np.eye(6) - (g0 @ (g0 / h)) * np.outer(a, a)
    rhs = (g0 @ (g0 / h)) * ((a @ a) * np.eye(6) - np.outer(a, a))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, abs(truth.eta_coupling))


def test_benchmark_truth_values():
    spec = InstanceSpec(n=1100, m=100, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=1)
    _, truth = generate(spec)
    assert truth.lambda_star == pytest.approx(-42.6007, abs=5e-4)
    assert truth.kappa == pytest.approx(3.2706, abs=1e-3)


def test_near_degenerate_truth_values():
    spec = InstanceSpec(
        n=1100, m=100, alpha=2.0, beta=1000.0, zeta=0.9,
        g0_kind="geometric", eta=-5e-3,
        spectrum_kind="chebyshev_plus_isolated", iso_value=1.0, rng_seed=1,
    )
    _, truth = generate(spec)
    assert truth.theta[0] == 1.0
    assert truth.lambda_star == pytest.approx(0.9845, abs=5e-4)
    assert truth.kappa == pytest.approx(6.4466e4, abs=1e1)
    assert truth.kappa_plus == pytest.approx(983.7702, abs=1e-1)
    # close to the boundary, but still the generic case
    assert truth.case_tag == "easy"


def test_singular_h_rejected():
    rng = np.random.default_rng(14)
    with pytest.raises(SingularHError):
        crqopt.embed(np.array([0.0, 1.0, 2.0]), np.ones(3), 0.8, 2, rng)


def test_verification_error_on_tampered_truth():
    spec = InstanceSpec(n=30, m=3, alpha=1.0, beta=5.0, zeta=0.8, rng_seed=15)
    prob, truth = generate(spec)
    truth.g0 = truth.g0 + 0.1
    with pytest.raises(VerificationError):
        verify_roundtrip(prob, truth)


def _dense_embedding(truth):
    """K = [[eta I, a g0'], [g0 a', diag(h)]], the middle factor of A = Q K Q'."""
    m = truth.a.size
    n = m + truth.h_diag.size
    K = np.zeros((n, n))
    K[:m, :m] = truth.eta_coupling * np.eye(m)
    K[:m, m:] = np.outer(truth.a, truth.g0)
    K[m:, :m] = K[:m, m:].T
    K[m:, m:] = np.diag(truth.h_diag)
    return K


@st.composite
def instance_specs(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(m + 3, 60))
    alpha = draw(st.floats(0.5, 5.0))
    return InstanceSpec(
        n=n, m=m, alpha=alpha, beta=alpha + draw(st.floats(0.5, 100.0)),
        zeta=draw(st.floats(0.3, 0.95)),
        g0_kind=draw(st.sampled_from([crqopt.instances.ONES, crqopt.instances.GEOMETRIC])),
        spectrum_kind=draw(st.sampled_from([crqopt.instances.CHEBYSHEV_EXTREME,
                                            crqopt.instances.CHEBYSHEV_PLUS_ISOLATED])),
        iso_value=draw(st.floats(0.1, 1.0)),
        rng_seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=instance_specs())
@pytest.mark.filterwarnings("ignore:nearly degenerate reduced problem")
def test_reflector_operator_matches_dense_oracle(spec):
    prob, truth = generate(spec)
    Q, _ = sla.qr(prob.C)
    K = _dense_embedding(truth)
    A_dense = Q @ K @ Q.T
    tol = 1e-12 * np.linalg.norm(K, 2)
    rng = np.random.default_rng(spec.rng_seed)
    X = rng.standard_normal((spec.n, 3))
    X /= np.linalg.norm(X, axis=0)
    assert np.max(np.abs(prob.A.apply(X[:, 0]) - A_dense @ X[:, 0])) <= tol
    assert np.max(np.abs(prob.A.apply(X) - A_dense @ X)) <= tol
    # symmetric by contract, unchecked at construction: this is the proof
    M = prob.A.apply(np.eye(spec.n))
    assert np.max(np.abs(M - M.T)) <= tol
    verify_roundtrip(prob, truth)
    ref = reference_solution(prob, truth)
    assert ref.objective == pytest.approx(direct_solve(prob).objective, abs=1e-10)


@pytest.mark.parametrize("n, m, seed", [(1100, 100, 1), (60, 8, 2), (9, 1, 3)])
def test_wy_vector_apply_matches_one_column_block(n, m, seed):
    prob, _ = generate(InstanceSpec(n=n, m=m, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=seed))
    x = np.random.default_rng(seed).standard_normal(n)
    y = prob.A.matvec(x)
    Y = prob.A.matmat(x[:, None])
    assert y.shape == (n,) and Y.shape == (n, 1)
    assert np.linalg.norm(y - Y[:, 0]) <= 1e-14 * np.linalg.norm(y)


def test_generate_holds_no_square_factor():
    n, m = 3000, 30
    spec = InstanceSpec(n=n, m=m, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=3)
    tracemalloc.start()
    try:
        prob, _ = generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full orthogonal factor alone would be n^2 * 8 bytes
    assert peak < n * n * 8 / 10
    for value in vars(prob.A).values():
        if isinstance(value, np.ndarray):
            assert value.size <= n * m
