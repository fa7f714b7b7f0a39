import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisection_secular_root, secular_derivative

import crqopt
from crqopt import classify, make_spec, secular_value, smallest_root, solve_rlgopt
from crqopt.errors import NoRootError
from crqopt.instances import chebyshev_extreme_nodes
from crqopt.lanczos import run, tridiagonal_dense
from crqopt.secular import EIG, NEWTON, TINY_LEADING_WEIGHT


def test_single_pole():
    lam, iters = smallest_root(make_spec([0.0], [1.0], 1.0))
    assert lam == pytest.approx(-1.0, abs=1e-14)
    assert iters <= 10


def test_large_chebyshev_spec_value():
    # 1000 translated extreme nodes on [1, 100], unit weights, gamma^2 = 0.19
    theta = np.sort(chebyshev_extreme_nodes(999, 1.0, 100.0))
    xi = np.ones(1000)
    lam, iters = smallest_root(make_spec(theta, xi, np.sqrt(0.19)))
    assert lam == pytest.approx(-42.6007, abs=5e-4)
    assert iters <= 60


def test_random_spec_matches_bisection():
    rng = np.random.default_rng(0)
    theta = np.sort(rng.standard_normal(12) * 3)
    xi = rng.standard_normal(12)
    gamma = 0.7
    lam, _ = smallest_root(make_spec(theta, xi, gamma))
    oracle = bisection_secular_root(theta, xi, gamma)
    assert abs(lam - oracle) <= 1e-12 * (1.0 + abs(theta[0]))


@pytest.mark.parametrize("seed", range(6))
def test_random_specs_fast_and_accurate(seed):
    rng = np.random.default_rng(seed + 100)
    ell = int(rng.integers(2, 51))
    theta = np.sort(rng.standard_normal(ell) * rng.uniform(0.5, 20))
    xi = rng.standard_normal(ell)
    xi[0] = xi[0] if abs(xi[0]) > 1e-3 else 1.0
    gamma = float(rng.uniform(0.05, 5.0))
    lam, iters = smallest_root(make_spec(theta, xi, gamma))
    assert iters <= 60
    oracle = bisection_secular_root(theta, xi, gamma)
    assert abs(lam - oracle) <= 1e-12 * (1.0 + abs(theta[0]))
    assert abs(secular_value(make_spec(theta, xi, gamma), lam)) <= 1e-6 * gamma**2 + 1e-10


def test_no_root_detected():
    # weight far from theta_1 and a huge radius: chi stays negative
    with pytest.raises(NoRootError):
        smallest_root(make_spec([0.0, 1.0], [0.0, 0.1], 10.0))


def test_chi_strictly_increasing_left_of_spectrum():
    rng = np.random.default_rng(1)
    theta = np.sort(rng.standard_normal(8))
    xi = rng.standard_normal(8)
    spec = make_spec(theta, xi, 1.3)
    lams = theta[0] - np.geomspace(1e-6, 10.0, 25)
    assert all(secular_derivative(spec, lam) > 0 for lam in lams)


def test_rlgopt_scalar_case():
    beta1, gamma, a1 = 0.8, 0.43, 2.5
    red = solve_rlgopt([a1], [], beta1, gamma)
    assert red.mu == pytest.approx(a1 - beta1 / gamma, rel=1e-13)
    assert red.x[0] == pytest.approx(-gamma, rel=1e-12)


def test_rlgopt_matches_dense_case_analysis(small_example):
    feas = classify(small_example)
    state = run(small_example.projected_operator(), feas.b0, 2,
                norm_scale=small_example.norm_a)
    a, b = state.tridiagonal()
    red = solve_rlgopt(a, b, state.beta[0], feas.gamma)
    # independent route: full eigen-decomposition + bisection
    theta, Y = sla.eigh(state.tridiagonal_matrix(2))
    xi = state.beta[0] * Y[0, :]
    oracle = bisection_secular_root(theta, xi, feas.gamma)
    assert red.mu == pytest.approx(oracle, abs=1e-11)
    assert np.linalg.norm(red.x) == pytest.approx(feas.gamma, rel=1e-8)


def test_rlgopt_residual_and_leftness():
    # long random tridiagonals can carry exponentially small leading
    # eigenvector weights (the flagged nearly degenerate case), so the
    # draws are filtered to the solver's non-degenerate domain
    rng = np.random.default_rng(2)
    done = 0
    while done < 10:
        k = int(rng.integers(2, 30))
        a = rng.standard_normal(k) * 2
        b = rng.uniform(0.1, 1.5, k - 1)
        _, Y = sla.eigh_tridiagonal(a, b)
        if abs(Y[0, 0]) < 1e-4:
            continue
        beta1 = float(rng.uniform(0.2, 3.0))
        gamma = float(rng.uniform(0.2, 2.0))
        red = solve_rlgopt(a, b, beta1, gamma)
        T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        theta_min = sla.eigvalsh_tridiagonal(a, b)[0]
        assert red.mu < theta_min
        rhs = np.zeros(k)
        rhs[0] = beta1
        resid = np.linalg.norm((T - red.mu * np.eye(k)) @ red.x + rhs)
        scale = (np.abs(T).sum(axis=1).max() + abs(red.mu)) * gamma
        assert resid <= 1e-10 * scale
        assert np.linalg.norm(red.x) == pytest.approx(gamma, rel=1e-8)
        done += 1


def test_nearly_degenerate_warns():
    # smallest eigenvalue's eigenvector nearly orthogonal to e_1
    with pytest.warns(RuntimeWarning):
        solve_rlgopt([1.0, 0.0], [1e-13], 1.0, 0.5)


def test_smallest_root_stays_off_the_pole():
    # ||xi|| / gamma is below the float spacing at theta_1, so the root
    # bracket [theta_1 - ||xi||/gamma, theta_1] is a single float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, _ = smallest_root(make_spec([1.0, 2.0], [1e-20, 1e-20], 1.0))
    assert lam == 1.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["uniform", "scaled_normal"]))
@pytest.mark.filterwarnings("ignore:nearly degenerate reduced problem")
def test_newton_path_matches_eigendecomposition(k, seed, family):
    rng = np.random.default_rng(seed)
    if family == "uniform":
        a, b = rng.uniform(-5.0, 5.0, k), rng.uniform(0.5, 2.0, k - 1)
    else:
        a, b = rng.standard_normal(k) * rng.uniform(0.1, 10.0), rng.uniform(0.05, 2.0, k - 1)
    beta1, gamma = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 2.0))
    theta, Y = sla.eigh_tridiagonal(a, b)
    zeta = beta1 * Y[0, :]
    red = solve_rlgopt(a, b, beta1, gamma)
    if abs(zeta[0]) < TINY_LEADING_WEIGHT * beta1:
        # the nearly degenerate weight goes to the eigen-decomposition
        assert red.solver == EIG
        return
    assert red.solver == NEWTON
    oracle = bisection_secular_root(theta, zeta, gamma)
    assert abs(red.mu - oracle) <= 1e-13 * (1.0 + abs(red.mu))
    if abs(Y[0, 0]) >= 0.1:
        rhs = np.zeros(k)
        rhs[0] = -beta1
        x = np.linalg.solve(tridiagonal_dense(a, b) - red.mu * np.eye(k), rhs)
        assert np.linalg.norm(red.x - x) <= 1e-10 * gamma


def test_newton_failure_warns_and_takes_the_eigen_path(monkeypatch):
    monkeypatch.setattr(crqopt.secular, "NEWTON_MAXIT", 1)
    a, b = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5])
    beta1, gamma = 1.0, 0.5
    with pytest.warns(RuntimeWarning, match="did not settle"):
        red = solve_rlgopt(a, b, beta1, gamma)
    assert red.solver == EIG
    assert red.iterations == 0
    theta, Y = sla.eigh_tridiagonal(a, b)
    oracle = bisection_secular_root(theta, beta1 * Y[0, :], gamma)
    assert abs(red.mu - oracle) <= 1e-12 * (1.0 + abs(red.mu))


def test_nearly_degenerate_draws_stay_on_the_sphere():
    # a leading weight below TINY_LEADING_WEIGHT puts a root that uses it
    # within rounding of theta_1; the case analysis drops the weight, so x
    # stays on the sphere and solves (T - mu I) x = -beta1 e_1 up to it
    rng = np.random.default_rng(0)
    warned = 0
    for _ in range(3000):
        k = int(rng.integers(2, 40))
        a = rng.standard_normal(k) * rng.uniform(0.1, 10.0)
        b = rng.uniform(0.05, 2.0, k - 1)
        beta1, gamma = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 2.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            red = solve_rlgopt(a, b, beta1, gamma)
        assert all("nearly degenerate" in str(w.message) for w in caught)
        if not caught:
            continue
        warned += 1
        assert red.solver == EIG
        assert np.linalg.norm(red.x) == pytest.approx(gamma, rel=1e-10)
        rhs = np.zeros(k)
        rhs[0] = beta1
        resid = (tridiagonal_dense(a, b) - red.mu * np.eye(k)) @ red.x + rhs
        assert np.linalg.norm(resid) <= 1e-9 * beta1
    assert warned >= 1000


def test_scalar_case_takes_the_newton_path():
    red = solve_rlgopt([2.0], [], 1.0, 0.5)
    assert red.solver == NEWTON
    assert red.mu == 0.0
    assert red.x[0] == pytest.approx(-0.5, rel=1e-15)


def test_generic_path_needs_no_full_eigendecomposition(monkeypatch):
    full = []
    eigh_tridiagonal = sla.eigh_tridiagonal

    def counting(d, e, *args, **kwargs):
        if kwargs.get("select", "a") == "a":
            full.append(d.size)
        return eigh_tridiagonal(d, e, *args, **kwargs)

    monkeypatch.setattr(sla, "eigh_tridiagonal", counting)
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, truth = crqopt.generate(spec)
    sol = crqopt.solve(prob)
    assert full == []
    assert len(sol.history) > 100
    assert sol.mu == pytest.approx(truth.lambda_star, abs=1e-9 * (1 + abs(truth.lambda_star)))
