import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisection_secular_root, mpmath_secular_root, secular_derivative

import crqopt
from crqopt import (classify, make_spec, secular_value, smallest_root, solve_plgopt_spectral,
                    solve_rlgopt)
from crqopt.errors import MaxIterError, NoRootError
from crqopt.instances import chebyshev_extreme_nodes
from crqopt.lanczos import run, tridiagonal_dense
from crqopt.secular import EASY_TAG, TINY_LEADING_WEIGHT


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


def test_large_theta1_roots_stay_on_the_sphere():
    # |theta_1| up to 1e7 next to offsets down to 0.01: a root found in
    # lambda, with its minimizer formed from theta - lambda, misses
    # ||y|| = gamma by 1.0e-5 relative on these draws; formed from
    # t = theta_1 - lambda, it holds to rounding
    rng = np.random.default_rng(35)
    worst = 0.0
    for _ in range(2000):
        ell = int(rng.integers(2, 40))
        theta1 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(5.0, 7.0)
        theta = theta1 + np.concatenate([[0.0], np.sort(rng.uniform(0.01, 100.0, ell - 1))])
        xi = rng.standard_normal(ell)
        gamma = float(rng.uniform(0.05, 5.0))
        _, y_hat, tag = solve_plgopt_spectral(theta, xi, gamma)
        assert tag == EASY_TAG
        worst = max(worst, abs(np.linalg.norm(y_hat) - gamma) / gamma)
    assert worst <= 1e-14


def test_criterion_7_family_settles_in_few_newton_steps():
    # criterion 7's draws, ten times as many: the Newton iteration in t
    # from the one-pole bound settles in at most 12 steps (a rational
    # iteration in lambda took up to 70) and agrees with bisection
    rng = np.random.default_rng(77)
    worst_gap, worst_iters = 0.0, 0
    for _ in range(2000):
        ell = int(rng.integers(1, 51))
        theta = np.sort(rng.standard_normal(ell) * rng.uniform(0.5, 5.0))
        xi = rng.standard_normal(ell)
        gamma = float(rng.uniform(0.2, 2.0))
        lam, iters = smallest_root(make_spec(theta, xi, gamma))
        oracle = bisection_secular_root(theta, xi, gamma, iters=200)
        worst_gap = max(worst_gap, abs(lam - oracle) / (1.0 + abs(theta[0])))
        worst_iters = max(worst_iters, iters)
    assert worst_iters <= 12
    assert worst_gap <= 1e-12


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
    state = run(small_example.A, feas.b0, 2, small_example.P, norm_scale=small_example.norm_a)
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
    # eigenvector weights (the nearly degenerate case, whose weight counts
    # as zero), so the draws are filtered to the easy domain
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


def _assert_matches_the_spectral_oracle(red, a, b, beta1, gamma):
    """A reduced solve against the case analysis on the full
    eigen-decomposition of the same T_k: same tag, mu, ||x|| = gamma, the
    residual of (T - mu I) x = -beta1 e_1 up to the dropped weight, and a
    reduced objective gamma^2 mu + beta1 x_1 no larger than the oracle's.
    The objective is compared on the size of its two terms, which can
    cancel; the oracle pads along its eigenvector's arbitrary sign."""
    theta, Y = sla.eigh_tridiagonal(a, b)
    lam, y_hat, tag = solve_plgopt_spectral(theta, beta1 * Y[0, :], gamma)
    x = Y @ y_hat
    assert red.tag == tag
    assert abs(red.mu - lam) <= 1e-12 * (1.0 + abs(lam))
    assert np.linalg.norm(red.x) == pytest.approx(gamma, rel=1e-10)
    rhs = np.zeros(a.size)
    rhs[0] = beta1
    resid = (tridiagonal_dense(a, b) - red.mu * np.eye(a.size)) @ red.x + rhs
    assert np.linalg.norm(resid) <= 1e-9 * beta1
    objective = gamma**2 * red.mu + beta1 * red.x[0]
    oracle = gamma**2 * lam + beta1 * x[0]
    assert objective <= oracle + 1e-12 * (gamma**2 * abs(lam) + beta1 * abs(x[0]))


def test_nearly_degenerate_takes_the_hard_step():
    # smallest eigenvalue's eigenvector nearly orthogonal to e_1
    a, b = np.array([1.0, 0.0]), np.array([1e-13])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        red = solve_rlgopt(a, b, 1.0, 0.5)
    _assert_matches_the_spectral_oracle(red, a, b, 1.0, 0.5)
    # ||x|| > gamma at theta_1: a secular root of the masked weights, after
    # the factorization at t = 0
    assert red.tag == EASY_TAG
    assert red.iterations >= 2


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
        # the nearly degenerate weight counts as zero, as in the oracle
        _assert_matches_the_spectral_oracle(red, a, b, beta1, gamma)
        return
    oracle = bisection_secular_root(theta, zeta, gamma)
    assert abs(red.mu - oracle) <= 1e-13 * (1.0 + abs(red.mu))
    if abs(Y[0, 0]) >= 0.1:
        rhs = np.zeros(k)
        rhs[0] = -beta1
        x = np.linalg.solve(tridiagonal_dense(a, b) - red.mu * np.eye(k), rhs)
        assert np.linalg.norm(red.x - x) <= 1e-10 * gamma


def test_newton_cap_raises(monkeypatch):
    a, b = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5])
    beta1, gamma = 1.0, 0.5
    red = solve_rlgopt(a, b, beta1, gamma)
    assert red.iterations > 1
    theta, Y = sla.eigh_tridiagonal(a, b)
    oracle = bisection_secular_root(theta, beta1 * Y[0, :], gamma)
    assert abs(red.mu - oracle) <= 1e-12 * (1.0 + abs(red.mu))
    monkeypatch.setattr(crqopt.secular, "NEWTON_MAXIT", 1)
    with pytest.raises(MaxIterError):
        solve_rlgopt(a, b, beta1, gamma)


def test_nearly_degenerate_draws_stay_on_the_sphere():
    # long random tridiagonals carry leading weights from O(1) down to far
    # below TINY_LEADING_WEIGHT; a root near theta_1 makes ||x|| ~ |zeta_1|/t
    # sensitive to the relative error in t = theta_1 - mu.  Every draw keeps
    # ||x|| = gamma and solves (T - mu I) x = -beta1 e_1 up to a dropped weight
    rng = np.random.default_rng(0)
    tags = []
    for _ in range(3000):
        k = int(rng.integers(2, 40))
        a = rng.standard_normal(k) * rng.uniform(0.1, 10.0)
        b = rng.uniform(0.05, 2.0, k - 1)
        beta1, gamma = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 2.0))
        red = solve_rlgopt(a, b, beta1, gamma)
        _assert_matches_the_spectral_oracle(red, a, b, beta1, gamma)
        tags.append(red.tag)
    # both outcomes: a secular root, and the padded boundary of a weight
    # that counts as zero
    assert tags.count("hard_boundary_padded") >= 900
    assert set(tags) == {EASY_TAG, "hard_boundary_padded"}


@pytest.mark.parametrize("big", [1e4, 1e6, 1e8])
def test_hard_step_shift_moves_left_of_a_rounded_theta1(big, monkeypatch):
    # ||T|| >> |theta_1|: bisection to an absolute tolerance (dstebz's
    # tolerance 0) leaves theta_1 an error of order eps ||T||, far above the
    # first shift, so T - (theta_1 - sigma) I does not factor until sigma
    # has grown; the answer still matches the oracle
    monkeypatch.setattr(crqopt.lanczos, "BISECTION_ABSTOL", 0.0)
    a, b = np.array([big, 2.0 * big, 1e-3]), np.array([0.3 * big, 1e-13])
    beta1, gamma = 1.0, 0.5
    red = solve_rlgopt(a, b, beta1, gamma)
    theta, Y = sla.eigh_tridiagonal(a, b)
    lam, y_hat, tag = solve_plgopt_spectral(theta, beta1 * Y[0, :], gamma)
    x = Y @ y_hat
    assert red.iterations > 1
    assert red.tag == tag
    assert abs(red.mu - lam) <= 4 * np.finfo(float).eps * 2.3 * big
    assert np.linalg.norm(red.x) == pytest.approx(gamma, rel=1e-10)
    # the padding along s_1 ~ e_3 up to the oracle's sign
    assert np.abs(red.x - [x[0], x[1], np.copysign(x[2], red.x[2])]).max() <= 1e-10 * gamma


@pytest.mark.parametrize("beta1", [1.0, 1e-12])
@pytest.mark.parametrize("big", [1e4, 1e6, 1e8])
def test_ill_scaled_root_matches_extended_precision(big, beta1):
    # T = [[b+1, b], [b, b+1]]: theta_1 = 1 sits eps ||T|| = 2 eps b below
    # the rounding level of an absolute-accuracy bisection, and at
    # beta1 = 1e-12 the root lies 1.4e-12 left of it, where ||x|| ~ zeta_1/t
    a, b = np.array([big + 1.0, big + 1.0]), np.array([big])
    gamma = 0.5
    mu, x = mpmath_secular_root(a, b, beta1, gamma)
    red = solve_rlgopt(a, b, beta1, gamma)
    assert red.tag == EASY_TAG
    assert abs(red.mu - mu) <= 1e-15 * (1.0 + abs(mu))
    assert np.linalg.norm(red.x) == pytest.approx(gamma, rel=1e-12)
    assert np.abs(red.x - x).max() <= 1e-12 * gamma


def test_scalar_case_takes_the_newton_path():
    red = solve_rlgopt([2.0], [], 1.0, 0.5)
    assert red.tag == EASY_TAG
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
    sol = crqopt.solve(prob, crqopt.SolveOptions(return_basis=True))
    rebuilt = crqopt.rebuild_history(sol)
    assert full == []
    assert len(rebuilt) > 100
    assert sol.mu == pytest.approx(truth.lambda_star, abs=1e-9 * (1 + abs(truth.lambda_star)))
