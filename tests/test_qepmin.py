import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_interior_problem
from oracles import DegenerateEigenvectorError, dense_projector, reduced_qep_to_rlgopt

import crqopt
from crqopt import classify, qep_residual_bound, solve_reduced_qep, solve_rlgopt
from crqopt.lanczos import run, tridiagonal_dense
from crqopt.reference import solve_qep_linearization


def test_scalar_case():
    beta1, gamma, a1 = 0.7, 0.5, 1.2
    sol = solve_reduced_qep([a1], [], beta1, gamma)
    assert sol.mu == pytest.approx(a1 - beta1 / gamma, rel=1e-12)
    x = reduced_qep_to_rlgopt(sol, beta1, gamma)
    assert abs(x[0]) == pytest.approx(gamma, rel=1e-10)


def _small_example_state(problem, k):
    feas = classify(problem)
    state = run(problem.A, feas.b0, k, problem.P, norm_scale=problem.norm_a)
    return feas, state


def _coupling(k, beta1, gamma):
    """Quadratic term of the reduced QEP, with the edge coupling dropped."""
    coupling = np.zeros((k, k))
    coupling[0, 0] = -beta1**2 / gamma**2
    return coupling


def _linearization(a, b, beta1, gamma):
    return solve_qep_linearization(tridiagonal_dense(a, b), _coupling(len(a), beta1, gamma))


def test_small_example_k2_dropped_spectrum(small_example):
    feas, state = _small_example_state(small_example, 2)
    a, b = state.tridiagonal()
    sol = solve_reduced_qep(a, b, state.beta[0], feas.gamma)
    mu_lin, _, _, spectrum = _linearization(a, b, state.beta[0], feas.gamma)
    got = np.sort(spectrum.real)
    assert np.max(np.abs(spectrum.imag)) <= 1e-8
    expected = [1.1429, 2.2661, 2.8915, 4.0672]
    assert np.allclose(got, expected, atol=5e-4)
    assert sol.mu == pytest.approx(1.1429, abs=5e-4)
    assert sol.mu == pytest.approx(mu_lin, abs=1e-10 * (1.0 + abs(mu_lin)))


def test_small_example_k2_kept_edge_term_goes_complex(small_example):
    feas, state = _small_example_state(small_example, 2)
    a, b = state.tridiagonal()
    T = tridiagonal_dense(a, b)
    coupling = _coupling(2, state.beta[0], feas.gamma)
    coupling[1, 1] = abs(state.beta[2])
    with pytest.raises(crqopt.NoRealEigenvalueError):
        solve_qep_linearization(T, coupling)
    vals = sla.eig(np.block([[T, coupling], [-np.eye(2), T]]), right=False)
    vals = np.sort_complex(vals)
    expected = np.sort_complex(
        np.array([1.8124 - 0.4172j, 1.8124 + 0.4172j, 3.3714 - 0.2547j, 3.3714 + 0.2547j])
    )
    assert np.allclose(vals, expected, atol=5e-4)
    assert np.min(np.abs(vals.imag)) > 0.1


def test_mapped_minimizer_matches_secular_route(small_example):
    feas, state = _small_example_state(small_example, 2)
    a, b = state.tridiagonal()
    sol = solve_reduced_qep(a, b, state.beta[0], feas.gamma)
    x_qep = reduced_qep_to_rlgopt(sol, state.beta[0], feas.gamma)
    red = solve_rlgopt(a, b, state.beta[0], feas.gamma)
    assert np.linalg.norm(x_qep - red.x) <= 1e-8
    assert abs(sol.mu - red.mu) <= 1e-10 * (1.0 + abs(red.mu))
    assert np.linalg.norm(x_qep) == pytest.approx(feas.gamma, rel=1e-8)


def test_route_agreement_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(8):
        n = int(rng.integers(12, 40))
        m = int(rng.integers(1, 5))
        p = random_interior_problem(rng, n, m)
        feas = classify(p)
        ks = [1, 2, 3, 5]
        state = run(p.A, feas.b0, max(ks), p.P, norm_scale=p.norm_a)
        for k in ks:
            if k > state.k:
                break
            a = np.array(state.alpha[:k])
            b = np.array(state.beta[1:k])
            sol = solve_reduced_qep(a, b, state.beta[0], feas.gamma)
            red = solve_rlgopt(a, b, state.beta[0], feas.gamma)
            assert abs(sol.mu - red.mu) <= 1e-10 * (1.0 + abs(red.mu))
            x_qep = reduced_qep_to_rlgopt(sol, state.beta[0], feas.gamma)
            assert np.linalg.norm(x_qep - red.x) <= 1e-8 * (1.0 + feas.gamma)


def test_leftmost_real_exists_random():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = int(rng.integers(1, 12))
        a = rng.standard_normal(k) * 3
        b = rng.uniform(0.05, 2.0, k - 1)
        beta1, gamma = float(rng.uniform(0.1, 2)), float(rng.uniform(0.2, 2))
        sol = solve_reduced_qep(a, b, beta1, gamma)
        assert np.isfinite(sol.mu)
        *_, spectrum = _linearization(a, b, beta1, gamma)
        reals = spectrum.real[np.abs(spectrum.imag) <= 1e-8 * (1 + np.abs(spectrum.real) + np.abs(a).max())]
        # the dense eig is the less accurate side: on the draws with a tiny
        # leading weight it is off by up to 7e-11 (60-digit bisection on the
        # secular equation agrees with sol.mu to 4e-14)
        assert abs(sol.mu - reals.min()) <= 1e-10 * (1.0 + abs(sol.mu))


def test_residual_bound_breakdown_is_zero():
    rng = np.random.default_rng(11)
    C = rng.standard_normal((6, 2))
    p = crqopt.CrqProblem(np.eye(6), C, 0.1 * np.ones(2))
    feas = classify(p)
    state = run(p.A, feas.b0, 5, p.P, norm_scale=1.0)
    # the invariant subspace is 1-D; roundoff may defer the exact
    # breakdown by one step
    assert state.broke_down and state.k <= 2
    a, b = state.tridiagonal()
    red = solve_rlgopt(a, b, state.beta[0], feas.gamma)
    assert qep_residual_bound(state, red, p.norm_a, feas.gamma, state.beta[0]) == 0.0


def test_residual_bound_vs_direct_evaluation(small_example):
    feas, state = _small_example_state(small_example, 3)
    a, b = state.tridiagonal()
    red = solve_rlgopt(a, b, state.beta[0], feas.gamma)
    delta = qep_residual_bound(state, red, small_example.norm_a, feas.gamma, state.beta[0])
    # direct evaluation of the full-space QEP residual
    P = dense_projector(small_example.C)
    M = P @ np.diag([1.0, 2, 3, 4, 5]) @ P
    z = state.basis(3) @ red.w
    shifted = M - red.mu * np.eye(5)
    r = shifted @ (shifted @ z) - np.outer(feas.b0, feas.b0) @ z / feas.gamma**2
    denom = (small_example.norm_a + abs(red.mu)) ** 2 + (state.beta[0] / feas.gamma) ** 2
    denom *= np.linalg.norm(red.w)
    nres_direct = np.linalg.norm(r) / denom
    assert nres_direct <= delta * (1.0 + 1e-12)


def test_bound_tracks_residual_decay(qep_residuals):
    # the cheap bound should not drift away from the true normalized
    # residual as both decay (same-rate behavior, ratio stays small)
    spec = crqopt.InstanceSpec(n=220, m=20, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=8)
    prob, _ = crqopt.generate(spec)
    sol = crqopt.solve(prob, crqopt.SolveOptions(
        method=crqopt.QEPMIN, tol=1e-14, maxit=150, detect_hard=False))
    assert len(qep_residuals) == len(sol.history) and None not in qep_residuals
    floor = 1e3 * np.finfo(float).eps
    for nres, delta in qep_residuals:
        if nres > floor:
            assert delta <= 10.0 * nres


def test_degenerate_eigenvector_rejected():
    sol = crqopt.ReducedQepSolution(
        mu=0.0, w=np.array([0.0, 1.0]), y=np.array([1.0, 0.0]), x=np.array([1.0, 0.0]),
    )
    with pytest.raises(DegenerateEigenvectorError):
        reduced_qep_to_rlgopt(sol, 1.0, 1.0)


def _tridiagonal_with(theta, u):
    """Tridiagonal whose eigenvalues are ``theta`` and whose eigenvectors
    have first components ``u`` (unit norm): the Householder reflector H
    with H e_1 = u carries diag(theta) to H diag(theta) H, and a Hessenberg
    reduction that fixes e_1 makes that tridiagonal."""
    v = -u.copy()
    v[0] += 1.0
    H = np.eye(u.size) if not v.any() else np.eye(u.size) - 2.0 * np.outer(v, v) / (v @ v)
    T = sla.hessenberg(H @ np.diag(theta) @ H)
    return np.diag(T).copy(), np.abs(np.diag(T, -1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_derived_pair_matches_dense_linearization(k, seed):
    # Irreducible T_k with every eigenvector's first component in
    # [0.1, 1] before normalization.  A tiny leading weight is the
    # near-degenerate case the secular solve warns about; there the dense
    # eig, not the secular root, is the side that loses digits (1e-8 at
    # k = 25..38 against 80-digit bisection, the secular root within 3e-14).
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(-5.0, 5.0, k))
    u = rng.uniform(0.1, 1.0, k) * rng.choice([-1.0, 1.0], k)
    a, b = _tridiagonal_with(theta, u / np.linalg.norm(u))
    beta1, gamma = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.2, 2.0))

    sol = solve_reduced_qep(a, b, beta1, gamma)
    mu_lin, *_ = _linearization(a, b, beta1, gamma)
    assert abs(sol.mu - mu_lin) <= 1e-10 * (1.0 + abs(sol.mu))

    T = tridiagonal_dense(a, b)
    L = np.block([[T, _coupling(k, beta1, gamma)], [-np.eye(k), T]])
    s = np.concatenate([sol.y, sol.w])
    assert np.linalg.norm(L @ s - sol.mu * s) <= 1e-12 * np.linalg.norm(L, 1) * np.linalg.norm(s)
    # the map rescales y by gamma^2 / ||x||^2, and ||x|| meets gamma only
    # to the secular root's accuracy (7e-12 relative at worst over 3000 draws)
    mapped = reduced_qep_to_rlgopt(sol, beta1, gamma)
    assert np.linalg.norm(mapped - sol.x) <= 1e-10 * gamma


def test_boundary_fallback_takes_the_bottom_eigenvector():
    # the bottom eigenvector (e_3) of T is coupled to e_1 only at roundoff
    # level: no secular root exists left of theta_1 = 0, and the
    # multiplier sits on the spectrum with the minimizer padded along e_3
    a, b = np.array([1.0, 2.0, 0.0]), np.array([0.5, 1e-18])
    beta1, gamma = 0.1, 1.0
    with pytest.warns(RuntimeWarning, match="nearly degenerate"):
        sol = solve_reduced_qep(a, b, beta1, gamma)
    assert sol.mu == pytest.approx(0.0, abs=1e-15)
    assert abs(sol.w[2]) == pytest.approx(np.linalg.norm(sol.w), rel=1e-14)
    assert np.linalg.norm(sol.y) <= 1e-15 * np.linalg.norm(sol.w)
    T = tridiagonal_dense(a, b)
    shifted = T - sol.mu * np.eye(3)
    r = shifted @ (shifted @ sol.w) + _coupling(3, beta1, gamma) @ sol.w
    assert np.linalg.norm(r) <= 1e-14
    assert np.linalg.norm(sol.x) == pytest.approx(gamma, rel=1e-12)
    assert np.linalg.norm(shifted @ sol.x + beta1 * np.eye(3)[0]) <= 1e-14
    with pytest.raises(DegenerateEigenvectorError):
        reduced_qep_to_rlgopt(sol, beta1, gamma)


def test_qepmin_check_is_one_selected_eigenpair_and_newton(monkeypatch):
    # a check reads mu, x and w off Newton's factorizations: one bottom
    # eigenpair of T_k, no banded solve and no full eigen-decomposition
    calls = []

    def counting(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((crqopt.secular, "bottom_eigenpair"), (sla, "eigh_tridiagonal"),
                         (sla, "solveh_banded"), (lapack, "dpttrf"), (lapack, "dpttrs")):
        counting(module, name)
    checks = []
    reduced = crqopt.driver.solve_rlgopt

    def recording(*args):
        start = len(calls)
        red = reduced(*args)
        checks.append((calls[start:], red))
        return red

    monkeypatch.setattr(crqopt.driver, "solve_rlgopt", recording)
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, _ = crqopt.generate(spec)
    sol = crqopt.solve(prob, crqopt.SolveOptions(method=crqopt.QEPMIN, return_basis=True))
    rebuilt = crqopt.rebuild_history(sol)
    assert "solveh_banded" not in calls
    assert "eigh_tridiagonal" not in calls
    assert len(rebuilt) > 50
    assert len(checks) == len(sol.history) + len(rebuilt)
    for made, red in checks:
        assert made.count("bottom_eigenpair") == 1
        assert made.count("dpttrf") == red.iterations
        assert set(made) == {"bottom_eigenpair", "dpttrf", "dpttrs"}
