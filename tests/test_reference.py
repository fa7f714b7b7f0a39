import numpy as np
import pytest
import scipy.linalg as sla

from conftest import random_interior_problem
from oracles import bisection_secular_root, dense_projector

import crqopt
from crqopt import (build_reduction, classify, direct_solve, dual_check,
                    equivalence_maps, hard_case_predicate, solve_plgopt_spectral)
from crqopt.reference import EASY_TAG, HARD_PADDED_TAG, dense_matrix, solve_pqepmin_dense


def test_reduction_single_coordinate_constraint():
    A = np.diag([1.0, 2.0, 3.0])
    p = crqopt.CrqProblem(A, np.eye(3)[:, :1], [0.5])
    red = build_reduction(p)
    # S1 spans e2, e3; the reduced block has the trailing eigenvalues
    assert np.linalg.norm(red.S1.T @ np.eye(3)[:, 0]) <= 1e-14
    assert np.allclose(np.sort(red.theta), [2.0, 3.0], atol=1e-12)


def test_projected_spectrum_is_reduced_spectrum_plus_zeros(small_example):
    red = build_reduction(small_example)
    P = dense_projector(small_example.C)
    M = P @ np.diag([1.0, 2, 3, 4, 5]) @ P
    eig_m = np.sort(sla.eigvalsh(M))
    eig_expected = np.sort(np.concatenate([red.theta, np.zeros(small_example.m)]))
    assert np.allclose(eig_m, eig_expected, atol=1e-8)


@pytest.mark.parametrize("shift", [1e3, 1e5, 1e6])
def test_direct_solve_lands_on_the_sphere_under_a_large_shift(shift):
    # A + shift I has the minimizer of A and |theta_1| ~ shift; the oracle's
    # v must meet ||v|| = 1 as tightly as the solver it judges
    worst = 0.0
    for seed in range(40):
        prob = random_interior_problem(np.random.default_rng(seed), 60, 3)
        shifted = crqopt.CrqProblem(dense_matrix(prob) + shift * np.eye(prob.n), prob.C, prob.b)
        worst = max(worst, abs(np.linalg.norm(direct_solve(shifted).v) - 1.0))
    assert worst <= 1e-13


def test_case_analysis_generic_matches_bisection():
    theta = np.array([1.0, 2.0])
    xi = np.array([1.0, 0.0])
    gamma = 1.0
    lam, y_hat, tag = solve_plgopt_spectral(theta, xi, gamma)
    assert tag == EASY_TAG
    oracle = bisection_secular_root(theta, xi, gamma)
    assert lam == pytest.approx(oracle, abs=1e-12)
    assert np.linalg.norm(y_hat) == pytest.approx(gamma, rel=1e-10)


def test_case_analysis_forced_boundary_padding():
    theta = np.array([1.0, 2.0])
    xi = np.array([0.0, 1.0])
    gamma = 5.0  # stationary point well inside the radius
    lam, y_hat, tag = solve_plgopt_spectral(theta, xi, gamma)
    assert tag == HARD_PADDED_TAG
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(y_hat) == pytest.approx(gamma, rel=1e-12)
    # stationary part: -xi_2/(theta_2 - theta_1) on the second eigenvector
    assert y_hat[1] == pytest.approx(-1.0, abs=1e-12)


def test_case_analysis_boundary_secular_root():
    theta = np.array([1.0, 2.0])
    xi = np.array([0.0, 1.0])
    gamma = 0.2  # stationary point outside the radius: root left of theta_1
    lam, y_hat, tag = solve_plgopt_spectral(theta, xi, gamma)
    assert tag == EASY_TAG
    assert lam < 1.0
    assert np.linalg.norm(y_hat) == pytest.approx(gamma, rel=1e-8)


def test_direct_solve_unique_point():
    p = crqopt.CrqProblem(np.diag([3.0, 1.0]), np.array([[1.0], [0.0]]), [1.0])
    sol = direct_solve(p)
    assert sol.case == crqopt.UNIQUE
    assert np.allclose(sol.v, [1.0, 0.0])


def test_direct_solve_small_example(small_example):
    sol = direct_solve(small_example)
    assert sol.mu == pytest.approx(0.8333, abs=5e-4)
    assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-12


def test_direct_solve_multiplier_equations_random():
    rng = np.random.default_rng(50)
    p = random_interior_problem(rng, 50, 5)
    sol = direct_solve(p)
    feas = classify(p)
    P = dense_projector(p.C)
    A = dense_matrix(p)
    u = sol.v - feas.n0
    resid = np.linalg.norm(P @ A @ P @ u - sol.mu * u + feas.b0)
    scale = (p.norm_a + abs(sol.mu)) * feas.gamma + np.linalg.norm(feas.b0)
    assert resid <= 1e-10 * scale


def test_hard_case_predicate_cases():
    rng = np.random.default_rng(51)
    # generic weight on the bottom eigenvector: not degenerate
    p = random_interior_problem(rng, 20, 2)
    red = build_reduction(p)
    assert not hard_case_predicate(red, classify(p).gamma)

    # constructed instance: orthogonal gradient, small stationary point
    h = np.concatenate([[1.0], np.linspace(3.0, 9.0, 14)])
    g0 = np.concatenate([[0.0], rng.uniform(0.5, 1.5, 14)])
    gamma = np.sqrt(1 - 0.9**2)
    w = np.concatenate([[0.0], g0[1:] / (h[1:] - 1.0)])
    g0 *= 0.5 * gamma / np.linalg.norm(w)
    prob, truth = crqopt.embed(h, g0, 0.9, 3, rng)
    red_h = build_reduction(prob)
    assert hard_case_predicate(red_h, truth.gamma)
    sol = crqopt.solve(prob, crqopt.SolveOptions(tol=1e-13, maxit=prob.n))
    assert sol.case == crqopt.HARD


def test_two_pseudoinverse_identity():
    rng = np.random.default_rng(52)
    p = random_interior_problem(rng, 18, 3)
    red = build_reduction(p)
    P = dense_projector(p.C)
    M = P @ dense_matrix(p) @ P
    for lam in (-2.0, 0.0, 1.3):
        lhs = np.linalg.pinv(M - lam * np.eye(p.n), rcond=1e-10) @ red.S1
        shifted_inv = np.where(
            np.abs(red.theta - lam) > 1e-10 * max(1.0, np.abs(red.theta).max()),
            1.0 / (red.theta - lam), 0.0,
        )
        rhs = red.S1 @ (red.Y @ np.diag(shifted_inv) @ red.Y.T)
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_equivalence_maps_small_example(small_example):
    red = build_reduction(small_example)
    feas = classify(small_example)
    report = equivalence_maps(red, feas.gamma)
    assert report["lambda_gap"] <= 1e-10
    assert report["forward_residual"] <= 1e-10
    assert report["backward_residual"] <= 1e-10
    assert report["backward_norm_gap"] <= 1e-8
    # full spectrum of the dense QEP for this instance, leftmost real
    vals = np.sort(report["qep_spectrum"].real[np.abs(report["qep_spectrum"].imag) < 1e-6])
    assert vals[0] == pytest.approx(0.8333, abs=5e-4)


def test_equivalence_maps_scalar_reduction():
    # n - m = 1: both problems are scalar and the maps are sign flips
    rng = np.random.default_rng(53)
    p = random_interior_problem(rng, 4, 3)
    red = build_reduction(p)
    report = equivalence_maps(red, classify(p).gamma)
    assert report["lambda_gap"] <= 1e-12
    assert report["backward_residual"] <= 1e-10


def test_equivalence_maps_hard_branch():
    rng = np.random.default_rng(54)
    h = np.concatenate([[1.0], np.linspace(3.0, 9.0, 12)])
    gamma = np.sqrt(0.19)
    g_tail = rng.uniform(0.5, 1.5, 12)
    w_norm = np.linalg.norm(g_tail / (h[1:] - 1.0))
    g0 = np.concatenate([[0.0], g_tail * (0.4 * gamma / w_norm)])
    prob, truth = crqopt.embed(h, g0, 0.9, 2, rng)
    red = build_reduction(prob)
    report = equivalence_maps(red, truth.gamma)
    assert report["backward_branch"] == "gradient_orthogonal"
    assert report["backward_norm_gap"] <= 1e-8
    assert report["lambda_gap"] <= 1e-8


def test_leftmost_dense_qep_real_on_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(100):
        ell = int(rng.integers(2, 9))
        H = rng.standard_normal((ell, ell))
        H = 0.5 * (H + H.T)
        g0 = rng.standard_normal(ell)
        gamma = float(rng.uniform(0.2, 2.0))
        theta, Y = sla.eigh(H)
        red = crqopt.DenseReduction(None, H, g0, theta, Y)
        mu, y, w, spectrum = solve_pqepmin_dense(red, gamma)
        assert np.isfinite(mu)
        # leftmost overall: no eigenvalue has smaller real part
        assert mu <= spectrum.real.min() + 1e-8 * (1 + abs(mu) + np.abs(spectrum.real).max())


def test_unique_minimizer_two_seeds():
    rng = np.random.default_rng(56)
    p = random_interior_problem(rng, 30, 4)
    sol_a = crqopt.solve(p, crqopt.SolveOptions(tol=1e-14, maxit=30, rng_seed=1))
    sol_b = crqopt.solve(p, crqopt.SolveOptions(tol=1e-14, maxit=30, rng_seed=99))
    assert np.linalg.norm(sol_a.v - sol_b.v) <= 1e-8


def test_dual_check_small_example(small_example):
    t_star, f_star, gap = dual_check(small_example)
    assert gap <= 1e-6 * (1.0 + abs(f_star))


def test_dual_check_gives_up_on_a_monotone_dual_within_its_budget(small_example, monkeypatch):
    # trace(L + tE) is affine in t, so no interior maximizer exists; the
    # bracket expands 60 times (3 + 60 evaluations of f) and then raises
    calls = []

    class AffineSubsetEigvalsh:
        def __getattr__(self, name):
            return getattr(sla, name)

        def eigvalsh(self, X, subset_by_index=None):
            if subset_by_index is None:
                return sla.eigvalsh(X)
            calls.append(1)
            return np.array([np.trace(X)])

    monkeypatch.setattr(crqopt.reference, "sla", AffineSubsetEigvalsh())
    with pytest.raises(crqopt.BracketFailureError, match="no interior dual maximizer"):
        dual_check(small_example)
    assert 3 < len(calls) <= 100


def test_dual_check_near_unique_instance():
    # ||n0|| close to 1: thin feasible sphere
    rng = np.random.default_rng(57)
    p = random_interior_problem(rng, 12, 2, target_n0=0.95)
    ref = direct_solve(p)
    _, f_star, gap = dual_check(p)
    assert gap <= 1e-6 * (1.0 + abs(ref.objective))


def test_dense_cap_enforced(small_example, monkeypatch):
    monkeypatch.setattr(crqopt.reference, "DENSE_CAP", 3)
    with pytest.raises(crqopt.TooLargeError):
        build_reduction(small_example)


def test_dual_mass_matrix_positive_definite_random():
    from crqopt.reference import _dual_matrices

    rng = np.random.default_rng(58)
    for _ in range(5):
        p = random_interior_problem(rng, 15, 3)
        _, _, M = _dual_matrices(p)
        assert sla.eigvalsh(M)[0] > 0.0
