import numpy as np
import pytest

from oracles import chebyshev_value

import crqopt
from crqopt import BoundInputs, convergence_bounds, refined_convergence_bounds
from crqopt.analysis import inv_cosh_power
from crqopt.instances import chebyshev_extreme_nodes
from crqopt.reference import solve_plgopt_spectral


def _inputs(theta_min=1.0, theta_2=1.1, theta_max=100.0, lam=-42.6, gamma=0.436, nb0=31.6):
    return BoundInputs(theta_min, theta_2, theta_max, lam, gamma, nb0)


def test_iterate_bound_at_k0():
    inp = _inputs()
    _, b2, _ = convergence_bounds(inp, 0)
    assert b2 == pytest.approx(2.0 * inp.gamma * np.sqrt(inp.kappa), rel=1e-12)


def _instance_kappa(alpha, beta):
    theta = np.sort(chebyshev_extreme_nodes(999, alpha, beta))
    xi = np.ones(theta.size)
    lam, _, _ = solve_plgopt_spectral(theta, xi, np.sqrt(0.19))
    return lam, (theta[-1] - lam) / (theta[0] - lam)


def test_benchmark_kappas():
    lam, kappa = _instance_kappa(1.0, 100.0)
    assert lam == pytest.approx(-42.6007, abs=5e-4)
    assert kappa == pytest.approx(3.2706, abs=1e-3)
    lam, kappa = _instance_kappa(1.0, 1000.0)
    assert lam == pytest.approx(-18.2629, abs=5e-4)
    assert kappa == pytest.approx(52.8613, abs=1e-3)


def test_growth_factor_is_chebyshev_value():
    for kappa in (1.5, 3.2706, 52.8613, 6.4e4):
        log_gamma = np.log((np.sqrt(kappa) + 1) / (np.sqrt(kappa) - 1))
        for k in (1, 2, 5, 10, 40):
            lhs = 0.5 / inv_cosh_power(log_gamma, k)
            rhs = chebyshev_value_big((kappa + 1) / (kappa - 1), k)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def chebyshev_value_big(t, degree):
    # |t| >= 1 branch of the first-kind Chebyshev polynomial
    s = t + np.sqrt(t * t - 1.0)
    return 0.5 * (s**degree + s ** (-degree))


def test_bounds_strictly_decreasing():
    inp = _inputs()
    prev = convergence_bounds(inp, 0)
    for k in range(1, 60):
        cur = convergence_bounds(inp, k)
        assert cur[0] < prev[0] and cur[1] < prev[1]
        prev = cur


def test_no_overflow_at_large_k():
    inp = _inputs()
    b1, b2, b3 = convergence_bounds(inp, 100_000)
    assert np.isfinite(b1) and np.isfinite(b2) and np.isfinite(b3)
    assert b1 == 0.0 or b1 < 1e-300 or b1 >= 0.0


def test_degenerate_kappa_guard():
    inp = BoundInputs(2.0, 2.0, 2.0, 1.0, 0.5, 1.0)
    assert convergence_bounds(inp, 3) == (0.0, 0.0, 0.0)
    # two-point spectrum: theta_2 == theta_max makes the refined family
    # degenerate as well
    inp2 = BoundInputs(1.0, 5.0, 5.0, 1.0 - 1e-18, 0.5, 1.0)
    assert refined_convergence_bounds(inp2, 3) == (0.0, 0.0, 0.0)


def test_bounds_dominate_errors_small_instance():
    spec = crqopt.InstanceSpec(n=150, m=10, alpha=1.0, beta=50.0, zeta=0.9, rng_seed=3)
    prob, truth = crqopt.generate(spec)
    ref = crqopt.reference_solution(prob, truth)
    sol = crqopt.solve(prob, crqopt.SolveOptions(tol=1e-15, maxit=120, return_basis=True))
    inp = BoundInputs.from_truth(truth)
    rows = crqopt.history_table(sol, ref, inp)
    habs, labs = abs(ref.objective), abs(ref.mu)
    for row in rows:
        assert row["err1"] * habs <= row["b1"] * (1 + 1e-8) + 1e-14
        assert row["err2"] <= row["b2"] * (1 + 1e-8) + 1e-14
        assert row["err3"] * labs <= row["b3"] * (1 + 1e-8) + 1e-14


def test_error_history_matches_direct_recomputation():
    spec = crqopt.InstanceSpec(n=60, m=5, alpha=1.0, beta=20.0, zeta=0.9, rng_seed=4)
    prob, truth = crqopt.generate(spec)
    ref = crqopt.reference_solution(prob, truth)
    sol = crqopt.solve(prob, crqopt.SolveOptions(tol=1e-15, maxit=55, return_basis=True))
    rows = crqopt.error_history(sol, ref)
    records = crqopt.rebuild_history(sol)
    assert [row["k"] for row in rows] == [rec.k for rec in records] == list(range(1, sol.k + 1))
    rec = records[len(records) // 2]
    row = rows[len(rows) // 2]
    v_k = sol.krylov.n0 + sol.krylov.basis[:, : rec.k] @ rec.x
    assert row["err2"] == pytest.approx(np.linalg.norm(v_k - ref.v), rel=1e-12)
    h_k = float(v_k @ prob.A.matvec(v_k))
    assert rec.objective == pytest.approx(h_k, abs=1e-10 * (1 + abs(h_k)))
    assert row["err3"] == pytest.approx(abs(rec.mu - ref.mu) / abs(ref.mu), rel=1e-12)
