"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on passing runs as well.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import random_interior_problem
from oracles import bisection_secular_root, finite_step_check

import crqopt
from crqopt import (BoundInputs, InstanceSpec, SolveOptions,
                    classify, direct_solve, dual_check, generate,
                    hard_case_predicate, reference_solution, solve)
from crqopt.clustering import LabelSet, default_segment_options, segment
from crqopt.errors import NoRealEigenvalueError, NotConvergedError
from crqopt.lanczos import run as lanczos_run, tridiagonal_dense
from crqopt.reference import build_reduction, solve_pqepmin_dense, solve_qep_linearization


def _line(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


def _solve_collect(problem, opts):
    try:
        return solve(problem, opts)
    except NotConvergedError as err:
        return err.solution


# ---------------------------------------------------------------------------
# 1. small worked example: dense QEP spectrum, reduced QEP with and
#    without the edge term

def test_criterion_1_small_example_spectra(small_example):
    t0 = time.perf_counter()
    feas = classify(small_example)
    red = build_reduction(small_example)
    mu_dense, _, _, _ = solve_pqepmin_dense(red, feas.gamma)

    state = lanczos_run(small_example.A, feas.b0, 2, small_example.P,
                        norm_scale=small_example.norm_a)
    a, b = state.tridiagonal()
    T = tridiagonal_dense(a, b)
    coupling = np.zeros((2, 2))
    coupling[0, 0] = -state.beta[0] ** 2 / feas.gamma**2
    mu_dropped, _, _, dropped_spectrum = solve_qep_linearization(T, coupling)
    dropped_vals = np.sort(dropped_spectrum.real)
    mu_reduced = crqopt.solve_reduced_qep(a, b, state.beta[0], feas.gamma).mu

    coupling[1, 1] = abs(state.beta[2])
    kept_vals = np.sort_complex(sla.eig(
        np.block([[T, coupling], [-np.eye(2), T]]), right=False))
    with pytest.raises(NoRealEigenvalueError):
        solve_qep_linearization(T, coupling)
    elapsed = time.perf_counter() - t0

    ok_dense = abs(mu_dense - 0.8333) <= 5e-4
    ok_dropped = (np.max(np.abs(dropped_spectrum.imag)) <= 1e-8
                  and np.allclose(dropped_vals, [1.1429, 2.2661, 2.8915, 4.0672], atol=5e-4)
                  and abs(mu_reduced - mu_dropped) <= 1e-10 * (1.0 + abs(mu_dropped)))
    expected_kept = np.sort_complex(np.array(
        [1.8124 - 0.4172j, 1.8124 + 0.4172j, 3.3714 - 0.2547j, 3.3714 + 0.2547j]))
    ok_kept = (np.allclose(kept_vals, expected_kept, atol=5e-4)
               and np.min(np.abs(kept_vals.imag)) > 1e-3)
    ok = ok_dense and ok_dropped and ok_kept and elapsed < 1.0
    _line(1, ok, f"mu_dense={mu_dense:.4f}, dropped={np.round(dropped_vals, 4)}, "
                 f"kept complex={ok_kept}, runtime={elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. large benchmark instances: ground-truth values and machine-precision
#    convergence of all three error measures

@pytest.mark.parametrize("beta,lam_expect,kappa_expect", [
    (100.0, -42.6007, 3.2706),
    (1000.0, -18.2629, 52.8613),
])
def test_criterion_2_benchmark_convergence(beta, lam_expect, kappa_expect):
    t0 = time.perf_counter()
    spec = InstanceSpec(n=1100, m=100, alpha=1.0, beta=beta, zeta=0.9, rng_seed=2)
    prob, truth = generate(spec)
    ref = reference_solution(prob, truth)
    sol = solve(prob, SolveOptions(method=crqopt.LGOPT, tol=1e-15, maxit=200,
                                   return_basis=True))
    rows = crqopt.error_history(sol, ref)
    last = rows[-1]
    elapsed = time.perf_counter() - t0
    ok_truth = (abs(truth.lambda_star - lam_expect) <= 5e-4
                and abs(truth.kappa - kappa_expect) <= 1e-3)
    ok_err = max(last["err1"], last["err2"], last["err3"]) <= 1e-10
    ok = ok_truth and ok_err and elapsed < 30.0
    _line(2, ok, f"beta={beta:g}: lambda*={truth.lambda_star:.4f}, "
                 f"kappa={truth.kappa:.4f}, k={sol.k}, "
                 f"errs=({last['err1']:.1e},{last['err2']:.1e},{last['err3']:.1e}), "
                 f"runtime={elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. near-degenerate benchmark: ground-truth constants, dominance of the
#    observed errors by both bound families, and the plain/refined
#    crossover that the bound formulas give

def _log_growth(kappa):
    """ln Gamma, Gamma = (sqrt(kappa)+1)/(sqrt(kappa)-1)."""
    return np.log((np.sqrt(kappa) + 1.0) / (np.sqrt(kappa) - 1.0))


def _refined_over_plain(inp, k):
    """Refined/plain ratio of each envelope (objective, iterate, multiplier)."""
    return (np.array(crqopt.refined_convergence_bounds(inp, k))
            / np.array(crqopt.convergence_bounds(inp, k)))


def test_criterion_3_near_degenerate_bounds():
    spec = InstanceSpec(n=1100, m=100, alpha=2.0, beta=1000.0, zeta=0.9,
                        g0_kind="geometric", eta=-5e-3,
                        spectrum_kind="chebyshev_plus_isolated", iso_value=1.0,
                        rng_seed=3)
    prob, truth = generate(spec)
    ok_values = (truth.theta[0] == 1.0
                 and abs(truth.lambda_star - 0.9845) <= 5e-4
                 and abs(truth.kappa - 6.4466e4) <= 1e1
                 and abs(truth.kappa_plus - 983.7702) <= 1e-1)

    ref = reference_solution(prob, truth)
    sol = _solve_collect(prob, SolveOptions(method=crqopt.LGOPT, tol=1e-15,
                                            maxit=200, return_basis=True))
    # near-degenerate but generic: the diagnostic reports the gap between
    # the multiplier and the bottom of the projected spectrum
    gap_ok = sol.case == crqopt.EASY and abs(sol.detection.gap - 0.0155) <= 1e-3
    ok_values = ok_values and gap_ok
    inp = BoundInputs.from_truth(truth)
    rows = crqopt.history_table(sol, ref, inp)
    habs, labs = abs(ref.objective), abs(ref.mu)

    refined_dominates = all(
        r["err1"] * habs <= r["b1p"] * (1 + 1e-6)
        and r["err2"] <= r["b2p"] * (1 + 1e-6)
        and r["err3"] * labs <= r["b3p"] * (1 + 1e-6)
        and np.isfinite(r["b1p"]) and np.isfinite(r["b2p"]) and np.isfinite(r["b3p"])
        for r in rows
    )
    plain_dominates_errors = all(
        r["err1"] * habs <= r["b1"] * (1 + 1e-6)
        and r["err2"] <= r["b2"] * (1 + 1e-6)
        and r["err3"] * labs <= r["b3"] * (1 + 1e-6)
        for r in rows
    )

    # The refined family carries the prefactor rho and decays with
    # Gamma_+ > Gamma, so refined/plain starts near rho, falls strictly in
    # k and crosses 1 once.  To leading order the iterate ratio is
    # rho * Gamma_+ * (Gamma/Gamma_+)^k, which gives the crossover
    # k_c = (ln rho + ln Gamma_+)/(ln Gamma_+ - ln Gamma); the objective
    # ratio is exactly (iterate ratio)^2 / rho, so it crosses where the
    # iterate ratio reaches sqrt(rho).  The multiplier envelope is
    # dominated by its iterate-like term, so it shares k_c.
    rho = (inp.theta_max - inp.theta_min) / (inp.theta_min - inp.lambda_star)
    log_g, log_gp = _log_growth(inp.kappa), _log_growth(inp.kappa_plus)
    k_c = (np.log(rho) + log_gp) / (log_gp - log_g)
    k_closed = np.array([(0.5 * np.log(rho) + log_gp) / (log_gp - log_g), k_c, k_c])
    ks = np.arange(1, 401)
    ratio = np.array([_refined_over_plain(inp, k) for k in ks])
    ratio_decreasing = bool(np.all(np.diff(ratio, axis=0) < 0.0))
    crossed = ratio <= 1.0
    k_cross = [int(ks[np.argmax(crossed[:, j])]) if crossed[:, j].any() else None
               for j in range(3)]
    crossover_ok = k_cross[1] is not None and abs(k_cross[1] - k_c) <= 1.0
    identity_ok = bool(np.allclose(ratio[:, 0], ratio[:, 1] ** 2 / rho,
                                   rtol=1e-12, atol=0.0))
    # well past the crossover the leading-order iterate ratio is exact up
    # to a factor 1 + Gamma^-2k (~1.002 here), and the other two measures
    # fall at least as fast; at k = 2 k_c it is about 1/(rho Gamma_+)
    k_far = int(np.ceil(2.0 * k_c))
    far_factor = rho * np.exp(log_gp - k_far * (log_gp - log_g))
    far_ratio = _refined_over_plain(inp, k_far)
    far_ok = bool(abs(far_ratio[1] / far_factor - 1.0) <= 0.01
                  and np.all(far_ratio <= 1.01 * far_factor))

    crossover_text = ", ".join(
        f"{name} k={kx} (closed form {kcl:.1f})"
        for name, kx, kcl in zip(("b1", "b2", "b3"), k_cross, k_closed))
    ok = (ok_values and refined_dominates and plain_dominates_errors
          and ratio_decreasing and crossover_ok and identity_ok and far_ok)
    _line(3, ok,
          f"lambda*={truth.lambda_star:.4f}, kappa={truth.kappa:.4e}, "
          f"kappa+={truth.kappa_plus:.4f}, rho={rho:.4e}, both families "
          f"dominate errors: {refined_dominates and plain_dominates_errors}, "
          f"refined/plain strictly decreasing for k=1..400: {ratio_decreasing}, "
          f"crossover: {crossover_text}, b1 ratio = b2 ratio^2/rho: "
          f"{identity_ok}, max refined/plain at k={k_far}: "
          f"{far_ratio.max():.3e} (leading order {far_factor:.3e})")
    assert ok_values, "ground-truth constants off"
    assert refined_dominates, "refined bounds fail to dominate observed errors"
    assert plain_dominates_errors, "plain bounds fail to dominate observed errors"
    assert ratio_decreasing, (
        "refined/plain envelope ratio is not strictly decreasing for "
        "k=1..400, although kappa+ < kappa gives the refined family the "
        "faster rate")
    assert crossover_ok, (
        f"iterate envelopes cross at k={k_cross[1]}, not within one step of "
        f"the closed form {k_c:.1f}; crossover: {crossover_text}")
    assert identity_ok, "objective ratio differs from (iterate ratio)^2 / rho"
    assert far_ok, (
        f"at k={k_far} the refined/plain ratios {far_ratio} do not match the "
        f"leading-order value rho Gamma_+ (Gamma/Gamma_+)^k = {far_factor:.3e} "
        f"to 1%")


# ---------------------------------------------------------------------------
# 4. bound dominance across seeded benchmark instances

def test_criterion_4_bound_dominance():
    failures = []
    checked = 0
    eps = np.finfo(float).eps
    for seed in range(20):
        n = 160 + 10 * (seed % 5)
        beta = (20.0, 50.0, 100.0, 400.0)[seed % 4]
        spec = InstanceSpec(n=n, m=10, alpha=1.0, beta=beta,
                            zeta=(0.7, 0.8, 0.9)[seed % 3], rng_seed=seed)
        prob, truth = generate(spec)
        ref = reference_solution(prob, truth)
        sol = _solve_collect(prob, SolveOptions(tol=1e-15, maxit=n - 15,
                                                return_basis=True, detect_hard=False))
        inp = BoundInputs.from_truth(truth)
        rows = crqopt.history_table(sol, ref, inp)
        habs = abs(ref.objective)
        # measured errors bottom out at the rounding floor of the
        # objective/iterate computation; the decaying bounds only apply
        # above it
        floor1 = 64.0 * eps * (habs + prob.norm_a)
        floor2 = 64.0 * eps * np.sqrt(n)
        for r in rows:
            checked += 1
            if not (r["err1"] * habs <= r["b1"] * (1 + 1e-6) + floor1
                    and r["err2"] <= r["b2"] * (1 + 1e-6) + floor2):
                failures.append((seed, r["k"]))
    ok = not failures
    _line(4, ok, f"20 instances, {checked} steps, violations={failures[:4]}")
    assert ok


# ---------------------------------------------------------------------------
# 5. both reduced routes agree with each other and with the dense solver;
#    each qepmin reduced solve, of the checks and of the steps replayed
#    after the solve, agrees with the dense linearization of its T_k

def test_criterion_5_route_and_oracle_agreement(monkeypatch):
    calls = []
    reduced = crqopt.driver.solve_rlgopt

    def recording(alpha, beta, beta1, gamma):
        red = reduced(alpha, beta, beta1, gamma)
        calls.append((np.array(alpha), np.array(beta), beta1, gamma, red.mu))
        return red

    monkeypatch.setattr(crqopt.driver, "solve_rlgopt", recording)
    rng = np.random.default_rng(55)
    worst_v, worst_mu, worst_lin = 0.0, 0.0, 0.0
    shared, identical, once = 0, True, True
    checks = []
    for _ in range(50):
        n = int(rng.integers(20, 61))
        m = int(rng.integers(1, 9))
        prob = random_interior_problem(rng, n, m)
        ref = direct_solve(prob)
        sols = {}
        rebuilt = {}
        for method in (crqopt.LGOPT, crqopt.QEPMIN):
            start = len(calls)
            sols[method] = _solve_collect(
                prob, SolveOptions(method=method, tol=1e-14, maxit=n, detect_hard=False,
                                   return_basis=True))
            # one reduced solve per check on either route
            once = once and len(calls) - start == len(sols[method].history)
            # every step's reduced solve, replayed after the solve
            rebuilt[method] = crqopt.rebuild_history(sols[method])
            if method == crqopt.QEPMIN:
                checks += calls[start:]
        for method, sol in sols.items():
            worst_v = max(worst_v, float(np.linalg.norm(sol.v - ref.v)))
            worst_mu = max(worst_mu,
                           abs(sol.mu - ref.mu) / (1.0 + abs(ref.mu)))
        hist_l = {r.k: r for r in rebuilt[crqopt.LGOPT]}
        hist_q = {r.k: r for r in rebuilt[crqopt.QEPMIN]}
        for k in set(hist_l) & set(hist_q):
            shared += 1
            identical = (identical and hist_l[k].mu == hist_q[k].mu
                         and hist_l[k].x.tobytes() == hist_q[k].x.tobytes())
    for alpha, beta, beta1, gamma, mu in checks:
        coupling = np.zeros((alpha.size, alpha.size))
        coupling[0, 0] = -beta1**2 / gamma**2
        mu_lin, _, _, _ = solve_qep_linearization(tridiagonal_dense(alpha, beta), coupling)
        worst_lin = max(worst_lin, abs(mu - mu_lin) / (1.0 + abs(mu)))
    ok = (worst_v <= 1e-8 and worst_mu <= 1e-10 and identical and once and len(checks) > 0
          and worst_lin <= 1e-10)
    _line(5, ok, f"max |v-v*|={worst_v:.2e}, max |mu-lambda*|={worst_mu:.2e}, "
                 f"lgopt/qepmin (mu, x) identical at {shared} shared k: {identical}, "
                 f"one reduced solve per check: {once}, "
                 f"max gap to the dense linearization over {len(checks)} "
                 f"qepmin reduced solves={worst_lin:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 6. residual bound property on the QEP route

def test_criterion_6_residual_bound(qep_residuals):
    rng = np.random.default_rng(66)
    total = 0
    reached = []
    for beta in (100.0, 1000.0):
        spec = InstanceSpec(n=1100, m=100, alpha=1.0, beta=beta, zeta=0.9, rng_seed=6)
        prob, _ = generate(spec)
        sol = _solve_collect(prob, SolveOptions(method=crqopt.QEPMIN, tol=1e-15,
                                                maxit=200, detect_hard=False))
        total += len(sol.history)
        below = [r.k for r in sol.history if r.delta < 8e-5]
        reached.append(below[0] if below else None)
    for _ in range(10):
        prob = random_interior_problem(rng, int(rng.integers(15, 45)), 3)
        sol = _solve_collect(prob, SolveOptions(method=crqopt.QEPMIN, tol=1e-13,
                                                maxit=prob.n, detect_hard=False))
        total += len(sol.history)
    # one reduced solve per check, each read by the QEP bound
    once = len(qep_residuals) == total and None not in qep_residuals
    violations = sum(1 for nres, delta in filter(None, qep_residuals)
                     if nres > delta * (1 + 1e-12))
    ok = once and violations == 0 and all(k is not None for k in reached)
    _line(6, ok, f"{total} checks, NRes<=delta violations={violations}, "
                 f"delta<8e-5 reached at k={reached}")
    assert ok


# ---------------------------------------------------------------------------
# 7. secular solver against the bisection oracle

def test_criterion_7_secular_solver():
    rng = np.random.default_rng(77)
    worst_gap, worst_iters = 0.0, 0
    for _ in range(200):
        ell = int(rng.integers(1, 51))
        theta = np.sort(rng.standard_normal(ell) * rng.uniform(0.5, 5.0))
        xi = rng.standard_normal(ell)
        gamma = float(rng.uniform(0.2, 2.0))
        lam, iters = crqopt.smallest_root(crqopt.make_spec(theta, xi, gamma))
        oracle = bisection_secular_root(theta, xi, gamma, iters=200)
        worst_gap = max(worst_gap, abs(lam - oracle) / (1.0 + abs(theta[0])))
        worst_iters = max(worst_iters, iters)
    ok = worst_gap <= 1e-12 and worst_iters <= 60
    _line(7, ok, f"200 specs, max gap={worst_gap:.2e}, max iterations={worst_iters}")
    assert ok


# ---------------------------------------------------------------------------
# 8. finite-step termination on closed Krylov subspaces

def test_criterion_8_finite_step():
    rng_master = np.random.default_rng(88)
    bad = []
    for trial in range(20):
        d = int(rng_master.integers(2, 9))
        values = np.sort(rng_master.uniform(0.5, 8.0, d))
        repeats = rng_master.integers(2, 5, d)
        h = np.repeat(values, repeats)
        m = int(rng_master.integers(1, 4))
        prob, truth = crqopt.embed(h, np.ones(h.size), 0.8, m,
                                   np.random.default_rng(1000 + trial))
        report = finite_step_check(prob)
        if report["k_breakdown"] != d or not report["passed"]:
            bad.append((trial, d, report))
    ok = not bad
    _line(8, ok, f"20 engineered instances, failures={bad[:2]}")
    assert ok


# ---------------------------------------------------------------------------
# 9. degenerate-case handling

def _hard_instance(seed, fill, nm=26, m=3, zeta=0.9):
    rng = np.random.default_rng(seed)
    h = np.concatenate([[1.0], np.linspace(3.0, 11.0, nm - 1)])
    gamma = np.sqrt(1.0 - zeta**2)
    g_tail = rng.uniform(0.5, 1.5, nm - 1)
    w_norm = np.sqrt(np.sum((g_tail / (h[1:] - 1.0)) ** 2))
    g0 = np.concatenate([[0.0], g_tail * (fill * gamma / w_norm)])
    return crqopt.embed(h, g0, zeta, m, rng)


@pytest.mark.filterwarnings("ignore:nearly degenerate reduced problem")
def test_criterion_9_hard_case():
    bad = []
    for trial in range(10):
        fill = 0.2 + 0.06 * trial
        prob, truth = _hard_instance(900 + trial, fill)
        red = build_reduction(prob)
        pred = hard_case_predicate(red, truth.gamma)
        sol = _solve_collect(prob, SolveOptions(tol=1e-13, maxit=prob.n,
                                                rng_seed=trial))
        ref = direct_solve(prob)
        obj_gap = abs(sol.objective - ref.objective)
        if not (pred and sol.case == crqopt.HARD and obj_gap <= 1e-6):
            bad.append((trial, pred, sol.case, obj_gap))
    ok = not bad
    _line(9, ok, f"10 degenerate instances, failures={bad[:3]}")
    assert ok


# ---------------------------------------------------------------------------
# 10. dual eigenvalue-optimization cross-check

def test_criterion_10_dual_values():
    rng = np.random.default_rng(101)
    worst = 0.0
    min_mass_eig = np.inf
    for _ in range(20):
        n = int(rng.integers(10, 61))
        m = int(rng.integers(1, min(6, n - 3)))
        prob = random_interior_problem(rng, n, m,
                                       target_n0=float(rng.uniform(0.3, 0.8)))
        ref = direct_solve(prob)
        _, f_star, gap = dual_check(prob)
        worst = max(worst, gap / (1.0 + abs(ref.objective)))
        from crqopt.reference import _dual_matrices

        _, _, M = _dual_matrices(prob)
        min_mass_eig = min(min_mass_eig, float(sla.eigvalsh(M)[0]))
    ok = worst <= 1e-6 and min_mass_eig > 0.0
    _line(10, ok, f"20 instances, max relative duality gap={worst:.2e}, "
                  f"min mass-matrix eigenvalue={min_mass_eig:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 11. clustering pipeline

def test_criterion_11_clustering():
    img = np.zeros((8, 8))
    img[:, 4:] = 1.0
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    opts = SolveOptions(method=crqopt.QEPMIN, tol=1e-10, maxit=60, detect_hard=False)
    mask, _, stats8 = segment(img, labels, delta=0.1, r=2, opts=opts)
    exact = np.array_equal(mask, img < 0.5) and mask[4, 1] and not mask[4, 6]
    c_plus, c_minus = stats8["c_plus"], stats8["c_minus"]
    constraint_ok = stats8["constraint_residual"] <= 1e-6 * (abs(c_plus) + abs(c_minus))

    size = 256
    yy, xx = np.mgrid[0:size, 0:size]
    big = np.where(xx < size // 2, 60.0, 180.0) + 10.0 * np.sin(yy / 9.0) + 6.0 * np.cos(xx / 7.0)
    big_labels = LabelSet.from_pixels(big.shape, [(128, 30)], [(128, 220)])
    t0 = time.perf_counter()
    mask_big, _, stats = segment(big, big_labels, delta=0.1, r=5,
                                 opts=default_segment_options())
    elapsed = time.perf_counter() - t0
    big_ok = (elapsed < 10.0 and stats["converged"]
              and mask_big[128, 30] and not mask_big[128, 220])
    ok = exact and constraint_ok and big_ok
    _line(11, ok, f"8x8 exact={exact}, constraints={stats8['constraint_residual']:.1e}, "
                  f"256x256: {elapsed:.1f}s, steps={stats['steps']}, "
                  f"converged={stats['converged']}")
    assert ok
