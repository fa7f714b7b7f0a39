import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.linalg as sla
from scipy.linalg import lapack

from conftest import (BlockRecordingOperator, breakdown_probe, degenerate_problem,
                      random_interior_problem)
from oracles import dense_projector, finite_step_check, krylov_slice_minimum

import crqopt
from crqopt import (CrqProblem, SolveOptions, build_reduction, classify,
                    direct_solve, hard_case_predicate, solve)
from crqopt.driver import DeltaProxy
from crqopt.errors import InfeasibleError, NotConvergedError


@pytest.mark.parametrize("kwargs", [
    {"method": "newton"}, {"maxit": 0},
], ids=["method", "maxit=0"])
def test_options_validated(kwargs):
    with pytest.raises(ValueError):
        SolveOptions(**kwargs)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
def test_options_reject_a_tol_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        SolveOptions(tol=tol)
    # tol = 0 asks for the exact answer, and stays valid
    assert SolveOptions(tol=0.0).tol == 0.0


def test_unique_point_short_circuit():
    p = CrqProblem(np.diag([3.0, 1.0]), np.array([[1.0], [0.0]]), [1.0])
    sol = solve(p)
    assert sol.case == crqopt.UNIQUE and sol.k == 0
    assert np.allclose(sol.v, [1.0, 0.0])
    assert sol.objective == pytest.approx(3.0)
    assert np.isnan(sol.residual)


def test_infeasible_raises():
    p = CrqProblem(np.eye(2), np.array([[1.0], [0.0]]), [2.0])
    with pytest.raises(InfeasibleError):
        solve(p)


def test_small_example_multiplier(small_example):
    for method in (crqopt.LGOPT, crqopt.QEPMIN):
        sol = solve(small_example, SolveOptions(method=method, tol=1e-15, maxit=20))
        assert sol.mu == pytest.approx(0.8333, abs=5e-4)
        assert sol.case == crqopt.EASY
        ref = direct_solve(small_example)
        assert np.linalg.norm(sol.v - ref.v) <= 1e-10
        assert sol.objective == pytest.approx(ref.objective, abs=1e-12)


def test_matches_direct_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(6):
        n = int(rng.integers(15, 50))
        m = int(rng.integers(1, 6))
        p = random_interior_problem(rng, n, m)
        sol = solve(p, SolveOptions(tol=1e-15, maxit=n))
        ref = direct_solve(p)
        assert np.linalg.norm(sol.v - ref.v) <= 1e-8
        assert abs(sol.mu - ref.mu) <= 1e-10 * (1.0 + abs(ref.mu))


def test_objective_history_nonincreasing():
    rng = np.random.default_rng(22)
    for _ in range(4):
        p = random_interior_problem(rng, 30, 3)
        sol = solve(p, SolveOptions(tol=1e-15, maxit=27, detect_hard=False, return_basis=True))
        objs = [rec.objective for rec in crqopt.rebuild_history(sol)]
        assert len(objs) == sol.k
        slack = 1e-12 * p.norm_a
        assert all(b <= a + slack for a, b in zip(objs, objs[1:]))


def test_iterate_is_krylov_slice_minimizer(small_example):
    feas = classify(small_example)
    A = np.diag([1.0, 2, 3, 4, 5])
    P = dense_projector(small_example.C)
    try:
        sol = solve(small_example, SolveOptions(tol=0.0, maxit=3, detect_hard=False,
                                                return_basis=True))
    except NotConvergedError as err:
        sol = err.solution
    records = crqopt.rebuild_history(sol)
    assert [rec.k for rec in records] == [1, 2, 3]
    for rec in records:
        v_k = feas.n0 + sol.krylov.run.basis(rec.k) @ rec.x
        h_k = float(v_k @ A @ v_k)
        oracle = krylov_slice_minimum(A, P, feas.n0, feas.b0, feas.gamma, rec.k)
        assert h_k <= oracle + 1e-8
        assert h_k == pytest.approx(oracle, abs=1e-8)


def test_final_multiplier_residual_scaled():
    rng = np.random.default_rng(23)
    p = random_interior_problem(rng, 40, 4)
    tol = 1e-12
    feas = classify(p)
    for method in (crqopt.LGOPT, crqopt.QEPMIN):
        sol = solve(p, SolveOptions(method=method, tol=tol, maxit=40))
        u = sol.v - feas.n0
        resid = np.linalg.norm(p.P.apply_P(p.A.matvec(u)) - sol.mu * u + feas.b0)
        scale = (p.norm_a + abs(sol.mu)) * feas.gamma + np.linalg.norm(feas.b0)
        assert resid <= tol * scale
        # the solution's own residual is the same quantity, formed from A v
        assert sol.residual == pytest.approx(resid, rel=1e-6, abs=1e-14 * scale)


def test_not_converged_payload():
    rng = np.random.default_rng(24)
    p = random_interior_problem(rng, 60, 3)
    with pytest.raises(NotConvergedError) as err:
        solve(p, SolveOptions(tol=1e-16, maxit=3, detect_hard=False))
    best = err.value.solution
    assert best is not None and best.k == 3


def _clustered_instance(values, repeats, m, seed, g0_scale=None):
    h = np.repeat(np.asarray(values, dtype=float), repeats)
    g0 = np.ones(h.size) if g0_scale is None else g0_scale
    rng = np.random.default_rng(seed)
    return crqopt.embed(h, g0, 0.8, m, rng)


def test_finite_step_two_distinct_eigenvalues():
    # two distinct reduced eigenvalues -> Krylov dimension 2
    prob, truth = _clustered_instance([1.0, 2.0], [6, 5], 3, seed=31)
    report = finite_step_check(prob)
    assert report["k_breakdown"] == 2
    assert report["passed"], report


def test_finite_step_identity_breaks_at_one():
    rng = np.random.default_rng(32)
    C = rng.standard_normal((8, 2))
    p = CrqProblem(np.eye(8) * 2.0, C, 0.2 * np.ones(2))
    feas = classify(p)
    sol = solve(p, SolveOptions(tol=0.0, maxit=8, detect_hard=False))
    assert sol.k == 1
    # v = n0 + gamma * q1 up to the sign fixed by the reduced solve
    assert abs(np.linalg.norm(sol.v - feas.n0) - feas.gamma) <= 1e-12


@pytest.mark.parametrize("seed", [33, 34, 35])
def test_finite_step_clustered_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 9))
    values = np.sort(rng.uniform(0.5, 6.0, d))
    repeats = rng.integers(2, 5, d)
    prob, truth = _clustered_instance(values, repeats, 3, seed=seed + 100)
    nm = prob.n - prob.m
    report = finite_step_check(prob)
    assert report["k_breakdown"] == d < nm
    assert report["passed"], report


def _hard_instance(seed, fill=0.5, nm=24, m=3, zeta=0.9, w0=0.0):
    """Reduced gradient orthogonal to the isolated bottom eigenvector,
    with the stationary point strictly inside the radius.  A nonzero
    ``w0`` gives the bottom eigenvector that much gradient weight."""
    rng = np.random.default_rng(seed)
    h = np.concatenate([[1.0], np.linspace(3.0, 10.0, nm - 1)])
    gamma = np.sqrt(1.0 - zeta**2)
    g_tail = rng.uniform(0.5, 1.5, nm - 1)
    w_norm = np.sqrt(np.sum((g_tail / (h[1:] - 1.0)) ** 2))
    g0 = np.concatenate([[w0], g_tail * (fill * gamma / w_norm)])
    return crqopt.embed(h, g0, zeta, m, rng)


def test_hard_case_detected_and_repaired():
    prob, truth = _hard_instance(41)
    assert truth.case_tag == "hard_boundary_padded"
    sol = solve(prob, SolveOptions(tol=1e-14, maxit=prob.n, rng_seed=5))
    assert sol.case == crqopt.HARD
    assert sol.mu == pytest.approx(1.0, abs=1e-6)
    ref = direct_solve(prob)
    assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
    assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-8
    assert np.linalg.norm(prob.C.T @ sol.v - prob.b) <= 1e-8
    assert sol.residual <= 1e-6


@pytest.fixture(scope="module")
def degenerate_1100():
    prob = degenerate_problem(3, 1100, 100)
    return prob, direct_solve(prob)


@pytest.mark.parametrize("maxit", [200, 205, 209, 212, 214, 220, 230])
def test_hard_case_repair_lands_on_the_sphere(degenerate_1100, maxit):
    # past k = 200 the least-squares padding base x_tilde picks up a
    # component along the bottom Ritz vector; the repair must remove it
    # so that v stays on the sphere and the objective at the reference
    prob, ref = degenerate_1100
    sol = solve(prob, SolveOptions(tol=1e-13, maxit=maxit))
    assert sol.case == crqopt.HARD
    assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-14
    assert abs(sol.objective - ref.objective) <= 1e-12


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n=st.integers(20, 60), m=st.integers(1, 8))
def test_reorthogonalized_easy_solve_matches_reference(seed, n, m):
    # run to tol 1e-14, most of these solves reach the breakdown region,
    # where the orthogonality estimate triggers a Gram-Schmidt pass in the
    # main loop
    prob = random_interior_problem(np.random.default_rng(seed), n, m)
    sol = solve(prob, SolveOptions(tol=1e-14, maxit=n, detect_hard=False))
    assume(sol.reorth_steps >= 1)
    ref = direct_solve(prob)
    assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-10
    assert abs(sol.objective - ref.objective) <= 1e-10 * (1.0 + abs(ref.objective))


def test_near_degenerate_reports_gap_but_stays_easy():
    # tiny but nonzero weight on the bottom eigenvector: genuinely easy,
    # with the multiplier close below the spectrum
    rng = np.random.default_rng(42)
    nm, m = 24, 3
    h = np.concatenate([[1.0], np.linspace(3.0, 10.0, nm - 1)])
    g0 = np.concatenate([[1e-5], rng.uniform(0.5, 1.5, nm - 1)])
    prob, truth = crqopt.embed(h, g0, 0.9, m, rng)
    sol = solve(prob, SolveOptions(tol=1e-13, maxit=prob.n, rng_seed=1))
    assert sol.case == crqopt.EASY
    assert sol.detection is not None
    assert sol.detection.gap == pytest.approx(1.0 - truth.lambda_star, abs=1e-5)


def test_checks_report_the_newton_solver():
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=2)
    prob, _ = crqopt.generate(spec)
    for method in (crqopt.LGOPT, crqopt.QEPMIN):
        sol = solve(prob, SolveOptions(method=method, detect_hard=False))
        assert sol.history[0].k == 1
        assert all(1 <= rec.solver_iterations <= 20 for rec in sol.history)


@pytest.mark.parametrize("detect", [True, False])
def test_degenerate_checks_need_no_full_eigendecomposition(monkeypatch, detect):
    # the criterion-9 pattern with a bottom-eigenvector gradient weight of
    # 1e-12: late checks see a nearly degenerate leading weight by
    # construction, which the reduced solve counts as zero, still in O(k)
    full = []
    eigh_tridiagonal = sla.eigh_tridiagonal

    def counting(d, e, *args, **kwargs):
        if kwargs.get("select", "a") == "a":
            full.append(d.size)
        return eigh_tridiagonal(d, e, *args, **kwargs)

    monkeypatch.setattr(sla, "eigh_tridiagonal", counting)
    prob, _ = _hard_instance(900, w0=1e-12)
    opts = SolveOptions(tol=1e-13, maxit=prob.n, rng_seed=0, detect_hard=detect)
    if detect:
        sol = solve(prob, opts)
        assert sol.case == crqopt.HARD
    else:
        # the run breaks down at k = 24 with its Lagrange bound above tol
        with pytest.raises(NotConvergedError) as err:
            solve(prob, opts)
        sol = err.value.solution
    assert full == []
    assert all(rec.solver_iterations >= 1 for rec in sol.history)


@pytest.mark.parametrize("w0", [1e-6, 1e-7, 1e-8, 1e-9])
def test_nearly_degenerate_answers_stay_on_the_sphere(w0):
    # a small bottom-eigenvector weight puts late reduced roots close to
    # theta_1, where ||x|| ~ |zeta_1| / (theta_1 - mu) magnifies an error in
    # mu; every answer the solve returns is still on the sphere and feasible
    for seed in range(4):
        prob = degenerate_problem(seed, 600, 60, w0=w0)
        bound = 1e-12 * (1.0 + np.linalg.norm(prob.b))
        for detect in (True, False):
            sol = solve(prob, SolveOptions(tol=1e-13, maxit=prob.n, rng_seed=0,
                                           detect_hard=detect))
            assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-12
            assert np.linalg.norm(prob.C.T @ sol.v - prob.b) <= bound


def test_detect_hard_easy_instance_reports_large_gap():
    spec = crqopt.InstanceSpec(n=120, m=10, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=44)
    prob, truth = crqopt.generate(spec)
    sol = solve(prob, SolveOptions(tol=1e-14, maxit=110))
    assert sol.case == crqopt.EASY
    # multiplier far below the projected spectrum bottom (easy case)
    assert sol.detection.gap > 1.0
    assert sol.mu == pytest.approx(truth.lambda_star, abs=1e-9 * (1 + abs(truth.lambda_star)))


# ---------------------------------------------------------------------------
# the check schedule


def _record_bits(rec):
    return (rec.k, rec.mu, rec.delta, rec.objective, rec.x.tobytes(), rec.solver_iterations)


def _replay_cases():
    """The criterion-5 draws and the n = 1100 worst cases at beta 10, 300
    and 1000, then three of them again with maxit below their stop step."""
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(20, 61))
        m = int(rng.integers(1, 9))
        yield random_interior_problem(rng, n, m), {"tol": 1e-14, "maxit": n, "detect_hard": False}
    worst = {}
    for beta in (10.0, 300.0, 1000.0):
        spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=beta, zeta=0.9, rng_seed=1)
        worst[beta] = crqopt.generate(spec)[0]
        yield worst[beta], {}
    yield random_interior_problem(rng, 40, 4), {"tol": 1e-14, "maxit": 3, "detect_hard": False}
    yield worst[10.0], {"maxit": 4}
    yield worst[1000.0], {"maxit": 30, "detect_hard": False}


@pytest.mark.parametrize("method", [crqopt.LGOPT, crqopt.QEPMIN])
def test_scheduled_checks_stop_where_checking_every_step_would(method):
    no_stop = 0
    for prob, kwargs in _replay_cases():
        opts = SolveOptions(method=method, return_basis=True, **kwargs)
        try:
            sol, raised = solve(prob, opts), False
        except NotConvergedError as err:
            sol, raised = err.solution, True
        rebuilt = {rec.k: rec for rec in crqopt.rebuild_history(sol)}
        # the first check runs at the first step
        assert min(rebuilt) == sol.history[0].k == 1 and max(rebuilt) == sol.k
        stops = [k for k, rec in rebuilt.items() if rec.delta <= opts.tol]
        if stops:
            assert sol.k == stops[0]
        else:
            # no step met tol: the run stopped at maxit or on breakdown, and raised
            breakdown_tol = np.finfo(float).eps ** (2.0 / 3.0) * max(prob.norm_a, 1.0)
            assert raised
            assert sol.k == min(opts.maxit, prob.n) or sol.krylov.run.beta[-1] <= breakdown_tol
            no_stop += 1
        assert sol.history[-1].k == sol.k
        for rec in sol.history:
            assert _record_bits(rec) == _record_bits(rebuilt[rec.k])
    # the three capped cases, on either route
    assert no_stop == 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 40), start=st.integers(1, 40),
       gap=st.floats(-2.0, 10.0))
def test_delta_proxy_follows_the_factorization(seed, k, start, gap):
    # random irreducible T_k and an anchor gap below its bottom eigenvalue
    # (a negative gap puts it above, so a pivot turns nonpositive)
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-5.0, 5.0, k)
    beta = rng.uniform(0.1, 3.0, k)  # beta[j - 1] couples steps j and j + 1
    beta1 = float(rng.uniform(0.1, 10.0))
    theta1 = crqopt.lanczos.bottom_eigenpair(alpha, beta[:k - 1])[0]
    mu = theta1 - gap
    start = min(start, k)
    proxy = DeltaProxy(alpha[:start], beta[:start - 1], beta1, mu, 1.0, 1.0, 0.0)
    for j in range(start, k + 1):
        if j > start:
            proxy.advance(alpha[j - 1], beta[j - 2])
        d, e, info = lapack.dpttrf(alpha[:j] - mu, beta[:j - 1] if j > 1 else np.zeros(1))
        if info != 0:
            assert proxy.due(beta[j - 1])
            return
        rhs = np.zeros(j)
        rhs[0] = -beta1
        x, _ = lapack.dpttrs(d, e, rhs)
        assert proxy.pivot == pytest.approx(d[-1], rel=1e-12)
        assert proxy.x_last == pytest.approx(abs(x[-1]), rel=1e-12)
        assert not proxy.due(beta[j - 1])
    assert proxy.due(float("nan"))


# ---------------------------------------------------------------------------
# hard-case detection exits


class _CountingOperator(crqopt.SymmetricOperator):
    """Counts A-applies by column (``applies``) and by call (``calls``, a
    block apply being one); the detection run's columns are the difference
    between solves with and without detection."""

    def __init__(self, op):
        super().__init__(op.n)
        self.op = op
        self.applies = self.calls = 0

    def matvec(self, x):
        self.applies += 1
        self.calls += 1
        return self.op.matvec(x)

    def matmat(self, X):
        self.applies += X.shape[1]
        self.calls += 1
        return self.op.matmat(X)


def _count_a_applies(prob, opts):
    counter = _CountingOperator(prob.A)
    sol = solve(CrqProblem(counter, prob.C, prob.b), opts)
    return sol, counter


def test_detection_on_worst_case_certifies_easy_early():
    # the detection run steps beside every main-loop step, in the main
    # loop's A-apply calls, and certifies at the loop's stop: it costs
    # columns, not calls
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, truth = crqopt.generate(spec)
    sol, with_detect = _count_a_applies(prob, SolveOptions())
    _, without = _count_a_applies(prob, SolveOptions(detect_hard=False))
    assert sol.case == crqopt.EASY
    assert sol.detection.certificate == "random_start_bound"
    assert with_detect.applies - without.applies == sol.detection.steps
    assert with_detect.calls == without.calls == 139
    assert sol.detection.steps == sol.detection.paired_steps == sol.k
    # the last Ritz value only bounds the spectrum bottom from above
    assert sol.detection.gap >= truth.theta[0] - truth.lambda_star - 1e-12


def test_qepmin_checks_apply_no_a():
    # one A-apply per Lanczos step and per detection step, 20 for the norm
    # estimate, 1 in classify (b0 and n0'A n0) and 1 at the returned v
    # (objective and residual): none per check and none at construction
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, _ = crqopt.generate(spec)
    sol, counter = _count_a_applies(prob, SolveOptions(method=crqopt.QEPMIN))
    assert sol.history[-1].k == sol.k
    assert counter.applies == sol.k + sol.detection.steps + 20 + 1 + 1


def test_lanczos_steps_project_once(monkeypatch):
    # one projected column per Lanczos step of the main loop and of
    # detection, one more per Gram-Schmidt pass, and 3 fixed: b0 in
    # classify, the random detection start and the residual at the
    # returned v.  A paired step projects its two columns as one block
    calls = []
    apply_P = crqopt.ProjectedOperator.apply_P

    def counting(self, c):
        calls.append(c.shape)
        return apply_P(self, c)

    monkeypatch.setattr(crqopt.ProjectedOperator, "apply_P", counting)
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, _ = crqopt.generate(spec)
    sol = solve(prob, SolveOptions())
    assert sol.case == crqopt.EASY
    steps = sol.k + sol.detection.steps
    passes = sol.reorth_steps + sol.detection.reorth_steps
    columns = sum(shape[1] if len(shape) == 2 else 1 for shape in calls)
    assert columns == steps + passes + 3
    assert set(calls) <= {(prob.n,), (prob.n, 2)}
    assert calls.count((prob.n, 2)) == sol.detection.paired_steps > 0


def test_paired_steps_apply_a_to_one_block(monkeypatch):
    # detection steps beside every step of the main loop, one (n, 2)
    # block per paired step, and forms no Ritz pair while the loop runs.
    # Judged after it, the random-start bound passes at the loop's stop:
    # one Ritz pair per solve, not one per step
    ritz_solves = []
    bottom_eigenpair = crqopt.lanczos.bottom_eigenpair

    def counting(alpha, beta):
        ritz_solves.append(alpha.size)
        return bottom_eigenpair(alpha, beta)

    monkeypatch.setattr(crqopt.lanczos, "bottom_eigenpair", counting)
    spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, _ = crqopt.generate(spec)
    recorder = BlockRecordingOperator(prob.A)
    problem = CrqProblem(recorder, prob.C, prob.b)
    # an operator is symmetric by contract: construction applies no block
    assert recorder.blocks == []
    sol = solve(problem, SolveOptions())
    paired = sol.detection.paired_steps
    assert recorder.blocks.count((prob.n, 2)) == paired == sol.detection.steps
    assert sol.detection.steps == sol.k
    assert sol.detection.certificate == "random_start_bound"
    assert ritz_solves == [sol.k]


@pytest.mark.parametrize("seed", [41, 900, 905, 909])
def test_hard_instances_certified_by_interlacing(seed):
    prob, _ = _hard_instance(seed)
    sol = solve(prob, SolveOptions(tol=1e-14, maxit=prob.n, rng_seed=5))
    assert sol.case == crqopt.HARD
    assert sol.detection.certificate == "interlacing"
    assert sol.detection.eig_converged


def test_unconverged_padding_is_reported(monkeypatch):
    # interlacing proves "hard" before step 12, but the eigenvector is
    # still short of EIG_TOL there
    monkeypatch.setattr(crqopt.driver, "EIG_MAXIT", 12)
    prob, _ = _hard_instance(41)
    with pytest.raises(NotConvergedError, match="EIG_TOL") as err:
        solve(prob, SolveOptions(tol=1e-14, maxit=prob.n, rng_seed=5))
    sol = err.value.solution
    assert sol.case == crqopt.HARD
    assert sol.detection.certificate == "interlacing"
    assert sol.detection.steps == 12
    assert not sol.detection.eig_converged


def test_detection_is_reported_only_where_it_ran():
    rng = np.random.default_rng(25)
    p = random_interior_problem(rng, 40, 4)
    assert solve(p, SolveOptions(tol=1e-12, maxit=40, detect_hard=False)).detection is None
    report = solve(p, SolveOptions(tol=1e-12, maxit=40)).detection
    assert report is not None and report.certified
    unique = CrqProblem(np.diag([3.0, 1.0]), np.array([[1.0], [0.0]]), [1.0])
    assert solve(unique).detection is None
    # b0 = 0 by construction: the shortcut's eigensolve is not a detection
    b0_zero, _ = crqopt.embed(np.linspace(1.0, 10.0, 60), np.zeros(60), 0.9, 3,
                              np.random.default_rng(0))
    sol = solve(b0_zero)
    assert sol.case == crqopt.B0_ZERO and sol.detection is None


def test_detection_report_holds_only_scalars():
    # the report keeps no reference to the detection run's Lanczos basis
    easy, _ = crqopt.generate(crqopt.InstanceSpec(n=120, m=10, alpha=1.0, beta=100.0, zeta=0.9,
                                                  rng_seed=44))
    hard, _ = _hard_instance(41)
    for prob, is_hard in ((easy, False), (hard, True)):
        report = solve(prob, SolveOptions(tol=1e-13, maxit=prob.n, rng_seed=5)).detection
        assert report.is_hard == is_hard
        for f in fields(report):
            value = getattr(report, f.name)
            assert value is None or type(value) in (bool, int, float, str), (f.name, type(value))


def test_uncertified_detection_warns(monkeypatch):
    monkeypatch.setattr(crqopt.driver, "EIG_MAXIT", 5)
    spec = crqopt.InstanceSpec(n=120, m=10, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=44)
    prob, _ = crqopt.generate(spec)
    with pytest.warns(RuntimeWarning, match="without a certificate"):
        sol = solve(prob, SolveOptions(tol=1e-14, maxit=110))
    assert sol.detection.certificate is None
    assert sol.detection.steps == 5


def _detection_instance(kind, seed, nm, m):
    """Small easy, near-degenerate or true hard instance."""
    rng = np.random.default_rng(seed)
    if kind == "easy":
        beta = float(rng.uniform(10.0, 1000.0))
        return crqopt.generate(crqopt.InstanceSpec(
            n=nm + m, m=m, alpha=1.0, beta=beta, zeta=0.9, rng_seed=seed))
    fill = float(rng.uniform(0.2, 0.8))
    prob, truth = _hard_instance(seed, fill=fill, nm=nm, m=m)
    if kind == "hard":
        return prob, truth
    g0 = truth.g0.copy()
    g0[0] = 10.0 ** rng.uniform(-5.5, -4.5)
    return crqopt.embed(truth.h_diag, g0, truth.zeta, m, rng)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["easy", "near", "hard"]),
       seed=st.integers(0, 2**16), nm=st.integers(12, 120), m=st.integers(1, 5))
def test_detection_decision_matches_predicate(kind, seed, nm, m):
    prob, truth = _detection_instance(kind, seed, nm, m)
    red = build_reduction(prob)
    sol = solve(prob, SolveOptions(tol=1e-13, maxit=prob.n, rng_seed=seed))
    assert (sol.case == crqopt.HARD) == hard_case_predicate(red, truth.gamma)
    assert sol.detection.certificate is not None
    if sol.detection.certificate == "random_start_bound":
        true_gap = red.theta[0] - sol.mu
        assert sol.detection.gap >= true_gap - 1e-10 * (1.0 + abs(sol.mu))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["easy", "near", "hard", "b0_zero"]),
       seed=st.integers(0, 2**16), nm=st.integers(12, 120), m=st.integers(1, 5),
       eig_maxit=st.integers(2, 40), data=st.data())
@pytest.mark.filterwarnings("ignore:hard-case detection")
def test_solve_returns_exactly_the_answers_that_met_their_tolerance(kind, seed, nm, m,
                                                                     eig_maxit, data):
    if kind == "b0_zero":
        prob, _ = crqopt.embed(np.linspace(1.0, 10.0, nm), np.zeros(nm), 0.9, m,
                               np.random.default_rng(seed))
    else:
        prob, _ = _detection_instance(kind, seed, nm, m)
    maxit = data.draw(st.integers(1, prob.n), label="maxit")
    opts = SolveOptions(tol=1e-13, maxit=maxit, rng_seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crqopt.driver, "EIG_MAXIT", eig_maxit)
        try:
            sol, raised = solve(prob, opts), None
        except NotConvergedError as err:
            sol, raised = err.solution, err
        assert sol is not None
        if sol.case == crqopt.B0_ZERO:
            # the shortcut's Ritz pair, formed again from the solve's seed
            run = crqopt.driver.DetectionRun(prob, np.random.default_rng(seed))
            met = run.finish(math.inf)[0].converged
    if sol.case == crqopt.HARD:
        met = sol.detection.eig_converged
    elif sol.case == crqopt.EASY:
        met = sol.history[-1].delta <= opts.tol
    assert (raised is None) == met, (sol.case, raised)
    if raised is not None:
        assert ("EIG_TOL" in str(raised)) == (sol.case != crqopt.EASY)


@pytest.mark.parametrize("method", [crqopt.LGOPT, crqopt.QEPMIN])
def test_a_breakdown_returns_only_an_answer_that_met_tol(method):
    # the probe runs break down with beta_{k+1} far above rounding, so a
    # breakdown certifies nothing: solve returns exactly where the last
    # check's delta met tol, each returned answer's exact residual is within
    # 1.2 tol, and each raise names the breakdown step and beta_{k+1}/||A||
    returned = raised_at_breakdown = 0
    for seed in range(6):
        for spread in (0.0, 1e-14, 1e-13):
            prob = breakdown_probe(seed, spread)
            feas = classify(prob)
            for tol in (1e-15, 1e-13):
                opts = SolveOptions(method=method, tol=tol, detect_hard=False, return_basis=True)
                try:
                    sol, raised = solve(prob, opts), None
                except NotConvergedError as err:
                    sol, raised = err.solution, err
                assert (raised is None) == (sol.history[-1].delta <= tol)
                if raised is None:
                    scale = (prob.norm_a + abs(sol.mu)) * feas.gamma + np.linalg.norm(feas.b0)
                    assert sol.residual / scale <= 1.2 * tol
                    returned += 1
                    continue
                assert sol.k < opts.maxit
                ratio = sol.krylov.run.beta[sol.k] / prob.norm_a
                named = f"broke down at step {sol.k} with beta_{{k+1}}/||A|| = {ratio:.3e}"
                assert named in str(raised)
                raised_at_breakdown += 1
    assert returned and raised_at_breakdown and returned + raised_at_breakdown == 36


def test_a_broken_down_detection_run_decides_uncertified(monkeypatch):
    # with EIG_TOL = 0 no Ritz pair converges, and at this gap the
    # random-start bound needs about 30 steps, so the run steps until it
    # breaks down; it stops there and decides by comparison, with a warning,
    # as at EIG_MAXIT
    monkeypatch.setattr(crqopt.driver, "EIG_TOL", 0.0)
    run = crqopt.driver.DetectionRun(breakdown_probe(1, 0.0), np.random.default_rng(0))
    with pytest.warns(RuntimeWarning, match="broke down after"):
        report = crqopt.detect_hard_case(run, 0.0)
    assert run.state.broke_down and report.steps == run.state.k < run.state.maxit
    assert report.certificate is None and not report.is_hard and not report.eig_converged
    assert run.ritz.resid == run.state.beta[run.ritz.k] * abs(run.ritz.s[-1]) > 0.0


@pytest.mark.parametrize("steps", [1, 68, 136, 137, 142, 167, 200])
def test_a_stepped_detection_run_is_judged_from_its_current_step(steps):
    # however far the run stepped before it is judged, finish tests that
    # step first and then every later one: it certifies where a fresh run
    # does (step 137 here), or at once where it has stepped past that
    spec = crqopt.InstanceSpec(n=400, m=40, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, truth = crqopt.generate(spec)
    mu = truth.lambda_star
    threshold = mu + 1e-8 * (1.0 + abs(mu))
    fresh = crqopt.driver.DetectionRun(prob, np.random.default_rng(3))
    fresh_ritz, fresh_certificate = fresh.finish(threshold)
    assert fresh_certificate == "random_start_bound" and fresh_ritz.k == 137
    stepped = crqopt.driver.DetectionRun(prob, np.random.default_rng(3))
    for _ in range(steps):
        crqopt.lanczos.lanczos_step(stepped.state)
    ritz, certificate = stepped.finish(threshold)
    assert certificate == "random_start_bound"
    assert ritz.k == max(steps, fresh_ritz.k)


def _solution(prob, opts):
    try:
        return solve(prob, opts)
    except NotConvergedError as err:
        return err.solution


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["easy", "near", "hard"]),
       seed=st.integers(0, 2**16), nm=st.integers(12, 120), m=st.integers(1, 5))
def test_lockstep_detection_leaves_the_main_run_alone(kind, seed, nm, m):
    # paired steps apply A and P to two-column blocks, which round
    # differently from the vector applies of a solve without detection.
    # Away from the hard case that moves neither the stop step nor the
    # iterate by more than the problem's conditioning,
    # eps ||A|| / (theta_1 - mu), and that is 1e-12 on the worst case.
    # On a hard instance the main run's late steps grow a rounding-seeded
    # component along the zero-weight bottom eigenvector, so its stop step
    # follows the rounding with or without detection; only the decision
    # is compared there.
    prob, truth = _detection_instance(kind, seed, nm, m)
    red = build_reduction(prob)
    opts = SolveOptions(tol=1e-13, maxit=prob.n, rng_seed=seed, return_basis=True)
    paired = _solution(prob, opts)
    assert (paired.case == crqopt.HARD) == hard_case_predicate(red, truth.gamma)
    if kind == "hard":
        return
    alone = _solution(prob, replace(opts, detect_hard=False))
    assert paired.k == alone.k
    tol = max(1e-12, np.finfo(float).eps * prob.norm_a / (red.theta[0] - alone.mu))
    iterates = [sol.krylov.n0 + sol.krylov.run.basis() @ sol.history[-1].x
                for sol in (paired, alone)]
    assert np.linalg.norm(iterates[0] - iterates[1]) <= tol
    assert paired.case == crqopt.EASY
    assert np.linalg.norm(paired.v - alone.v) <= tol


@pytest.mark.parametrize("method", [crqopt.LGOPT, crqopt.QEPMIN])
@pytest.mark.parametrize("seed", [3, 7])
def test_the_returned_basis_repeats_v_bit_for_bit(seed, method):
    # a float64 operator keeps float64 rows, and v = n0 + Q_k x is the
    # plain product, which the returned basis repeats
    spec = crqopt.InstanceSpec(n=400, m=40, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=seed)
    prob, _ = crqopt.generate(spec)
    sol = solve(prob, SolveOptions(method=method, maxit=prob.n, return_basis=True))
    assert sol.case == crqopt.EASY
    assert sol.krylov.run.dtype == np.float64
    assert np.array_equal(sol.v, sol.krylov.n0 + sol.krylov.run.basis() @ sol.history[-1].x)


def test_sigma_below_the_spectrum_refuses_the_random_start_bound():
    # with norm_bound half of ||A||, sigma = 1.05 norm_bound lies below
    # lambda_max(P A P); the run's top Ritz value shows it, the
    # random-start bound is refused with one warning, and detection ends
    # on convergence instead
    spec = crqopt.InstanceSpec(n=400, m=40, alpha=1.0, beta=1000.0, zeta=0.9, rng_seed=1)
    prob, _ = crqopt.generate(spec)
    true_norm = np.max(np.abs(np.linalg.eigvalsh(prob.A.apply(np.eye(prob.n)))))
    underestimated = BlockRecordingOperator(prob.A)
    underestimated.norm_bound = 0.5 * true_norm
    wrapped = CrqProblem(underestimated, prob.C, prob.b)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve(wrapped, SolveOptions(maxit=prob.n))
    refused = [w for w in caught if "sigma" in str(w.message)]
    assert len(refused) == 1 and refused[0].category is RuntimeWarning
    assert sol.detection.certificate not in (None, "random_start_bound")
    assert sol.case == crqopt.EASY
    assert sol.objective == pytest.approx(direct_solve(prob).objective, abs=1e-10)
