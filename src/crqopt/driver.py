"""Main Lanczos driver: iterate, check, recover, diagnose.

One solve classifies the instance, handles the boundary cases (the
single feasible point, and b0 = 0, settled by one projected
eigensolve), then runs the projected Lanczos process started at b0.  At
every step from ``minit`` on, one ``secular.solve_rlgopt`` call solves
the reduced multiplier problem on both routes, and ``method`` picks only
the certificate read from its ``ReducedLgSolution``: the Lagrange
residual bound (``lgopt``), or ``qepmin.qep_residual_bound`` on the
reduced QEP eigenpair it holds (``qepmin``).  Each check is one O(k)
reduced solve plus an O(1) bound ``delta``, and applies no operator.
The loop stops when ``delta`` drops below the tolerance, on breakdown
(which makes the reduced solve exact), or at the iteration cap.  The
minimizer is recovered as v = n0 + Q_k x, and the one exact residual
||P(Av) - mu (v - n0)|| is taken at the v the solve returns.

Degenerate instances - where the optimal multiplier coincides with the
bottom of the projected spectrum and the Krylov space is blind to the
relevant eigenvector - are detected and repaired by padding the
minimum-norm solution with the bottom eigenvector.  The test is one
comparison, lambda_min(P A P) against mu + eps, made by a second Lanczos
run on P A P from a random projected start.  It decides at the first of
four exits:

1. "interlacing": the smallest Ritz value theta_j decreases toward
   lambda_min, so theta_j <= mu + eps proves "hard".  The run goes on to
   ``eig_tol`` because the padding needs the eigenvector.
2. "random_start_bound": the bound of Kuczynski & Wozniakowski (SIAM J.
   Matrix Anal. Appl. 13(4), 1992) for Lanczos on sigma I - P A P, with
   sigma a margin above the norm estimate and a start uniform on the
   sphere of null(C'), says that lambda_min < mu + eps has probability
   below ``KW_DELTA``; the run declares "easy" without an eigenvector.
   ``hard_gap`` is then theta_j - mu, an upper bound on the true gap.
   The bound needs sigma >= lambda_max(P A P); a top Ritz value above
   sigma disproves that, and the exit is then refused with a warning.
3. "converged": the Ritz residual met ``eig_tol``; decide by comparison.
4. ``eig_maxit`` reached: decide by comparison, uncertified, and warn.

When detection steps: the detection run starts before the main loop
and advances with it in lockstep.  Each paired step applies A once to
the two runs' current vectors as an n x 2 block, and projects the two
recurrence residuals as one block; the rest of each step is the run's
own.  The run stops stepping (pauses) once it has a converged Ritz pair
or a provisional pass of the random-start bound, and after the main
loop it goes on alone if it has not paused or its pause does not hold.

When it tests: a Ritz pair costs a small tridiagonal eigensolve, so the
run forms one only where an exit can fire.  While the main loop runs,
the threshold is the current check's mu_k + eps.  At or below it the
run tests every step until the pair meets ``eig_tol``; above it, the
next test is the first step at which the random-start bound could pass
given the current theta_j, since theta only falls.

Why a certificate is judged only at the final threshold: mu_k moves
from check to check, so a provisional pass at mu_k says nothing about
mu + eps.  The provisional tests only decide when the run pauses.
After the loop the paused step is judged again at mu + eps (O(1) for
the bound, one comparison for a converged pair), and every step after
it is tested there too.  Every certificate therefore rests on bounds at
one threshold, at most one per step, and the union bound of
``KW_DELTA`` over ``eig_maxit`` steps is unchanged.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EigFailureError, InfeasibleError, NotConvergedError
from .lanczos import (BROKE_DOWN, bottom_ritz_pair, lanczos_init, lanczos_pair_step,
                      lanczos_step, smallest_eigenpair, top_eigenvalue)
from .problem import INFEASIBLE, INTERIOR, UNIQUE_POINT, b0_zero_threshold, classify
# benchmarks/tracing.py wraps driver.solve_reduced_qep by name, so the
# name stays bound here; the driver never calls it
from .qepmin import qep_residual_bound, solve_reduced_qep
from .secular import solve_rlgopt

EASY = "easy"
HARD = "hard_detected"
B0_ZERO = "b0_zero"
UNIQUE = "unique_point"

LGOPT = "lgopt"
QEPMIN = "qepmin"

INTERLACING = "interlacing"
RANDOM_START_BOUND = "random_start_bound"
CONVERGED = "converged"

# Allowed probability of a false "easy" at each detection step; a union
# bound over eig_maxit = 500 steps keeps the total below 5e-8.
KW_DELTA = 1e-10
# sigma = NORM_MARGIN * norm_a must bound lambda_max(P A P) from above;
# norm_a is the operator's rigorous bound where it has one, else a
# 20-step Lanczos estimate, a lower bound on ||A||.
NORM_MARGIN = 1.05


@dataclass
class SolveOptions:
    method: str = LGOPT
    tol: float = 1e-15
    maxit: int = 200
    minit: int = 1
    detect_hard: bool = True
    return_basis: bool = False
    rng_seed: int = 0
    eig_tol: float = 1e-8
    eig_maxit: int = 500

    def __post_init__(self):
        if self.method not in (LGOPT, QEPMIN):
            raise ValueError(f"method must be '{LGOPT}' or '{QEPMIN}'")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")
        if self.minit > self.maxit:
            raise ValueError("minit must not exceed maxit")


@dataclass
class CheckRecord:
    """One check of the main loop.  ``solver`` names the reduced solver
    that ran (``"newton"`` or ``"eig"``, see ``secular.solve_rlgopt``) and
    ``solver_iterations`` its LDL' factorizations (0 on ``"eig"``)."""

    k: int
    mu: float
    delta: float
    objective: float
    x: np.ndarray
    solver: str = None
    solver_iterations: int = 0


@dataclass
class CrqSolution:
    """The returned v with its multiplier and objective.  ``residual`` is
    the exact multiplier-equation residual ||P(Av) - mu (v - n0)|| at v,
    unscaled; it is NaN at the unique point, which has no multiplier.
    ``extras["reorth_steps"]`` counts the Lanczos steps of the main loop
    (of the eigensolve when b0 = 0) that ran a Gram-Schmidt pass, and
    ``extras["detect_reorth_steps"]`` those of hard-case detection."""

    v: np.ndarray
    mu: float
    k: int
    history: list
    case: str
    objective: float
    n0: np.ndarray = None
    gamma: float = None
    hard_gap: float = None
    basis: np.ndarray = None
    converged: bool = True
    residual: float = None
    extras: dict = field(default_factory=dict)


@dataclass
class HardCaseReport:
    """Outcome of ``detect_hard_case``.

    ``lambda_min`` is the last smallest Ritz value, an upper bound on
    the bottom of the projected spectrum, and ``gap`` is it minus the
    reduced multiplier.  ``eig_converged`` says whether that Ritz pair
    met ``eig_tol``; ``certificate`` names the exit that backs the
    decision (None when ``eig_maxit`` ran out first) and ``steps`` counts
    the detection run's Lanczos steps, ``reorth_steps`` those of them
    that ran a Gram-Schmidt pass and ``paired_steps`` those taken in
    lockstep with the main loop.  ``v`` holds the padding pair
    ``(x_tilde, z)`` on a hard decision.
    """

    is_hard: bool
    lambda_min: float
    gap: float
    eig_converged: bool
    v: tuple = None
    certificate: str = None
    steps: int = 0
    reorth_steps: int = 0
    paired_steps: int = 0

    @property
    def certified(self):
        return self.certificate is not None


def crq_solution(problem, v, mu, case, n0, gamma, k=0, history=None, **fields):
    """A ``CrqSolution`` at v.  The objective v'Av costs one A-apply, and
    the residual reuses Av at the cost of one P-apply."""
    Av = problem.A.matvec(v)
    residual = np.linalg.norm(problem.projected_operator().apply_P(Av) - mu * (v - n0))
    return CrqSolution(
        v=v, mu=float(mu), k=k, history=[] if history is None else history,
        case=case, objective=float(v @ Av), n0=n0, gamma=gamma,
        residual=float(residual), **fields,
    )


def unique_point_solution(problem, feas):
    """The single feasible point v = n0 of an instance with ||n0|| = 1."""
    return crq_solution(problem, feas.n0, float("nan"), UNIQUE, feas.n0, 0.0)


def resolve_b0_zero(problem, feas, rng=None, eig_tol=1e-10, eig_maxit=None):
    """Shortcut for b0 = 0: one projected eigensolve settles the instance.

    When the shifted gradient vanishes, the minimizer is
    ``n0 + gamma * z/||z||`` with ``(theta, z)`` the smallest eigenpair of
    P A P restricted to the null space of C' (a random projected start
    keeps the iteration inside that subspace).  Returns ``None`` when
    ``||b0||`` is above the zero threshold, so the caller proceeds to the
    main Lanczos loop.
    """
    if feas.tag != INTERIOR:
        raise ValueError("resolve_b0_zero expects an interior instance")
    if np.linalg.norm(feas.b0) > b0_zero_threshold(problem, feas):
        return None
    rng = np.random.default_rng(rng)
    op = problem.projected_operator()
    start = op.apply_P(rng.standard_normal(problem.n))
    theta, z, info = smallest_eigenpair(
        op, start, tol=eig_tol, maxit=eig_maxit, norm_scale=problem.norm_a
    )
    v = feas.n0 + feas.gamma * z / np.linalg.norm(z)
    return crq_solution(problem, v, theta, B0_ZERO, feas.n0, feas.gamma,
                        k=info["steps"], converged=info["converged"],
                        extras={"reorth_steps": info["reorth_steps"]})


def _reduced_solve(state, method, beta1, gamma, norm_a):
    """The one reduced solve at the current step, and the route's bound.

    Returns ``(red, delta)``: the ``ReducedLgSolution`` and the residual
    bound read from it, of the Lagrange equations (``lgopt``) or of the
    reduced QEP (``qepmin``).
    """
    red = solve_rlgopt(*state.tridiagonal(), beta1, gamma)
    if method == QEPMIN:
        return red, qep_residual_bound(state, red, norm_a, gamma, beta1)
    delta = abs(state.beta[state.k]) * abs(red.x[-1]) / (
        (norm_a + abs(red.mu)) * np.linalg.norm(red.x) + beta1
    )
    return red, delta


def _kw_log(dim):
    """ln(1.648 sqrt(dim) / KW_DELTA): the Kuczynski-Wozniakowski bound
    after j steps is below KW_DELTA once sqrt(e) (2j - 1) exceeds it."""
    return math.log(1.648 * math.sqrt(dim) / KW_DELTA)


def _kw_bound(theta, threshold, sigma, dim, j):
    """Kuczynski-Wozniakowski bound on P(lambda_min < threshold) after j
    steps from a uniformly random start, given Ritz value theta > threshold.

    For B = sigma I - P A P (positive semidefinite on null(C') of
    dimension dim) the relative error of B's top Ritz value exceeds
    e = (theta - threshold)/(sigma - threshold) whenever
    lambda_min < threshold, and P(error >= e) <= 1.648 sqrt(dim)
    exp(-sqrt(e) (2j - 1)).
    """
    e = (theta - threshold) / (sigma - threshold)
    return 1.648 * np.sqrt(dim) * np.exp(-np.sqrt(e) * (2 * j - 1))


def _threshold(reduced_mu, eps_hard=None):
    """reduced_mu + eps_hard, with eps_hard defaulting to 1e-8 (1 + |reduced_mu|)."""
    if eps_hard is None:
        eps_hard = 1e-8 * (1.0 + abs(reduced_mu))
    return reduced_mu + eps_hard


class DetectionRun:
    """Hard-case detection's Lanczos run on P A P from a random projected
    start (one ``rng`` draw), with the tests of its exits.

    ``solve`` advances the run with ``lanczos_pair_step`` while it is
    ``stepping`` and calls ``observe`` at each check of its main loop;
    ``finish`` judges the run at the final threshold.  The module
    docstring says when the run steps and tests.
    """

    def __init__(self, problem, rng, eig_tol, eig_maxit):
        op = problem.projected_operator()
        start = op.apply_P(rng.standard_normal(problem.n))
        self.state = lanczos_init(op, start, norm_scale=problem.norm_a, maxit=eig_maxit)
        self.norm_scale = problem.norm_a
        self.eig_tol = eig_tol
        self.sigma = NORM_MARGIN * problem.norm_a
        self.dim = problem.n - problem.m
        self.paired_steps = 0
        self.paused = False
        self.sigma_refuted = False
        self.ritz = None

    @property
    def stepping(self):
        state = self.state
        return not (self.paused or state.broke_down or state.k == state.maxit)

    def ritz_pair(self):
        """The bottom Ritz pair at the current step, formed once per step."""
        if self.ritz is None or self.ritz.k != self.state.k:
            self.ritz = bottom_ritz_pair(self.state, self.eig_tol, self.norm_scale)
        return self.ritz

    def _next_test(self, threshold):
        """First step at which an exit can fire at ``threshold``, given
        the last Ritz pair formed."""
        ritz = self.ritz
        if ritz is None:
            return 1
        if self.sigma_refuted or not threshold < ritz.theta or not threshold < self.sigma:
            return ritz.k + 1
        e = min((ritz.theta - threshold) / (self.sigma - threshold), 1.0)
        return max(ritz.k + 1, math.floor((_kw_log(self.dim) / math.sqrt(e) + 1.0) / 2.0) + 1)

    def kw_certifies(self, ritz, threshold):
        """Whether the random-start bound puts P(lambda_min < threshold)
        below ``KW_DELTA`` at this Ritz pair.

        The bound needs sigma >= lambda_max(P A P).  Where it would pass,
        the top Ritz value of the run is checked against sigma; one above
        it proves the premise false, and the bound is refused for the rest
        of the run, with one warning.
        """
        if self.sigma_refuted or not threshold < ritz.theta < self.sigma:
            return False
        if _kw_bound(ritz.theta, threshold, self.sigma, self.dim, ritz.k) >= KW_DELTA:
            return False
        top = top_eigenvalue(*self.state.tridiagonal(ritz.k))
        if top > self.sigma:
            self.sigma_refuted = True
            warnings.warn(
                f"hard-case detection: a Ritz value {top:.6g} of P A P exceeds "
                f"sigma = {self.sigma:.6g}, so the random-start bound is refused: "
                f"the norm of A is underestimated", RuntimeWarning, stacklevel=3,
            )
            return False
        return True

    def observe(self, reduced_mu):
        """Provisional test at a main-loop check with multiplier ``reduced_mu``."""
        threshold = _threshold(reduced_mu)
        if not self.stepping or self.state.k < self._next_test(threshold):
            return
        ritz = self.ritz_pair()
        self.paused = ritz.converged or self.kw_certifies(ritz, threshold)

    def finish(self, threshold):
        """Judge the run at ``threshold`` from its current step on,
        stepping alone with a test every step until an exit fires.

        Returns the last Ritz pair and the certificate, None when
        ``eig_maxit`` ran out first.  On a paused run the first test
        reuses the paused step's pair: O(1) for the random-start bound and
        one comparison for a converged pair.
        """
        state = self.state
        interlacing = False
        while True:
            if state.k:
                ritz = self.ritz_pair()
                interlacing = interlacing or ritz.theta <= threshold
                if ritz.converged:
                    return ritz, INTERLACING if interlacing else CONVERGED
                if not interlacing and self.kw_certifies(ritz, threshold):
                    return ritz, RANDOM_START_BOUND
                if state.k == state.maxit:
                    return ritz, INTERLACING if interlacing else None
            elif state.maxit == 0:
                raise EigFailureError("hard-case detection produced no finite Ritz value")
            lanczos_step(state)


def detect_hard_case(problem, state, reduced_mu, rng=None, eig_tol=1e-8,
                     eig_maxit=500, eps_hard=None, run=None):
    """Degenerate-case test: is lambda_min(P A P) <= reduced_mu + eps_hard?

    ``run`` is the ``DetectionRun`` that ``solve`` advanced in lockstep
    with its main loop; without one, a run is started here from ``rng``
    with ``eig_tol`` and ``eig_maxit``.  The run is judged at the final
    threshold reduced_mu + eps_hard alone, whatever it was paused on, and
    goes on by itself, with a test every step, until one of four exits
    (see the module docstring): "interlacing" proves "hard" once the
    smallest Ritz value drops to the threshold, and then runs on to
    ``eig_tol`` for the eigenvector; "random_start_bound" declares "easy"
    once the Kuczynski-Wozniakowski bound puts the chance of a hard
    instance below ``KW_DELTA`` (refused, with a warning, when a Ritz
    value above sigma shows that the bound's premise fails);
    "converged" and ``eig_maxit`` decide by comparing the last Ritz
    value with the threshold, and the latter warns.  On a
    "random_start_bound" exit the reported ``gap`` is an upper bound on
    the true gap and no eigenvector is formed.  A hard decision pads the
    least-squares Krylov solution back to the radius gamma with the Ritz
    vector.  ``eps_hard`` defaults to ``1e-8 * (1 + |reduced_mu|)``.
    """
    if run is None:
        run = DetectionRun(problem, np.random.default_rng(rng), eig_tol, eig_maxit)
    threshold = _threshold(reduced_mu, eps_hard)
    ritz, certificate = run.finish(threshold)
    if not np.isfinite(ritz.theta):
        raise EigFailureError("hard-case detection produced no finite Ritz value")
    if certificate is None:
        warnings.warn(
            f"hard-case detection reached eig_maxit={run.state.maxit} without a "
            f"certificate (Ritz residual {ritz.resid:.3e}); decided by comparison",
            RuntimeWarning, stacklevel=2,
        )
    lam_min = ritz.theta
    report = HardCaseReport(lam_min <= threshold, lam_min, lam_min - reduced_mu,
                            ritz.converged, certificate=certificate, steps=ritz.k,
                            reorth_steps=run.state.reorth_steps,
                            paired_steps=run.paired_steps)
    if not report.is_hard:
        return report

    k = state.k
    beta1 = state.beta[0]
    aug = np.zeros((k + 1, k))
    aug[:k, :] = state.tridiagonal_matrix() - lam_min * np.eye(k)
    aug[k, k - 1] = state.beta[k]
    rhs = np.zeros(k + 1)
    rhs[0] = -beta1
    y_tilde, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    x_tilde = state.basis(k) @ y_tilde
    report.v = (x_tilde, ritz.vector())
    return report


def solve(problem, opts=None):
    """Solve the constrained Rayleigh-quotient problem.

    Raises ``InfeasibleError`` when no feasible point exists and
    ``NotConvergedError`` (carrying the best iterate) when the residual
    tolerance is not met within ``opts.maxit`` Lanczos steps.
    """
    if opts is None:
        opts = SolveOptions()
    feas = classify(problem)
    if feas.tag == INFEASIBLE:
        raise InfeasibleError(
            f"||n0|| = {np.linalg.norm(feas.n0):.6g} > 1: no feasible point"
        )
    if feas.tag == UNIQUE_POINT:
        return unique_point_solution(problem, feas)

    rng = np.random.default_rng(opts.rng_seed)
    shortcut = resolve_b0_zero(
        problem, feas, rng=rng, eig_tol=opts.eig_tol, eig_maxit=opts.eig_maxit
    )
    if shortcut is not None:
        return shortcut

    gamma = feas.gamma
    norm_a = problem.norm_a
    detection = None
    if opts.detect_hard:
        detection = DetectionRun(problem, rng, opts.eig_tol, opts.eig_maxit)
    op = problem.projected_operator()
    state = lanczos_init(op, feas.b0, norm_scale=norm_a, maxit=opts.maxit)
    beta1 = state.beta[0]

    history = []
    delta = np.inf
    broke = False
    while state.k < state.maxit:
        if detection is not None and detection.stepping:
            outcome, _ = lanczos_pair_step(state, detection.state)
            detection.paired_steps += 1
        else:
            outcome = lanczos_step(state)
        k = state.k
        broke = outcome == BROKE_DOWN
        if not (k >= opts.minit or broke or k == state.maxit):
            continue
        red, delta = _reduced_solve(state, opts.method, beta1, gamma, norm_a)
        # cheap exact identity: h(v) = gamma^2 mu + ||b0|| x_1 + n0'An0
        objective = float(gamma**2 * red.mu + beta1 * red.x[0] + feas.n0An0)
        history.append(CheckRecord(k, float(red.mu), float(delta), objective,
                                   red.x.copy(), red.solver, red.iterations))
        if detection is not None:
            detection.observe(red.mu)
        if delta <= opts.tol or broke:
            break

    last = history[-1]
    converged = broke or last.delta <= opts.tol
    v = feas.n0 + state.basis(last.k) @ last.x
    mu, case, hard_gap = last.mu, EASY, None
    extras = {"reorth_steps": state.reorth_steps}
    if opts.detect_hard:
        report = detect_hard_case(
            problem, state, last.mu, eig_tol=opts.eig_tol, eig_maxit=opts.eig_maxit,
            run=detection,
        )
        hard_gap = report.gap
        extras.update(lambda_min_projected=report.lambda_min,
                      detect_steps=report.steps,
                      detect_paired_steps=report.paired_steps,
                      detect_reorth_steps=report.reorth_steps,
                      detect_certificate=report.certificate)
        if report.is_hard:
            x_tilde, z = report.v
            z = z / np.linalg.norm(z)
            # the padding needs x_tilde orthogonal to z; rounding in the
            # basis and the near-singular least-squares solve leave a
            # component along z, removed here in the full space
            x_tilde = x_tilde - float(z @ x_tilde) * z
            radicand = max(gamma**2 - float(x_tilde @ x_tilde), 0.0)
            v = feas.n0 + x_tilde + np.sqrt(radicand) * z
            mu, case = report.lambda_min, HARD
            # the repaired v no longer depends on the main loop's residual,
            # but on the padding eigenvector meeting eig_tol
            converged = report.eig_converged
            extras["padding_eig_converged"] = report.eig_converged

    solution = crq_solution(
        problem, v, mu, case, feas.n0, gamma, k=last.k, history=history,
        hard_gap=hard_gap, converged=converged, extras=extras,
        basis=state.basis(last.k).copy() if opts.return_basis else None,
    )
    if case == EASY and not converged:
        raise NotConvergedError(
            f"residual bound {last.delta:.3e} above tol {opts.tol:.3e} "
            f"after {last.k} Lanczos steps",
            solution=solution,
        )
    return solution
