"""Main Lanczos driver: iterate, check, recover, diagnose.

One solve classifies the instance, handles the boundary cases (the
single feasible point, and b0 = 0, settled by the bottom eigenpair of
P A P that a ``DetectionRun`` forms), then runs the projected Lanczos
process started at b0.  A check is one ``secular.solve_rlgopt`` call,
which solves the reduced multiplier problem on both routes, and
``method`` picks only the certificate read from its
``ReducedLgSolution``: the Lagrange residual bound ``_lgopt_bound``
(``lgopt``), or ``qep_residual_bound`` on the reduced QEP eigenpair it
holds (``qepmin``).  Each check is one O(k) reduced solve plus an O(1)
bound ``delta``, and applies no operator.  Every bound the solver stops
or certifies on is written once, in this module: the two certificates,
``DeltaProxy`` (``_lgopt_bound`` at a fixed multiplier) and the
random-start bound of detection (``_kw_steps``).
The loop stops when ``delta`` drops below the tolerance, on breakdown
(which certifies nothing), or at the iteration cap.  An operator that
rounds coarser than float64 cannot certify a tolerance below its
``tol_floor``, and ``solve`` refuses one.  The minimizer is
recovered as v = n0 + Q_k x (``_iterate``), and the one exact residual
||P(Av) - mu (v - n0)|| is taken at the v the solve returns.  An answer
whose last ``delta`` missed its tolerance is raised on ``NotConvergedError``.

When it checks: only where the loop can stop.  A check runs at the
first step, on breakdown and at the cap; between checks a ``DeltaProxy``
estimates lgopt's ``delta`` in O(1) per step at the last check's
multiplier, and a check runs where the estimate comes within
``CHECK_MARGIN`` of the tolerance, falls ``CHECK_DROP`` below the last
check's ``delta`` (which refreshes a stale multiplier), or cannot be
formed.  No stop is decided on the estimate, and both routes follow the
same schedule.  ``solution.history`` holds the checks that ran, each
with the LDL' factorization count of its reduced solve; with
``return_basis=True`` the solution carries the main run itself
(``KrylovRecord``), from which ``rebuild_history`` replays the check of
every step after the solve.

Degenerate instances - where the optimal multiplier coincides with the
bottom of the projected spectrum and the Krylov space is blind to the
relevant eigenvector - are detected and repaired (``_pad``) by padding
the minimum-norm solution with the bottom eigenvector.  The test is one
comparison, lambda_min(P A P) against mu + eps, made by a second Lanczos
run on P A P from a random projected start, the ``DetectionRun`` that
also settles b0 = 0.  It decides at the first of four exits:

1. "interlacing": the smallest Ritz value theta_j decreases toward
   lambda_min, so theta_j <= mu + eps proves "hard".  The run goes on to
   ``EIG_TOL`` because the padding needs the eigenvector.
2. "random_start_bound": the bound of Kuczynski & Wozniakowski (SIAM J.
   Matrix Anal. Appl. 13(4), 1992) for Lanczos on sigma I - P A P, with
   sigma a margin above the norm estimate and a start uniform on the
   sphere of null(C'), says that lambda_min < mu + eps has probability
   below ``KW_DELTA``; the run declares "easy" without an eigenvector.
   The report's ``gap`` is then theta_j - mu, an upper bound on the true
   gap.
   The bound needs sigma >= lambda_max(P A P); a top Ritz value above
   sigma disproves that, and the exit is then refused with a warning.
3. "converged": the Ritz residual met ``EIG_TOL``; decide by comparison.
4. ``EIG_MAXIT`` or a breakdown: decide by comparison, uncertified, and warn.

When detection steps: the detection run starts before the main loop
and advances with it in lockstep.  Each paired step applies A once to
the two runs' current vectors as an n x 2 block, and projects the two
recurrence residuals as one block; the rest of each step is the run's
own.  The run stops stepping only at ``EIG_MAXIT`` or on its own
breakdown, and forms no Ritz pair while the main loop runs: the
threshold mu + eps is known only once the loop has stopped.  Then the
run is judged once, at that threshold: its current step is tested, and
if no exit fires it goes on alone with a test every step.  Every
certificate therefore rests on bounds at one threshold, at most one per
step, and the union bound of ``KW_DELTA`` over ``EIG_MAXIT`` steps
holds.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, lapack

from .errors import EigFailureError, InfeasibleError, NotConvergedError
from .lanczos import LanczosState, bottom_ritz_pair, lanczos_pair_step, lanczos_step
from .problem import INFEASIBLE, INTERIOR, UNIQUE_POINT, b0_zero_threshold, classify
# benchmarks/tracing.py wraps driver.solve_reduced_qep by name, so the
# name stays bound here; the driver never calls it
from .secular import EASY_TAG, solve_reduced_qep, solve_rlgopt

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
# bound over the at most EIG_MAXIT = 500 steps of a detection run keeps
# the total at or below 5e-8.
KW_DELTA = 1e-10
# a detection run's Ritz pair has converged when its residual is at most
# EIG_TOL max(||A||, |theta|); the run stops after EIG_MAXIT steps (at most n)
EIG_TOL = 1e-8
EIG_MAXIT = 500
# sigma = NORM_MARGIN * norm_a must bound lambda_max(P A P) from above;
# norm_a is the operator's rigorous bound where it has one, else a
# 20-step Lanczos estimate, a lower bound on ||A||.
NORM_MARGIN = 1.05
# the check schedule: a check runs where the delta estimate is within
# CHECK_MARGIN of tol, or CHECK_DROP below the last check's delta
CHECK_MARGIN = 10.0
CHECK_DROP = 100.0
# The lowest tol a solve accepts on an operator that rounds coarser than
# float64 is TOL_FLOOR times its unit roundoff u.  On float32 raster stores
# (8x8, 64^2 and 256^2, four texture phases, both routes) the exact
# residual, normalized like delta, sat at 0.1-0.4 u whatever the tol, so
# below about u a returned delta says nothing; at tol = 10 u it was at
# most 0.88 tol, and at most 1.001 delta.
TOL_FLOOR = 10.0
_EPS = float(np.finfo(float).eps)


def tol_floor(unit_roundoff):
    """The lowest tol ``solve`` accepts on an operator with this unit
    roundoff: 0 at float64 eps, else ``TOL_FLOOR`` times it."""
    return 0.0 if unit_roundoff <= _EPS else TOL_FLOOR * unit_roundoff


def _refuse_below_floor(problem, tol, what):
    """Raise ``ValueError`` where ``tol``, which ``what`` needs, lies below
    the ``tol_floor`` of ``problem``'s operator; the message names both."""
    u = problem.A.unit_roundoff
    if tol < tol_floor(u):
        raise ValueError(f"{what} below the floor {tol_floor(u):.3g} of an operator with unit "
                         f"roundoff {u:.3g} (TOL_FLOOR = {TOL_FLOOR:g} times it)")


@dataclass
class SolveOptions:
    method: str = LGOPT
    tol: float = 1e-15
    maxit: int = 200
    detect_hard: bool = True
    return_basis: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if self.method not in (LGOPT, QEPMIN):
            raise ValueError(f"method must be '{LGOPT}' or '{QEPMIN}'")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, not {self.tol}")


@dataclass
class CheckRecord:
    """One check of the main loop.  ``solver_iterations`` counts the LDL'
    factorizations of its reduced solve (``secular.solve_rlgopt``)."""

    k: int
    mu: float
    delta: float
    objective: float
    x: np.ndarray
    solver_iterations: int = 0


@dataclass
class KrylovRecord:
    """The main Lanczos run of a solve, kept so that the check of any
    step can be replayed after the solve (``rebuild_history``).

    ``run`` is the solve's ``LanczosState`` as it stood at the stop, after
    K = ``run.k`` steps, a breakdown step included; it holds T_K, beta_1 =
    ||b0|| ... beta_{K+1} and the basis, in the store's dtype.  ``method``,
    ``norm_a``, ``gamma`` and ``n0An0`` are the scalars of the route's
    bound and of the objective identity.  ``iterate(x)`` forms the
    iterate of a step-k check as the solve forms v (``_iterate``):
    n0 + Q_k x on float64 rows, so it repeats the v of an easy solve,
    which stops at K, bit for bit, and that sum projected and rescaled to
    the sphere on float32 rows.
    """

    run: LanczosState
    method: str
    norm_a: float
    gamma: float
    n0An0: float
    n0: np.ndarray

    def iterate(self, x):
        return _iterate(self.run, x, self.n0, self.gamma)


@dataclass
class HardCaseReport:
    """Outcome of ``detect_hard_case``.

    ``lambda_min`` is the last smallest Ritz value, an upper bound on
    the bottom of the projected spectrum, and ``gap`` is it minus the
    reduced multiplier.  ``eig_converged`` says whether that Ritz pair
    met ``EIG_TOL``; ``certificate`` names the exit that backs the
    decision (None when ``EIG_MAXIT`` ran out first) and ``steps`` counts
    the detection run's Lanczos steps, ``reorth_steps`` those of them
    that ran a Gram-Schmidt pass and ``paired_steps`` those taken in
    lockstep with the main loop.
    """

    is_hard: bool
    lambda_min: float
    gap: float
    eig_converged: bool
    certificate: str = None
    steps: int = 0
    reorth_steps: int = 0
    paired_steps: int = 0

    @property
    def certified(self):
        return self.certificate is not None


@dataclass
class CrqSolution:
    """The returned v, which met its tolerance, with its multiplier and
    objective (one that missed it is ``NotConvergedError.solution``).
    ``residual`` is the exact multiplier-equation residual
    ||P(Av) - mu (v - n0)|| at v, unscaled; it is NaN at the unique point.
    ``history`` holds the checks that ran, in step order.  With
    ``return_basis=True``, ``krylov`` holds the ``KrylovRecord`` of the
    main run, from which ``rebuild_history`` replays every step's check.
    ``reorth_steps`` counts the Lanczos steps of the main loop (of the
    detection run when b0 = 0) that ran a Gram-Schmidt pass.
    ``detection`` is the ``HardCaseReport`` of a solve that ran hard-case
    detection; it is None at the unique point, on the b0 = 0 shortcut
    and with ``detect_hard=False``."""

    v: np.ndarray
    mu: float
    k: int
    history: list
    case: str
    objective: float
    krylov: KrylovRecord = None
    residual: float = None
    reorth_steps: int = 0
    detection: HardCaseReport = None


def crq_solution(problem, v, mu, case, n0, k=0, history=None, **fields):
    """A ``CrqSolution`` at v.  The objective v'Av costs one A-apply, and
    the residual reuses Av at the cost of one P-apply."""
    Av = problem.A.matvec(v)
    residual = np.linalg.norm(problem.P.apply_P(Av) - mu * (v - n0))
    return CrqSolution(
        v=v, mu=float(mu), k=k, history=[] if history is None else history,
        case=case, objective=float(v @ Av), residual=float(residual), **fields,
    )


def unique_point_solution(problem, feas):
    """The single feasible point v = n0 of an instance with ||n0|| = 1."""
    return crq_solution(problem, feas.n0, float("nan"), UNIQUE, feas.n0)


def _lgopt_bound(beta_next, x_last, x_norm, mu, norm_a, beta1):
    """lgopt's normalized residual bound: the Lagrange residual
    beta_{k+1} |x_k| of the Krylov iterate over (||A|| + |mu|) ||x|| +
    beta_1.  A check passes ||x||; ``DeltaProxy`` passes gamma."""
    return beta_next * x_last / ((norm_a + abs(mu)) * x_norm + beta1)


def qep_residual_bound(state, red, norm_a, gamma, beta1):
    """qepmin's bound: a cheap upper bound on the normalized residual of
    the reduced QEP eigenpair that the ``ReducedLgSolution`` ``red`` holds.

    The pair is (mu, w) with y = (T_k - mu I) w, which is x on the easy
    tag and (theta_1 - mu) w = 0 on a boundary tag.  The bound reads only
    the trailing components of (y, w) and beta_{k+1} of ``state``, with k
    the size of the reduced solve, so it costs O(1)
    and applies no operator; the exact normalized residual, which would
    need M = P A P applied to q_{k+1}, never exceeds it, after a breakdown too.
    """
    shift = norm_a + abs(red.mu)
    denom = (shift**2 + (beta1 / gamma) ** 2) * np.linalg.norm(red.w)
    beta_next = state.beta[red.x.size]
    y_last = red.x[-1] if red.tag == EASY_TAG else 0.0
    return float(abs(beta_next) * (abs(y_last) + shift * abs(red.w[-1])) / denom)


def _reduced_solve(state, k, method, beta1, gamma, norm_a):
    """The one reduced solve at step k of the ``LanczosState`` ``state``,
    and the route's bound.

    Returns ``(red, delta)``: the ``ReducedLgSolution`` and the residual
    bound read from it, of the Lagrange equations (``lgopt``) or of the
    reduced QEP (``qepmin``).
    """
    red = solve_rlgopt(*state.tridiagonal(k), beta1, gamma)
    if method == QEPMIN:
        return red, qep_residual_bound(state, red, norm_a, gamma, beta1)
    return red, _lgopt_bound(abs(state.beta[k]), abs(red.x[-1]), np.linalg.norm(red.x),
                             red.mu, norm_a, beta1)


def _check_record(k, red, delta, gamma, beta1, n0An0):
    # cheap exact identity: h(v) = gamma^2 mu + ||b0|| x_1 + n0'An0
    objective = float(gamma**2 * red.mu + beta1 * red.x[0] + n0An0)
    return CheckRecord(k, float(red.mu), float(delta), objective, red.x.copy(), red.iterations)


def rebuild_history(solution):
    """The check of every step from the solve's first check to its stop,
    replayed from ``solution.krylov`` (a solve with ``return_basis=True``).

    Each record is, bit for bit, the ``CheckRecord`` that a check at that
    step makes; the checks in ``solution.history`` are among them.
    """
    rec = solution.krylov
    if rec is None:
        raise ValueError("rebuild_history needs a solution with return_basis=True")
    beta1 = rec.run.beta[0]
    records = []
    for k in range(solution.history[0].k, rec.run.k + 1):
        red, delta = _reduced_solve(rec.run, k, rec.method, beta1, rec.gamma, rec.norm_a)
        records.append(_check_record(k, red, delta, rec.gamma, beta1, rec.n0An0))
    return records


class DeltaProxy:
    """lgopt's ``delta`` estimated at a fixed multiplier, in O(1) per step.

    At a check with multiplier mu_bar, T_k - mu_bar I = L D L' is factored
    once (``dpttrf``).  The last component of x(mu_bar) = -beta_1
    (T_k - mu_bar I)^{-1} e_1 has modulus beta_1 prod_j |l_j| / d_k, and
    each later step appends one pivot: l = beta_k / d_{k-1} and
    d_k = alpha_k - mu_bar - beta_k l.  The estimate

        p_k = beta_{k+1} |x_k(mu_bar)| / ((||A|| + |mu_bar|) gamma + beta_1)

    is ``_lgopt_bound`` with x(mu_bar) for the check's x and gamma for its
    norm.  ``due`` says when it calls for a check: at or below
    ``threshold``, or when the pivot is not positive or a value is not
    finite.  It only schedules checks; no stop is decided on it.
    """

    def __init__(self, alpha, beta, beta1, mu, norm_a, gamma, threshold):
        # the f2py wrapper rejects an empty off-diagonal, which k = 1 has
        d, e, info = lapack.dpttrf(alpha - mu, beta if beta.size else np.zeros(1))
        self.mu = mu
        self.beta1 = beta1
        self.norm_a = norm_a
        self.gamma = gamma
        self.threshold = threshold
        self.pivot = float(d[-1]) if info == 0 else math.nan
        self.log_y = math.log(beta1) + float(np.sum(np.log(np.abs(e[:alpha.size - 1]))))

    @property
    def x_last(self):
        """|x_k(mu_bar)| at the current step."""
        return math.exp(self.log_y) / self.pivot

    def advance(self, alpha_k, beta_k):
        """Append step k: its diagonal entry and its coupling to step k-1.
        Called only while ``due`` is False, so the last pivot is positive."""
        l_k = beta_k / self.pivot
        self.log_y += math.log(abs(l_k))
        self.pivot = alpha_k - self.mu - beta_k * l_k

    def due(self, beta_next):
        """Whether a check is due, given beta_{k+1}."""
        if not self.pivot > 0.0:
            return True
        p = _lgopt_bound(beta_next, self.x_last, self.gamma, self.mu, self.norm_a, self.beta1)
        return not math.isfinite(p) or p <= self.threshold


def _kw_steps(e, dim):
    """First step j at which the Kuczynski-Wozniakowski bound puts
    P(lambda_min < threshold) below ``KW_DELTA``, for a run from a
    uniformly random start whose Ritz value theta lies above threshold.

    For B = sigma I - P A P (positive semidefinite on null(C') of
    dimension dim) the relative error of B's top Ritz value exceeds
    e = (theta - threshold)/(sigma - threshold) whenever
    lambda_min < threshold, and P(error >= e) <= 1.648 sqrt(dim)
    exp(-sqrt(e) (2j - 1)), which is below ``KW_DELTA`` once
    sqrt(e) (2j - 1) exceeds ln(1.648 sqrt(dim) / KW_DELTA).
    """
    return math.floor((math.log(1.648 * math.sqrt(dim) / KW_DELTA) / math.sqrt(e) + 1.0) / 2.0) + 1


class DetectionRun:
    """The Lanczos run on P A P from a random projected start (one ``rng``
    draw) that forms its bottom Ritz pairs, with the tests of the exits
    of hard-case detection.

    ``solve`` advances the run with ``lanczos_pair_step`` while it is
    ``stepping``, and ``finish`` judges it once, at the final threshold.
    ``resolve_b0_zero`` calls ``finish`` at an infinite threshold, where
    only the eigenpair exits fire.
    """

    def __init__(self, problem, rng):
        start = problem.P.apply_P(rng.standard_normal(problem.n))
        self.state = LanczosState(problem.A, start, problem.P, norm_scale=problem.norm_a,
                                  maxit=EIG_MAXIT)
        self.norm_scale = problem.norm_a
        self.sigma = NORM_MARGIN * problem.norm_a
        self.dim = problem.n - problem.m
        self.paired_steps = 0
        self.sigma_refuted = False
        # after ``finish``, the Ritz pair it returned, whose vector pads the
        # minimizer on a hard decision
        self.ritz = None

    @property
    def stepping(self):
        state = self.state
        return not (state.broke_down or state.k == state.maxit)

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
        if ritz.k < _kw_steps((ritz.theta - threshold) / (self.sigma - threshold), self.dim):
            return False
        k = ritz.k
        top = float(eigvalsh_tridiagonal(*self.state.tridiagonal(k), select="i",
                                         select_range=(k - 1, k - 1))[0])
        if top > self.sigma:
            self.sigma_refuted = True
            warnings.warn(
                f"hard-case detection: a Ritz value {top:.6g} of P A P exceeds "
                f"sigma = {self.sigma:.6g}, so the random-start bound is refused: "
                f"the norm of A is underestimated", RuntimeWarning, stacklevel=3,
            )
            return False
        return True

    def finish(self, threshold):
        """Judge the run at ``threshold`` from its current step on,
        stepping alone with a test every step until an exit fires.

        Returns the last Ritz pair and the certificate, None when
        ``EIG_MAXIT`` ran out or the run broke down first.
        Raises ``EigFailureError`` when the run yields no finite Ritz value.
        """
        state = self.state
        interlacing = False
        while True:
            if state.k:
                ritz = self.ritz = bottom_ritz_pair(state, EIG_TOL, self.norm_scale)
                if not np.isfinite(ritz.theta):
                    break
                interlacing = interlacing or ritz.theta <= threshold
                if ritz.converged:
                    return ritz, INTERLACING if interlacing else CONVERGED
                if not interlacing and self.kw_certifies(ritz, threshold):
                    return ritz, RANDOM_START_BOUND
                if state.broke_down or state.k == state.maxit:
                    return ritz, INTERLACING if interlacing else None
            lanczos_step(state)
        raise EigFailureError("projected eigensolve produced no finite Ritz value")


def resolve_b0_zero(problem, feas, rng=None):
    """Shortcut for b0 = 0: the bottom eigenpair of P A P settles the instance.

    When the shifted gradient vanishes, the minimizer is
    ``n0 + gamma * z/||z||`` with ``(theta, z)`` the smallest eigenpair of
    P A P restricted to the null space of C'.  A ``DetectionRun`` from
    ``rng`` forms it: judged at an infinite threshold, the run stops at
    the first Ritz pair that meets ``EIG_TOL``, or after ``EIG_MAXIT``
    steps (at most n), and then raises ``NotConvergedError`` carrying the
    solution at the last pair.  Returns ``None`` when ``||b0||`` is above
    the zero threshold, so the caller proceeds to the main Lanczos loop.
    An operator whose ``tol_floor`` lies above ``EIG_TOL`` (a float32
    store) cannot certify that pair: ``ValueError`` names the floor.
    """
    if feas.tag != INTERIOR:
        raise ValueError("resolve_b0_zero expects an interior instance")
    if np.linalg.norm(feas.b0) > b0_zero_threshold(problem, feas):
        return None
    _refuse_below_floor(problem, EIG_TOL, f"the b0 = 0 eigenpair needs EIG_TOL = {EIG_TOL:g},")
    run = DetectionRun(problem, np.random.default_rng(rng))
    ritz, _ = run.finish(math.inf)
    z = ritz.vector()
    v = feas.n0 + feas.gamma * z / np.linalg.norm(z)
    solution = crq_solution(problem, v, ritz.theta, B0_ZERO, feas.n0, k=ritz.k,
                            reorth_steps=run.state.reorth_steps)
    if not ritz.converged:
        raise NotConvergedError(f"b0 = 0 eigenpair: Ritz residual {ritz.resid:.3e} above "
                                f"EIG_TOL after {ritz.k} steps", solution=solution)
    return solution


def detect_hard_case(run, reduced_mu):
    """Degenerate-case test: is lambda_min(P A P) <= reduced_mu + eps_hard,
    with eps_hard = 1e-8 (1 + |reduced_mu|)?

    ``run`` is the ``DetectionRun`` that ``solve`` advanced in lockstep
    with its main loop.  It is judged once, at the final threshold, from
    its current step on, and goes on by itself, with a test every step,
    until one of four exits (see the module docstring):
    "interlacing" proves "hard" once the smallest Ritz value drops to the
    threshold, and then runs on to ``EIG_TOL`` for the eigenvector;
    "random_start_bound" declares "easy" once the Kuczynski-Wozniakowski
    bound puts the chance of a hard instance below ``KW_DELTA`` (refused,
    with a warning, when a Ritz value above sigma shows that the bound's
    premise fails); "converged", ``EIG_MAXIT`` and a breakdown decide by
    comparing the last Ritz value with the threshold, and the latter two
    warn.  On a "random_start_bound" exit the reported ``gap`` is an upper
    bound on the true gap.
    """
    threshold = reduced_mu + 1e-8 * (1.0 + abs(reduced_mu))
    ritz, certificate = run.finish(threshold)
    if certificate is None:
        stop = "broke down" if run.state.broke_down else "reached EIG_MAXIT (at most n)"
        warnings.warn(
            f"hard-case detection {stop} after {ritz.k} steps "
            f"without a certificate (Ritz residual {ritz.resid:.3e}); decided by comparison",
            RuntimeWarning, stacklevel=2,
        )
    lam_min = ritz.theta
    return HardCaseReport(lam_min <= threshold, lam_min, lam_min - reduced_mu,
                          ritz.converged, certificate=certificate, steps=ritz.k,
                          reorth_steps=run.state.reorth_steps, paired_steps=run.paired_steps)


def _pad(state, ritz, feas):
    """The hard case's minimizer: the least-squares Krylov solution padded
    back to the radius gamma with the Ritz vector.

    With lambda the Ritz value, x_tilde = Q_k y_tilde, where y_tilde
    minimizes ||[T_k - lambda I; beta_{k+1} e_k'] y + beta_1 e_1||, and
    v = n0 + x_tilde + tau z with z the unit Ritz vector and tau >= 0
    chosen so that ||x_tilde + tau z|| = gamma.
    """
    k = state.k
    aug = np.zeros((k + 1, k))
    aug[:k, :] = state.tridiagonal_matrix() - ritz.theta * np.eye(k)
    aug[k, k - 1] = state.beta[k]
    rhs = np.zeros(k + 1)
    rhs[0] = -state.beta[0]
    y_tilde, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    x_tilde = state.basis_product(y_tilde, k)
    z = ritz.vector()
    z = z / np.linalg.norm(z)
    # the padding needs x_tilde orthogonal to z; rounding in the basis and
    # the near-singular least-squares solve leave a component along z,
    # removed here in the full space
    x_tilde = x_tilde - float(z @ x_tilde) * z
    radicand = max(feas.gamma**2 - float(x_tilde @ x_tilde), 0.0)
    return feas.n0 + x_tilde + np.sqrt(radicand) * z


def _iterate(run, x, n0, gamma):
    """The iterate v = n0 + Q_k x of a check's reduced solution x, with
    ||x|| = gamma, from the rows of the solve's ``LanczosState`` ``run``,
    during the solve or, replayed after it, from its ``KrylovRecord``.

    On a float64 store that is the plain sum, bit for bit.  A store that
    rounds coarser than float64 (float32, see ``lanczos.basis_dtype``)
    holds rows orthonormal only to about its u, so Q_k x is off the
    sphere ||Q_k x|| = gamma and off null(C') by as much.  There the
    iterate is y = P(Q_k x) scaled to gamma, v = n0 + gamma y / ||y||, so
    C'v = b and ||v|| = 1 hold to float64 rounding.
    """
    y = run.basis_product(x, x.size)
    if run.dtype == np.float64:
        return n0 + y
    y = run.P.apply_P(y)
    return n0 + gamma / np.linalg.norm(y) * y


def solve(problem, opts=None):
    """Solve the constrained Rayleigh-quotient problem.

    Raises ``InfeasibleError`` when no feasible point exists, and
    ``NotConvergedError`` carrying the answer when it missed its tolerance:
    ``opts.tol`` at the last check (at ``opts.maxit`` steps or a breakdown,
    which the message names), or ``EIG_TOL`` for the Ritz pair of a hard
    decision or of b0 = 0.

    An operator that rounds coarser than float64 (``unit_roundoff`` above
    float64 eps, as a float32 raster store) cannot certify a residual
    below its own rounding: ``ValueError``, naming the floor, refuses an
    ``opts.tol`` below ``tol_floor``, and ``detect_hard`` or a b0 = 0
    instance where ``EIG_TOL`` lies below it (as it does for float32).
    """
    if opts is None:
        opts = SolveOptions()
    _refuse_below_floor(problem, opts.tol, f"tol {opts.tol:.3g} is")
    if opts.detect_hard:
        _refuse_below_floor(problem, EIG_TOL, f"hard-case detection needs EIG_TOL = {EIG_TOL:g},")
    feas = classify(problem)
    if feas.tag == INFEASIBLE:
        raise InfeasibleError(
            f"||n0|| = {np.linalg.norm(feas.n0):.6g} > 1: no feasible point"
        )
    if feas.tag == UNIQUE_POINT:
        return unique_point_solution(problem, feas)

    rng = np.random.default_rng(opts.rng_seed)
    shortcut = resolve_b0_zero(problem, feas, rng=rng)
    if shortcut is not None:
        return shortcut

    gamma = feas.gamma
    norm_a = problem.norm_a
    detection = None
    if opts.detect_hard:
        detection = DetectionRun(problem, rng)
    state = LanczosState(problem.A, feas.b0, problem.P, norm_scale=norm_a, maxit=opts.maxit)
    beta1 = state.beta[0]

    history = []
    proxy = None
    while state.k < state.maxit:
        if detection is not None and detection.stepping:
            lanczos_pair_step(state, detection.state)
            detection.paired_steps += 1
        else:
            lanczos_step(state)
        k = state.k
        if proxy is not None and not state.broke_down and k < state.maxit:
            proxy.advance(state.alpha[k - 1], state.beta[k - 1])
            if not proxy.due(state.beta[k]):
                continue
        red, delta = _reduced_solve(state, k, opts.method, beta1, gamma, norm_a)
        history.append(_check_record(k, red, delta, gamma, beta1, feas.n0An0))
        if delta <= opts.tol or state.broke_down:
            break
        proxy = DeltaProxy(*state.tridiagonal(), beta1, red.mu, norm_a, gamma,
                           max(CHECK_MARGIN * opts.tol, delta / CHECK_DROP))

    last = history[-1]
    miss = None if last.delta <= opts.tol else (
        f"residual bound {last.delta:.3e} above tol {opts.tol:.3e} after {last.k} Lanczos steps")
    if miss is not None and state.broke_down:
        miss += (f": the Lanczos process broke down at step {last.k} with "
                 f"beta_{{k+1}}/||A|| = {state.beta[last.k] / norm_a:.3e}")
    v = _iterate(state, last.x, feas.n0, feas.gamma)
    mu, case, report = last.mu, EASY, None
    if opts.detect_hard:
        report = detect_hard_case(detection, last.mu)
        if report.is_hard:
            v = _pad(state, detection.ritz, feas)
            mu, case = report.lambda_min, HARD
            # the repaired v no longer depends on the main loop's residual,
            # but on the padding eigenvector meeting EIG_TOL
            miss = None if report.eig_converged else (
                f"hard-case padding pair: Ritz residual {detection.ritz.resid:.3e} above "
                f"EIG_TOL after {report.steps} detection steps")

    krylov = None
    if opts.return_basis:
        krylov = KrylovRecord(state, opts.method, norm_a, gamma, feas.n0An0, feas.n0)
    solution = crq_solution(
        problem, v, mu, case, feas.n0, k=last.k, history=history, krylov=krylov,
        reorth_steps=state.reorth_steps, detection=report,
    )
    if miss is not None:
        raise NotConvergedError(miss, solution=solution)
    return solution
