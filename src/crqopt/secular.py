"""The reduced Lagrange-multiplier solve and its reduced-QEP view.

The secular function attached to poles ``theta_1 <= ... <= theta_l`` with
weights ``xi`` and a radius ``gamma > 0`` is

    chi(lam) = sum_i xi_i^2 / (lam - theta_i)^2 - gamma^2.

chi is strictly increasing left of the spectrum and tends to -gamma^2 at
-infinity, so it has at most one root in (-inf, theta_1); that root is
the optimal multiplier of the reduced problem

    min lam  s.t.  (T_k - lam I) x = -||b0|| e_1,  ||x|| = gamma.

``solve_rlgopt`` finds it with one iteration, O(k) per step, without
the eigen-decomposition of T_k: one selected eigenpair
(``bottom_eigenpair``) gives theta_1 and the leading weight zeta_1, and a
safeguarded Newton iteration in the style of More & Sorensen (SIAM J.
Sci. Stat. Comput. 4, 1983) solves 1/||x|| = 1/gamma in
t = theta_1 - mu >= 0, on LDL' factorizations of T_k - mu I (LAPACK
``dpttrf``/``dpttrs``).  The s_1-coefficient of x is set to the exact
-zeta_1/t, so a root close to theta_1 keeps ||x|| = gamma to full
relative accuracy.  Started at the one-pole bound t = |zeta_1|/gamma, left
of the root, the iterates rise monotonically; bisection in the root
bracket is the safeguard.  The last factorization also gives
w = (T_k - mu I)^{-1} x, the eigenvector of the reduced QEP, so this one
solve serves both residual certificates, the ``lgopt`` and the
``qepmin`` one.

Three outcomes are read off the final t, as the dense oracle's case
analysis (``reference.solve_plgopt_spectral``) tells them apart:
mu = theta_1 - t below theta_1 in floating point is a secular root;
otherwise mu = theta_1, and x off the bottom eigenvector is on the
sphere (the exact boundary) or is padded to it along that eigenvector.
A leading weight below ``TINY_LEADING_WEIGHT`` beta_1 counts as zero,
and the iteration then starts at t = 0, the More-Sorensen hard case.

Projecting the quadratic eigenproblem onto the Krylov basis and dropping
the rank-one edge coupling leaves

    (T_k - lam I)^2 w = gamma^{-2} ||b0||^2 e_1 e_1' w,

whose leftmost real eigenvalue is the multiplier of the reduced Lagrange
problem (Gander, Golub & von Matt, LAA 114/115, 1989).  So one
``ReducedLgSolution`` holds the QEP eigenpair: mu, w, and
y = (T_k - mu I) w, which is x on the easy tag and (theta_1 - mu) w = 0
on a boundary tag.  ``solve_reduced_qep`` returns that pair as the
``ReducedQepSolution`` the dense 2k x 2k linearization of ``reference``
is checked against.  No solve calls it: it stays in the library only
because the benchmark tracer patches ``driver.solve_reduced_qep`` by
name, and it moves to the tests' oracles when the tracer drops that
patch.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import MaxIterError
from .lanczos import bottom_eigenpair

# a weight below TINY_LEADING_WEIGHT times the gradient norm counts as zero
TINY_LEADING_WEIGHT = 1e-10

EASY_TAG = "easy"
HARD_EXACT_TAG = "hard_boundary_exact"
HARD_PADDED_TAG = "hard_boundary_padded"

# Newton steps before solve_rlgopt gives up; a solve makes 6 LDL'
# factorizations on the n = 1100 worst-case tridiagonals and at most 14
# on the 3000 near-degenerate draws of the tests
NEWTON_MAXIT = 50
# solve_rlgopt and the oracle's smallest_root stop on a step in
# t = theta_1 - mu, or a root bracket, of at most T_RTOL t
T_RTOL = 1e-12
# solve_rlgopt's first shift off theta_1 is STEP_TOL (1 + |theta_1| +
# beta1 / gamma): below it, theta_1 - shift may round into the spectrum
STEP_TOL = 1e-14


class ReducedLgSolution(NamedTuple):
    """Multiplier, minimizer and LDL' factorizations of a reduced solve.

    ``tag`` is ``EASY_TAG`` when mu lies strictly left of the spectrum
    of T_k in floating point, and otherwise the boundary tag of the
    oracle's case analysis: ``HARD_EXACT_TAG`` or ``HARD_PADDED_TAG``.
    ``iterations`` counts the LDL' factorizations the solve made.  ``w``
    is the reduced QEP eigenvector: (T_k - mu I)^{-1} x on the easy tag,
    and the bottom eigenvector of T_k on a boundary tag.
    """

    mu: float
    x: np.ndarray
    iterations: int
    tag: str = EASY_TAG
    w: np.ndarray = None


def _solves_off_s1(alpha, beta, theta1, s1, t, shift0, rhs):
    """y = (T_k - (theta_1 - t) I)^{-1} rhs off s_1, z = (T_k - (theta_1 -
    t) I)^{-1} y up to its s_1 part, for t >= 0, and the number of LDL'
    factorizations made.

    The solves factor M = T_k - (theta_1 - shift) I at shift =
    max(t, shift0), growing the shift 16-fold while M does not factor
    (theta_1 - shift still rounds into the spectrum).  At shift = t one
    solve each gives y and z; otherwise each makes three sweeps
    y <- M^{-1} (rhs + (shift - t) y) with s_1 projected off between
    them, each of which shrinks the error by
    (shift - t) / (theta_i - theta_1 + shift).  Near theta_1 the rounded
    shift carries a large relative error in t, which s_1 parts inherit,
    so the caller sets them exactly.
    """
    shift, made = max(t, shift0), 1
    d, e, info = lapack.dpttrf(alpha - (theta1 - shift), beta)
    while info:
        shift, made = 16.0 * shift, made + 1
        d, e, info = lapack.dpttrf(alpha - (theta1 - shift), beta)

    def solve(rhs):
        y, _ = lapack.dpttrs(d, e, rhs)
        for _ in range(0 if shift == t else 2):
            y -= (s1 @ y) * s1
            y, _ = lapack.dpttrs(d, e, rhs + (shift - t) * y)
        return y

    y = solve(rhs)
    y -= (s1 @ y) * s1
    return y, solve(y), made


def solve_rlgopt(alpha, beta, beta1, gamma):
    """Solve the k-dimensional reduced Lagrange-multiplier problem.

    ``alpha``/``beta`` are the diagonal and off-diagonal of the (assumed
    irreducible) tridiagonal T_k, ``beta1 = ||b0||`` the start norm.  The
    optimal multiplier is the smallest secular root with poles the
    eigenvalues of T_k and weights ``beta1 * (first eigenvector
    components)``; the minimizer solves the shifted tridiagonal system

        (T_k - mu I) x = -beta1 e_1,

    which is positive definite because mu lies strictly left of the
    spectrum of an irreducible T_k.

    The bottom eigenpair (theta_1, s_1) gives the leading weight
    zeta_1 = beta1 s_1[0], and one safeguarded Newton iteration solves
    phi(t) = 1/||x(t)|| - 1/gamma = 0 in t = theta_1 - mu >= 0, with
    x(t) = y - (zeta_1/t) s_1 and w(t) = (T_k - mu I)^{-1} x(t) =
    z - (zeta_1/t^2) s_1, where y and z, off s_1, come from
    ``_solves_off_s1`` on the right-hand side -beta1 e_1 + zeta_1 s_1:

        t <- t + (||x|| - gamma) ||x||^2 / (gamma x'w).

    phi is increasing and concave, so from the one-pole bound
    t_0 = |zeta_1|/gamma, left of the root, the iterates rise
    monotonically; the root lies in [0, beta1/gamma], and a step that
    leaves the current bracket becomes a bisection.  The iteration stops
    when a step is at most ``T_RTOL`` t (after one more evaluation) or
    the bracket is that narrow.  A weight below ``TINY_LEADING_WEIGHT``
    beta1 counts as zero, as in the oracle's case analysis; the iteration
    then starts at t = 0.  The outcome is read off t: mu = theta_1 - t
    below theta_1 in floating point is the easy tag; otherwise mu is
    theta_1 and x off s_1 decides, against gamma, between the exact and
    the padded boundary x + tau s_1, tau of the sign opposite zeta_1
    (kept also where the weight counts as zero), which gives the smaller
    reduced objective.  O(k) per iteration; a run that reaches
    ``NEWTON_MAXIT`` raises ``MaxIterError``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.size == 0:
        raise ValueError("empty tridiagonal")
    if beta.size != alpha.size - 1:
        raise ValueError("off-diagonal must have length k-1")
    theta1, s1 = bottom_eigenpair(alpha, beta)
    zeta1 = beta1 * s1[0]
    zeta = zeta1 if abs(zeta1) >= TINY_LEADING_WEIGHT * abs(beta1) else 0.0
    # the f2py wrappers reject an empty off-diagonal, which k = 1 has
    beta = beta if beta.size else np.zeros(1)
    g = zeta1 * s1
    g[0] -= beta1
    shift0 = STEP_TOL * (1.0 + abs(theta1) + beta1 / gamma)
    lo, hi = 0.0, beta1 / gamma
    t, factorizations, settled = abs(zeta) / gamma, 0, False
    for _ in range(NEWTON_MAXIT):
        y, z, made = _solves_off_s1(alpha, beta, theta1, s1, t, shift0, g)
        factorizations += made
        # the s_1-coefficients of x and w, exactly; t >= |zeta| / gamma > 0
        c, dc = (-zeta / t, -zeta / t**2) if zeta else (0.0, 0.0)
        if settled:
            break
        nx = math.sqrt(y @ y + c * c)
        if nx > gamma:
            lo = t
        else:
            hi = t
        if hi - lo <= T_RTOL * t:
            break
        cand = t + (nx - gamma) * nx * nx / (gamma * float(y @ z + c * dc))
        if not lo <= cand <= hi:
            cand = 0.5 * (lo + hi)
        settled = abs(cand - t) <= T_RTOL * t
        t = cand
    else:
        raise MaxIterError(f"Newton iteration did not settle within {NEWTON_MAXIT} steps")
    if theta1 - t < theta1:
        w = z + (dc - s1 @ z) * s1
        return ReducedLgSolution(theta1 - t, y + c * s1, factorizations, EASY_TAG, w)
    ny = float(np.linalg.norm(y))
    if ny >= gamma * (1.0 - 1e-12):
        return ReducedLgSolution(theta1, y, factorizations, HARD_EXACT_TAG, s1)
    tau = np.copysign(np.sqrt(gamma**2 - ny**2), -zeta1)
    return ReducedLgSolution(theta1, y + tau * s1, factorizations, HARD_PADDED_TAG, s1)


class ReducedQepSolution(NamedTuple):
    """QEP eigenpair (mu, w, y) and the reduced minimizer x it comes from."""

    mu: float
    w: np.ndarray
    y: np.ndarray
    x: np.ndarray


def solve_reduced_qep(alpha, beta, beta1, gamma):
    """Leftmost real eigenpair (mu, y, w) of the reduced QEP, with the
    reduced minimizer x it comes from."""
    red = solve_rlgopt(alpha, beta, beta1, gamma)
    y = red.x if red.tag == EASY_TAG else np.zeros_like(red.w)
    return ReducedQepSolution(red.mu, red.w, y, red.x)
