"""Secular-equation root finder and the reduced Lagrange-multiplier solve.

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

Three outcomes are read off the final t, as ``solve_plgopt_spectral``
tells them apart: mu = theta_1 - t below theta_1 in floating point is a
secular root; otherwise mu = theta_1, and x off the bottom eigenvector
is on the sphere (the exact boundary) or is padded to it along that
eigenvector.  A leading weight below ``TINY_LEADING_WEIGHT`` beta_1
counts as zero, and the iteration then starts at t = 0, the More-Sorensen
hard case.

``solve_plgopt_spectral`` is that case analysis in eigen-coordinates, for
the dense oracle and the instance generator; no reduced solve of the
driver calls it.  Its secular root finder ``smallest_root`` is the same
safeguarded Newton iteration on 1/||x(t)|| = 1/gamma (the secular form of
Gander, Golub & von Matt, Linear Algebra Appl. 114/115, 1989), on a
diagonal: x(t) = -xi / (d + t) with the pole offsets d = theta - theta_1,
formed once, and only the poles that carry weight.  It starts at the
one-pole bound, left of the root, and keeps the bracket
[that bound, ||xi|| / gamma]; the case analysis forms its minimizer
from t, so a root close to a large theta_1 stays on the sphere.  The
oracle shares the method with ``solve_rlgopt`` but no code: it works on
an eigen-decomposition, the driver on LDL' factorizations.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import MaxIterError, NoRootError
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
# solve_rlgopt and smallest_root stop on a step in t = theta_1 - mu, or a
# root bracket, of at most T_RTOL t
T_RTOL = 1e-12
# steps before smallest_root gives up on its safeguarded Newton iteration
SECULAR_MAXIT = 200
# solve_rlgopt's first shift off theta_1 is STEP_TOL (1 + |theta_1| +
# beta1 / gamma): below it, theta_1 - shift may round into the spectrum
STEP_TOL = 1e-14


class SecularSpec(NamedTuple):
    """Poles (ascending), weights and the radius gamma of a secular function."""

    theta: np.ndarray
    xi: np.ndarray
    gamma: float


def make_spec(theta, xi, gamma):
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if theta.shape != xi.shape or theta.ndim != 1:
        raise ValueError("theta and xi must be 1-D arrays of equal length")
    if np.any(np.diff(theta) < 0):
        raise ValueError("theta must be ascending")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return SecularSpec(theta, xi, float(gamma))


def secular_value(spec, lam):
    return float(np.sum(spec.xi**2 / (lam - spec.theta) ** 2) - spec.gamma**2)


def _secular_t(d, xi, gamma):
    """The root t = theta_1 - lambda >= 0 of ``smallest_root``, given the
    pole offsets d = theta - theta_1, and the iteration count.

    Only the poles that carry weight enter the iteration.
    """
    nz = np.flatnonzero(xi)
    if nz.size == 0:
        raise NoRootError("all secular weights vanish")
    dn, xn = d[nz], xi[nz]
    if dn[0] > 0.0 and np.sum((xn / dn) ** 2) <= gamma**2:
        # no pole at theta_1: a root below the spectrum needs ||xi/d|| > gamma
        raise NoRootError("secular function has no root left of theta_1")
    # the one-pole bound lies left of the root, ||xi|| / gamma right of it
    lo, hi = max(abs(xn[0]) / gamma - dn[0], 0.0), float(np.linalg.norm(xn)) / gamma
    t = lo
    for it in range(1, SECULAR_MAXIT + 1):
        r = xn / (dn + t)
        nx = math.sqrt(r @ r)
        if nx > gamma:
            lo = t
        else:
            hi = t
        if hi - lo <= T_RTOL * t:
            return t, it
        cand = t + (nx - gamma) * nx * nx / (gamma * float(r @ (r / (dn + t))))
        if not lo <= cand <= hi:
            cand = 0.5 * (lo + hi)
        step, t = abs(cand - t), cand
        if step <= T_RTOL * t:
            return t, it
    raise MaxIterError(f"secular iteration did not settle within {SECULAR_MAXIT} steps")


def smallest_root(spec):
    """Unique root of the secular function left of its smallest pole.

    Returns ``(lambda_star, iterations)``.  Requires either a pole at
    theta_1 carrying weight, or a positive left limit of chi at theta_1;
    otherwise there is no root below the spectrum and ``NoRootError`` is
    raised.  Its one library caller, ``solve_plgopt_spectral``, asks only
    where its case analysis has placed a root below theta_1.
    """
    theta, xi, gamma = spec
    t, it = _secular_t(theta - theta[0], xi, gamma)
    return float(theta[0] - t), it


def _bottom_cluster(theta):
    """Indices of eigenvalues tied with the smallest one."""
    tol = 1e-9 * max(1.0, float(np.max(np.abs(theta))))
    return np.flatnonzero(theta <= theta[0] + tol)


def solve_plgopt_spectral(theta, xi, gamma):
    """Reduced multiplier problem in eigen-coordinates.

    ``theta`` ascending eigenvalues, ``xi`` the coordinates of the
    reduced gradient in the same eigenbasis.  Returns
    ``(lambda_star, y_hat, tag)`` with ``y_hat`` in eigen-coordinates.

    Case tree: weight on the bottom eigenspace forces a secular root
    strictly below theta_1; otherwise the minimum-norm stationary point
    w = -(H - theta_1)^+ g0 decides between a secular root (||w|| >
    gamma), the exact boundary solution (||w|| = gamma) and boundary
    plus eigenvector padding (||w|| < gamma).  A secular root is found
    in t = theta_1 - lambda, and y_hat = -xi / (theta - theta_1 + t) is
    formed from t, not from lambda, whose difference to theta_1 rounds.
    """
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    d = theta - theta[0]
    cluster = _bottom_cluster(theta)
    norm_g = np.linalg.norm(xi)
    weight_bottom = np.linalg.norm(xi[cluster])

    # a bottom weight with weight_bottom / gamma below the float spacing at
    # theta_1 counts as zero: a root that needs it (||w|| < gamma below)
    # lies within rounding of theta_1
    resolved = theta[0] - weight_bottom / gamma < theta[0]
    if weight_bottom > TINY_LEADING_WEIGHT * norm_g and resolved:
        t, _ = _secular_t(d, xi, gamma)
        return float(theta[0] - t), -xi / (d + t), EASY_TAG

    # bottom weight (numerically) zero: drop it and examine the boundary
    xi = xi.copy()
    xi[cluster] = 0.0
    outside = np.ones(theta.size, dtype=bool)
    outside[cluster] = False
    w_hat = np.zeros_like(xi)
    w_hat[outside] = -xi[outside] / d[outside]
    nw = np.linalg.norm(w_hat)

    if nw > gamma * (1.0 + 1e-12):
        t, _ = _secular_t(d, xi, gamma)
        return float(theta[0] - t), -xi / (d + t), EASY_TAG
    if abs(nw - gamma) <= 1e-12 * gamma:
        return float(theta[0]), w_hat, HARD_EXACT_TAG
    pad = np.sqrt(max(gamma**2 - nw**2, 0.0))
    w_hat[cluster[0]] += pad
    return float(theta[0]), w_hat, HARD_PADDED_TAG


class ReducedLgSolution(NamedTuple):
    """Multiplier, minimizer and LDL' factorizations of a reduced solve.

    ``tag`` is ``EASY_TAG`` when mu lies strictly left of the spectrum
    of T_k in floating point, and otherwise the boundary tag of
    ``solve_plgopt_spectral``: ``HARD_EXACT_TAG`` or ``HARD_PADDED_TAG``.
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
    beta1 counts as zero, as in ``solve_plgopt_spectral``; the iteration
    then starts at t = 0.  The outcome is read off t: mu = theta_1 - t
    below theta_1 in floating point is the easy tag; otherwise mu is
    theta_1 and x off s_1 decides, against gamma, between the exact and
    the padded boundary x + tau s_1, tau of the sign opposite zeta_1
    (kept also where the weight counts as zero), which gives the smaller
    reduced objective.  O(k) per iteration; a run that reaches
    ``NEWTON_MAXIT`` raises ``MaxIterError``, as ``smallest_root`` does
    at its cap.
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
