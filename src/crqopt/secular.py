"""Secular-equation root finder and the reduced Lagrange-multiplier solve.

The secular function attached to poles ``theta_1 <= ... <= theta_l`` with
weights ``xi`` and a radius ``gamma > 0`` is

    chi(lam) = sum_i xi_i^2 / (lam - theta_i)^2 - gamma^2.

chi is strictly increasing left of the spectrum and tends to -gamma^2 at
-infinity, so it has at most one root in (-inf, theta_1); that root is
the optimal multiplier of the reduced problem

    min lam  s.t.  (T_k - lam I) x = -||b0|| e_1,  ||x|| = gamma.

``solve_rlgopt`` finds it in O(k) per iteration, without the
eigen-decomposition of T_k: one selected eigenpair (``bottom_eigenpair``)
gives theta_1 and the leading weight zeta_1, and a safeguarded Newton
iteration in the style of More & Sorensen (SIAM J. Sci. Stat. Comput. 4,
1983) solves 1/||x(lam)|| = 1/gamma on the LDL' factorization of
T_k - lam I (LAPACK ``dpttrf``/``dpttrs``).  Started at the one-pole bound
theta_1 - |zeta_1|/gamma, right of the root, the iterates fall
monotonically; bisection in the root bracket is the safeguard.  The last
factorization also gives w = (T_k - mu I)^{-1} x, the eigenvector of the
reduced QEP, so this one solve serves both residual certificates, the
``lgopt`` and the ``qepmin`` one.

A nearly degenerate leading weight (which warns), one with
|zeta_1|/gamma below the float spacing at theta_1, and a Newton run that
does not settle (which warns) go to the eigen-decomposition and the
boundary-aware case analysis of ``solve_plgopt_spectral``, the same one
the dense oracle runs.  Its
secular root finder ``smallest_root`` fits the rational model
g(lam) = -b + a/(lam - pole)^2  to chi and chi' at the current point
(a two-point Pade-type step that converges much faster than Newton on
functions with double poles), and falls back to bisection whenever the
model is unusable or steps out of the current root bracket.
"""

import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import MaxIterError, NoRootError
from .lanczos import bottom_eigenpair

TINY_LEADING_WEIGHT = 1e-10
ORTHO_TOL = 1e-10

EASY_TAG = "easy"
HARD_EXACT_TAG = "hard_boundary_exact"
HARD_PADDED_TAG = "hard_boundary_padded"

# which reduced solver produced a ReducedLgSolution
NEWTON = "newton"
EIG = "eig"
# factorizations before newton_root gives up; it takes 6 on the n = 1100
# worst-case instances and at most 14 over 4000 random tridiagonals
NEWTON_MAXIT = 50
# steps before smallest_root gives up on its safeguarded rational iteration
SECULAR_MAXIT = 200
# both root finders stop on a step in lambda of at most
# STEP_TOL (1 + |theta_1| + ||weights|| / gamma)
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


def smallest_root(spec):
    """Unique root of the secular function left of its smallest pole.

    Returns ``(lambda_star, iterations)``.  Requires either a pole at
    theta_1 carrying weight, or a positive left limit of chi at theta_1;
    otherwise there is no root below the spectrum and ``NoRootError`` is
    raised (the caller falls back to the boundary case analysis).
    """
    theta, xi, gamma = spec
    nz = np.flatnonzero(xi)
    if nz.size == 0:
        raise NoRootError("all secular weights vanish")
    j0 = nz[0]
    t1 = theta[0]
    tj = theta[j0]
    delta0 = float(np.sqrt(np.sum(xi**2)) / gamma)
    eps = STEP_TOL * (1.0 + abs(t1) + delta0)

    if tj > t1:
        # no pole at theta_1: a root below the spectrum needs chi(theta_1-) > 0
        # (zero-weight poles at theta_1 do not contribute to the limit)
        limit = np.sum(xi[nz] ** 2 / (t1 - theta[nz]) ** 2) - gamma**2
        if limit <= 0.0:
            raise NoRootError("secular function has no root left of theta_1")

    lo, hi = t1 - delta0, t1

    # initial guess: solve the one-pole model with the tail frozen at lo
    mask = np.arange(theta.size) > j0
    tail = np.sum(xi[mask] ** 2 / ((tj - delta0) - theta[mask]) ** 2)
    eta = gamma**2 - tail
    if eta > 0.0:
        lam = tj - abs(xi[j0]) / np.sqrt(eta)
    else:
        lam = tj - delta0 / 2.0
    # the lower bracket end can be the root itself (single-pole bound is
    # tight), so acceptance is closed on the left
    if not (lo <= lam < hi):
        lam = 0.5 * (lo + hi)

    for it in range(1, SECULAR_MAXIT + 1):
        if lam >= hi:
            # the bracket midpoint rounded onto hi: lo and hi are equal or
            # adjacent floats, and hi may be the pole theta_1 itself
            return float(lo), it
        chi = secular_value(spec, lam)
        if chi > 0.0:
            hi = lam
        else:
            lo = lam
        s3 = float(np.sum(xi**2 / (lam - theta) ** 3))
        a = (lam - tj) ** 3 * s3
        b = (lam - tj) * s3 - chi
        if b > 0.0:
            cand = tj - np.sqrt(a / b)
            if not (lo <= cand < hi):
                cand = 0.5 * (lo + hi)
        else:
            cand = 0.5 * (lo + hi)
        step = abs(cand - lam)
        lam = cand
        if step < eps:
            return float(lam), it
    raise MaxIterError(f"secular iteration did not settle within {SECULAR_MAXIT} steps")


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
    plus eigenvector padding (||w|| < gamma).
    """
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    cluster = _bottom_cluster(theta)
    norm_g = np.linalg.norm(xi)
    weight_bottom = np.linalg.norm(xi[cluster])

    # a bottom weight with weight_bottom / gamma below the float spacing at
    # theta_1 counts as zero: a root that needs it (||w|| < gamma below)
    # lies within rounding of theta_1, where -xi / (theta - lam) divides by 0
    resolved = theta[0] - weight_bottom / gamma < theta[0]
    if weight_bottom > ORTHO_TOL * norm_g and norm_g > 0.0 and resolved:
        lam, _ = smallest_root(make_spec(theta, xi, gamma))
        y_hat = -xi / (theta - lam)
        return float(lam), y_hat, EASY_TAG

    # bottom weight (numerically) zero: drop it and examine the boundary
    xi_masked = xi.copy()
    xi_masked[cluster] = 0.0
    w_hat = np.zeros_like(xi)
    outside = np.ones(theta.size, dtype=bool)
    outside[cluster] = False
    w_hat[outside] = -xi_masked[outside] / (theta[outside] - theta[0])
    nw = np.linalg.norm(w_hat)

    if nw > gamma * (1.0 + 1e-12):
        lam, _ = smallest_root(make_spec(theta, xi_masked, gamma))
        y_hat = np.zeros_like(xi)
        y_hat[outside] = -xi_masked[outside] / (theta[outside] - lam)
        return float(lam), y_hat, EASY_TAG
    if abs(nw - gamma) <= 1e-12 * gamma:
        return float(theta[0]), w_hat, HARD_EXACT_TAG
    pad = np.sqrt(max(gamma**2 - nw**2, 0.0))
    y_hat = w_hat.copy()
    y_hat[cluster[0]] += pad
    return float(theta[0]), y_hat, HARD_PADDED_TAG


class ReducedLgSolution(NamedTuple):
    """Multiplier, minimizer and iterations of a reduced solve.

    ``tag`` is ``EASY_TAG`` when mu lies strictly left of the spectrum
    of T_k, and the boundary tag of ``solve_plgopt_spectral`` otherwise.
    ``solver`` names the path that produced it: ``NEWTON`` (then
    ``iterations`` counts LDL' factorizations) or ``EIG`` (the case
    analysis on the eigen-decomposition, which makes none, so 0).
    ``w`` is the reduced QEP eigenvector: (T_k - mu I)^{-1} x on the easy
    tag, and the bottom eigenvector of T_k on a boundary tag.
    """

    mu: float
    x: np.ndarray
    iterations: int
    tag: str = EASY_TAG
    solver: str = EIG
    w: np.ndarray = None


def newton_root(alpha, beta, beta1, gamma, theta1, zeta1):
    """Secular root by safeguarded Newton on phi(lam) = 1/||x(lam)|| - 1/gamma.

    x(lam) = -beta1 (T_k - lam I)^{-1} e_1.  Each iteration factors
    T_k - lam I = L D L' (``dpttrf``; a nonzero ``info`` means lam is at or
    right of theta_1) and makes two O(k) solves, for x and for
    w = (T_k - lam I)^{-1} x; the Newton step on phi is

        lam <- lam + (||x||^2 / x'w) (gamma - ||x||) / gamma.

    phi is concave and decreasing, so from the start theta_1 -
    |zeta_1|/gamma, which lies right of the root, the iterates fall
    monotonically.  The root stays bracketed in [theta_1 - beta1/gamma,
    theta_1), and a step that leaves the bracket becomes a bisection.
    Once a step is at most STEP_TOL (1 + |theta_1| + beta1/gamma), one
    more factorization gives mu, x and w together.  Returns the
    ``ReducedLgSolution``, or None when the start does not lie below
    theta_1 in floating point, the last factorization fails, or
    ``NEWTON_MAXIT`` runs out.
    """
    lo, hi = theta1 - beta1 / gamma, theta1
    lam = theta1 - abs(zeta1) / gamma
    if not lo <= lam < hi:
        return None
    eps = STEP_TOL * (1.0 + abs(theta1) + beta1 / gamma)
    rhs = np.zeros(alpha.size)
    rhs[0] = -beta1
    # the f2py wrappers reject an empty off-diagonal, which k = 1 has
    beta = beta if beta.size else np.zeros(1)
    settled = False
    for it in range(1, NEWTON_MAXIT + 1):
        d, e, info = lapack.dpttrf(alpha - lam, beta)
        if info != 0:
            if settled:
                return None
            hi = lam
            cand = 0.5 * (lo + hi)
        else:
            x, _ = lapack.dpttrs(d, e, rhs)
            w, _ = lapack.dpttrs(d, e, x)
            if settled:
                return ReducedLgSolution(float(lam), x, it, solver=NEWTON, w=w)
            nx = float(np.linalg.norm(x))
            if nx > gamma:
                hi = lam
            else:
                lo = lam
            cand = lam + (nx * nx / float(x @ w)) * (gamma - nx) / gamma
            # closed at hi: a step that rounds to zero leaves lam = hi
            if not lo <= cand <= hi:
                cand = 0.5 * (lo + hi)
        settled = abs(cand - lam) <= eps
        lam = cand
    return None


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

    The bottom eigenpair alone gives theta_1 and zeta_1, and
    ``newton_root`` finds mu, x and w in O(k) per iteration.  A leading
    weight below ``TINY_LEADING_WEIGHT * beta1`` (which warns) or with
    |zeta_1|/gamma below the float spacing at theta_1, and a Newton run
    that does not settle (which warns), send the solve to
    ``solve_plgopt_spectral`` on the full eigen-decomposition.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.size == 0:
        raise ValueError("empty tridiagonal")
    if beta.size != alpha.size - 1:
        raise ValueError("off-diagonal must have length k-1")
    theta1, s1 = bottom_eigenpair(alpha, beta)
    zeta1 = beta1 * s1[0]
    # a weight with |zeta_1|/gamma below the float spacing at theta_1
    # counts as zero, as in solve_plgopt_spectral, which decides that case
    if abs(zeta1) >= TINY_LEADING_WEIGHT * abs(beta1) and theta1 - abs(zeta1) / gamma < theta1:
        root = newton_root(alpha, beta, beta1, gamma, theta1, zeta1)
        if root is not None:
            return root
        warnings.warn("Newton iteration on T_k - lambda I did not settle; solving "
                      "on the eigen-decomposition", RuntimeWarning, stacklevel=2)

    theta, Y = sla.eigh_tridiagonal(alpha, beta)
    zeta = beta1 * Y[0, :]
    if abs(zeta[0]) < TINY_LEADING_WEIGHT * abs(beta1):
        warnings.warn(
            "nearly degenerate reduced problem: leading secular weight "
            f"{zeta[0]:.3e} is tiny relative to ||b0||",
            RuntimeWarning,
            stacklevel=2,
        )
    lam, y_hat, tag = solve_plgopt_spectral(theta, zeta, gamma)
    w = Y @ (y_hat / (theta - lam)) if tag == EASY_TAG else Y[:, 0]
    return ReducedLgSolution(lam, Y @ y_hat, 0, tag, EIG, w)
