"""Synthetic benchmark instances with prescribed reduced spectra.

The generator works backwards: pick the reduced matrix H (diagonal, with
eigenvalues placed at translated Chebyshev extreme nodes, optionally
with an isolated smallest eigenvalue appended) and the reduced gradient
g0, then embed them into a full-size problem (A, C, b) whose reduction
reproduces (H, g0, gamma) exactly.  Chebyshev extreme-node spectra are
the classical worst case for Krylov approximation, which makes these
instances sharp tests of the convergence envelopes.

The embedding couples the two blocks through a rank-one term g0 a' and
weights the constrained block with eta = (g0' H^{-1} g0) / zeta^2, which
keeps A positive semidefinite whenever H is positive definite.  A is
kept as an action, never as an n x n array: the orthogonal factor
S = [S2 S1] of the QR of C is held in compact WY form S = I - V T V'
(Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989), with V the
n x m Householder vectors of the ``geqrf`` output and T^{-1} an m x m
upper triangle.  S or S' reaches an n x k block by two products with V
and one m x m triangular solve, O(nmk) flops.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .driver import EASY, HARD, crq_solution
from .errors import SingularHError, VerificationError
from .operators import SymmetricOperator
from .problem import CrqProblem, classify
from .secular import EASY_TAG, solve_plgopt_spectral

ONES = "ones"
GEOMETRIC = "geometric"
CHEBYSHEV_EXTREME = "chebyshev_extreme"
CHEBYSHEV_PLUS_ISOLATED = "chebyshev_plus_isolated"


@dataclass
class InstanceSpec:
    n: int
    m: int
    alpha: float
    beta: float
    zeta: float
    g0_kind: str = ONES
    eta: float = -5e-3
    rng_seed: int = 0
    spectrum_kind: str = CHEBYSHEV_EXTREME
    iso_value: float = 1.0

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError("need alpha < beta")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("need 0 < zeta < 1")
        if self.m >= self.n:
            raise ValueError("need m < n")
        if self.g0_kind not in (ONES, GEOMETRIC):
            raise ValueError(f"unknown g0_kind {self.g0_kind!r}")
        if self.spectrum_kind not in (CHEBYSHEV_EXTREME, CHEBYSHEV_PLUS_ISOLATED):
            raise ValueError(f"unknown spectrum_kind {self.spectrum_kind!r}")


@dataclass
class GroundTruth:
    h_diag: np.ndarray
    g0: np.ndarray
    zeta: float
    gamma: float
    theta: np.ndarray      # ascending spectrum of H
    xi: np.ndarray         # gradient coordinates matching theta
    lambda_star: float
    kappa: float
    kappa_plus: float
    case_tag: str
    qr: np.ndarray         # Householder vectors V of the QR of C (n x m, unit lower trapezoidal)
    tau: np.ndarray        # their scalar factors
    a: np.ndarray
    eta_coupling: float

    @property
    def S1(self):
        """Orthonormal basis of null(C'), n x (n-m): the WY apply of S to
        [0; I], formed in O(n^2 m) per read."""
        n, m = self.qr.shape
        E = np.zeros((n, n - m))
        E[m:] = np.eye(n - m)
        return _wy_apply(self.qr, _wy_t_inv(self.qr, self.tau), E, 0)


def _wy_t_inv(v, tau):
    """T^{-1} = striu(V'V) + diag(1/tau) of S = I - V T V', in Fortran order.

    This is the UT transform of Joffrain et al. (ACM TOMS 32(2), 2006):
    S orthogonal means T^{-1} + T^{-T} = V'V, and 1/tau = v_i'v_i / 2.
    """
    t_inv = np.triu(v.T @ v, 1)
    t_inv[np.diag_indices_from(t_inv)] = 1.0 / tau
    return np.asfortranarray(t_inv)


def _wy_apply(v, t_inv, X, trans):
    """S X (``trans=0``) or S' X (``trans=1``) as a new array, for a vector
    or an n x k block: X - V T (V'X), with T's product one triangular solve."""
    t, info = lapack.dtrtrs(t_inv, v.T @ X, trans=trans, overwrite_b=1)
    if info != 0:
        raise ValueError(f"dtrtrs failed with info = {info}")
    return X - v @ t


def chebyshev_extreme_nodes(l, alpha, beta):
    """The l+1 translated Chebyshev extreme nodes on [alpha, beta].

    Node j is omega*(cos(j pi / l) - tau) with omega = (beta-alpha)/2 and
    tau = -(alpha+beta)/(beta-alpha); the first and last node are beta
    and alpha exactly.
    """
    if not alpha < beta:
        raise ValueError("need alpha < beta")
    j = np.arange(l + 1)
    omega = (beta - alpha) / 2.0
    tau = -(alpha + beta) / (beta - alpha)
    nodes = omega * (np.cos(j * np.pi / l) - tau)
    nodes[0] = beta
    nodes[l] = alpha
    return nodes


class EmbeddedOperator(SymmetricOperator):
    """Action of A = S K S' with K = [[eta I, a g0'], [g0 a', diag(h)]].

    S = [S2 S1] is the orthogonal factor of ``sla.qr(C)``; its first m
    columns S2 span range(C) and the rest S1 span null(C').  The operator
    holds S in compact WY form S = I - V T V': ``v`` is the ``geqrf``
    output ``qr`` itself, made unit lower trapezoidal in place (its upper
    triangle held R, which the reflectors do not use), and ``t_inv`` is
    the m x m upper triangle T^{-1}, formed once.  An apply to a vector
    is four GEMVs with V, two m x m triangular solves and K in O(n); an
    n x k block takes GEMMs instead.  No array larger than n x m is held.
    """

    def __init__(self, qr, tau, h, g0, a, eta):
        super().__init__(qr.shape[0])
        m = tau.size
        qr[np.triu_indices(m, 1)] = 0.0
        qr[np.diag_indices(m)] = 1.0
        self.v = qr
        self.t_inv = _wy_t_inv(qr, tau)
        self.h, self.g0, self.a, self.eta = h, g0, a, eta

    def matmat(self, X):
        # one body for a vector and a block: a vector stays on GEMV
        Y = _wy_apply(self.v, self.t_inv, X, 1)
        m = self.t_inv.shape[0]
        Y2, Y1 = Y[:m], Y[m:]
        s1 = self.g0 @ Y1
        s2 = self.a @ Y2
        Y2 *= self.eta
        Y2 += np.multiply.outer(self.a, s1)
        np.multiply(Y1.T, self.h, out=Y1.T)  # row i of Y1 times h_i
        Y1 += np.multiply.outer(self.g0, s2)
        return _wy_apply(self.v, self.t_inv, Y, 0)

    matvec = matmat


def embed(h_diag, g0, zeta, m, rng):
    """Embed a reduced pair (diag(h), g0) into a full problem (A, C, b).

    Draws a random C (Gaussian) and a random a with ||a|| = 1/zeta,
    couples the blocks by g0 a', and sets b = zeta^2 R'a so that the
    reduction of the assembled problem is exactly (h, g0) with
    gamma = sqrt(1 - zeta^2).  C is factored once by Householder QR and the
    orthogonal factor is never formed: the operator holds the n x m
    Householder vectors (the ``geqrf`` output, shared with the returned
    ``GroundTruth``) and an m x m triangle, so it costs O(nm) memory and
    O(nm) flops per vector apply.
    """
    h_diag = np.asarray(h_diag, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    nm = h_diag.size
    n = nm + m
    if np.min(np.abs(h_diag)) <= 1e-300:
        raise SingularHError("coupling weight needs H^{-1}: H has a zero eigenvalue")
    a = rng.standard_normal(m)
    a *= 1.0 / (zeta * np.linalg.norm(a))
    C0 = rng.standard_normal((n, m))
    (qr, tau), R = sla.qr(C0, mode="raw")
    b = zeta**2 * (R.T @ a)
    eta = float(g0 @ (g0 / h_diag)) / zeta**2
    A = EmbeddedOperator(qr, tau, h_diag, g0, a, eta)
    problem = CrqProblem(A, C0, b)

    order = np.argsort(h_diag, kind="stable")
    theta = h_diag[order]
    xi = g0[order]
    gamma = float(np.sqrt(1.0 - zeta**2))
    lam, _, tag = solve_plgopt_spectral(theta, xi, gamma)
    span_lo = theta[0] - lam
    kappa = (theta[-1] - lam) / span_lo if span_lo > 0 else np.inf
    span2 = theta[1] - lam if theta.size > 1 else span_lo
    kappa_plus = (theta[-1] - lam) / span2 if span2 > 0 else np.inf
    truth = GroundTruth(
        h_diag=h_diag, g0=g0, zeta=float(zeta), gamma=gamma,
        theta=theta, xi=xi, lambda_star=float(lam),
        kappa=float(kappa), kappa_plus=float(kappa_plus), case_tag=tag,
        qr=qr, tau=tau, a=a, eta_coupling=eta,
    )
    return problem, truth


def generate(spec):
    """Build the benchmark instance described by ``spec``."""
    rng = np.random.default_rng(spec.rng_seed)
    nm = spec.n - spec.m
    if spec.spectrum_kind == CHEBYSHEV_EXTREME:
        h = chebyshev_extreme_nodes(nm - 1, spec.alpha, spec.beta)
    else:
        h = np.concatenate(
            [chebyshev_extreme_nodes(nm - 2, spec.alpha, spec.beta), [spec.iso_value]]
        )
    if spec.g0_kind == ONES:
        g0 = np.ones(nm)
    else:
        g0 = np.exp(spec.eta * np.arange(1, nm + 1))
    return embed(h, g0, spec.zeta, spec.m, rng)


def reference_solution(problem, truth):
    """Exact minimizer of a generated instance from its ground truth.

    The reduction is known by construction (H diagonal), so the
    reference point is assembled directly from the spectral case
    analysis, without any dense factorization of the full problem:
    S1 y is one WY apply of S to [0_m; y].
    """
    feas = classify(problem)
    order = np.argsort(truth.h_diag, kind="stable")
    lam, y_sorted, tag = solve_plgopt_spectral(truth.theta, truth.xi, truth.gamma)
    m = truth.tau.size
    z = np.zeros(problem.n)
    z[m + order] = y_sorted
    s1y = _wy_apply(truth.qr, _wy_t_inv(truth.qr, truth.tau), z, 0)
    return crq_solution(problem, feas.n0 + s1y, lam,
                        EASY if tag == EASY_TAG else HARD, feas.n0)


def verify_roundtrip(problem, truth):
    """Check the construction identities of a generated instance.

    Verifies that the reduction of the assembled problem reproduces the
    prescribed diagonal H and gradient g0 to 1e-10 relative, that gamma matches
    sqrt(1 - zeta^2), and (for positive definite H) that A is positive
    semidefinite up to roundoff.  Raises ``VerificationError`` naming the
    first violated identity; returns the measured gaps otherwise.
    """
    S1 = truth.S1
    h, g0 = truth.h_diag, truth.g0

    H_round = S1.T @ problem.A.apply(S1)
    h_gap = float(np.max(np.abs(H_round - np.diag(h))))
    h_scale = float(np.max(np.abs(h)))
    if h_gap > 1e-10 * h_scale:
        raise VerificationError(f"reduced operator mismatch: {h_gap:.3e}")

    feas = classify(problem)
    g_gap = float(np.linalg.norm(S1.T @ feas.b0 - g0))
    if g_gap > 1e-10 * max(np.linalg.norm(g0), 1e-300):
        raise VerificationError(f"reduced gradient mismatch: {g_gap:.3e}")

    gamma_gap = abs(feas.gamma - np.sqrt(1.0 - truth.zeta**2))
    if gamma_gap > 1e-12:
        raise VerificationError(f"radius mismatch: {gamma_gap:.3e}")

    min_eig_a = None
    if np.all(h > 0):
        # eigenvalues of A: eta with multiplicity m-1, plus the arrow
        # matrix over the h-block and the a-direction
        na = np.linalg.norm(truth.a)
        nm = h.size
        arrow = np.zeros((nm + 1, nm + 1))
        arrow[:nm, :nm] = np.diag(h)
        arrow[:nm, nm] = g0 * na
        arrow[nm, :nm] = g0 * na
        arrow[nm, nm] = truth.eta_coupling
        vals = sla.eigvalsh(arrow)
        min_eig_a = float(min(vals[0], truth.eta_coupling))
        norm_a = float(max(np.max(np.abs(vals)), abs(truth.eta_coupling)))
        if min_eig_a < -1e-10 * norm_a:
            raise VerificationError(f"A not positive semidefinite: {min_eig_a:.3e}")

    return {
        "h_gap": h_gap,
        "g0_gap": g_gap,
        "gamma_gap": float(gamma_gap),
        "min_eig_a": min_eig_a,
    }
