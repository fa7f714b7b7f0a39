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
kept as an action (dense factors S1, S2 and small vectors), never as an
n x n array.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
    spectrum_kind: str = CHEBYSHEV_EXTREME
    iso_value: float = 1.0
    rng_seed: int = 0

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
    S1: np.ndarray
    S2: np.ndarray
    a: np.ndarray
    eta_coupling: float


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
    """Action of A = S * [[diag(h), g0 a'], [a g0', eta I]] * S'."""

    def __init__(self, S1, S2, h, g0, a, eta):
        super().__init__(S1.shape[0])
        self.S1, self.S2 = S1, S2
        self.h, self.g0, self.a, self.eta = h, g0, a, eta

    def matvec(self, x):
        y1 = self.S1.T @ x
        y2 = self.S2.T @ x
        top = self.h * y1 + self.g0 * (self.a @ y2)
        bot = (self.g0 @ y1) * self.a + self.eta * y2
        return self.S1 @ top + self.S2 @ bot

    def matmat(self, X):
        Y1 = self.S1.T @ X
        Y2 = self.S2.T @ X
        top = self.h[:, None] * Y1 + np.outer(self.g0, self.a @ Y2)
        bot = np.outer(self.a, self.g0 @ Y1) + self.eta * Y2
        return self.S1 @ top + self.S2 @ bot


def embed(h_diag, g0, zeta, m, rng):
    """Embed a reduced pair (diag(h), g0) into a full problem (A, C, b).

    Draws a random C (Gaussian, full QR for the orthogonal split) and a
    random a with ||a|| = 1/zeta, couples the blocks by g0 a', and sets
    b = zeta^2 R'a so that the reduction of the assembled problem is
    exactly (h, g0) with gamma = sqrt(1 - zeta^2).
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
    Q, R = sla.qr(C0)
    S2, S1 = Q[:, :m], Q[:, m:]
    R = R[:m, :]
    b = zeta**2 * (R.T @ a)
    eta = float(g0 @ (g0 / h_diag)) / zeta**2
    A = EmbeddedOperator(S1, S2, h_diag, g0, a, eta)
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
        S1=S1, S2=S2, a=a, eta_coupling=eta,
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
    analysis, without any dense factorization of the full problem.
    """
    feas = classify(problem)
    order = np.argsort(truth.h_diag, kind="stable")
    lam, y_sorted, tag = solve_plgopt_spectral(truth.theta, truth.xi, truth.gamma)
    y = np.empty_like(y_sorted)
    y[order] = y_sorted
    return crq_solution(problem, feas.n0 + truth.S1 @ y, lam,
                        EASY if tag == EASY_TAG else HARD, feas.n0, feas.gamma,
                        extras={"case_tag": tag})


def verify_roundtrip(problem, truth, rtol=1e-10):
    """Check the construction identities of a generated instance.

    Verifies that the reduction of the assembled problem reproduces the
    prescribed diagonal H and gradient g0, that gamma matches
    sqrt(1 - zeta^2), and (for positive definite H) that A is positive
    semidefinite up to roundoff.  Raises ``VerificationError`` naming the
    first violated identity; returns the measured gaps otherwise.
    """
    S1, S2 = truth.S1, truth.S2
    h, g0 = truth.h_diag, truth.g0

    H_round = S1.T @ problem.A.apply(S1)
    h_gap = float(np.max(np.abs(H_round - np.diag(h))))
    h_scale = float(np.max(np.abs(h)))
    if h_gap > rtol * h_scale:
        raise VerificationError(f"reduced operator mismatch: {h_gap:.3e}")

    feas = classify(problem)
    g_gap = float(np.linalg.norm(S1.T @ feas.b0 - g0))
    if g_gap > rtol * max(np.linalg.norm(g0), 1e-300):
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
