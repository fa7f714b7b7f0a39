"""Convergence envelopes and error histories.

The Krylov iterates admit Chebyshev-type a priori bounds governed by the
condition-like ratio of the shifted reduced spectrum,

    kappa = (theta_max - lambda*) / (theta_min - lambda*),

through the growth factor Gamma = (sqrt(kappa)+1)/(sqrt(kappa)-1): the
objective gap decays like [Gamma^k + Gamma^-k]^-2 and the iterate error
like [Gamma^k + Gamma^-k]^-1.  When the multiplier sits close to the
bottom of the spectrum but the second eigenvalue is well separated, the
same construction with the bottom eigenvalue deflated gives envelopes in

    kappa_plus = (theta_max - lambda*) / (theta_2 - lambda*)

with exponent k-1 and the prefactor rho = (theta_max-theta_min)/(theta_min-
lambda*); these can be far sharper in near-degenerate instances.

"Sharper" is a statement about rate, not an ordering at every k.  The
prefactor puts the refined family about rho above the plain one at small
k; it falls faster (Gamma_+ > Gamma, Gamma_+ the growth factor in
kappa_plus), so the ratio refined/plain decreases in k and crosses 1 once.
For the iterate bound the crossover is, to leading order,

    k_c = (ln rho + ln Gamma_+) / (ln Gamma_+ - ln Gamma),

and for the objective bound the ratio is exactly the square of the
iterate ratio divided by rho.  With rho ~ 6.4e4 and kappa_plus ~ 1e3, as
in the near-degenerate benchmark, k_c is about 200.
"""

from dataclasses import dataclass

import numpy as np

from .driver import rebuild_history

KAPPA_DEGENERATE = 1.0 + 1e-14


@dataclass
class BoundInputs:
    theta_min: float
    theta_2: float
    theta_max: float
    lambda_star: float
    gamma: float
    norm_b0: float

    @property
    def norm_h_shift(self):
        return max(
            abs(self.theta_min - self.lambda_star),
            abs(self.theta_max - self.lambda_star),
        )

    @property
    def kappa(self):
        return (self.theta_max - self.lambda_star) / (self.theta_min - self.lambda_star)

    @property
    def kappa_plus(self):
        return (self.theta_max - self.lambda_star) / (self.theta_2 - self.lambda_star)

    @classmethod
    def from_truth(cls, truth):
        """Bound inputs from a generated instance's ground truth."""
        return cls(
            theta_min=float(truth.theta[0]),
            theta_2=float(truth.theta[1]) if truth.theta.size > 1 else float(truth.theta[0]),
            theta_max=float(truth.theta[-1]),
            lambda_star=truth.lambda_star,
            gamma=truth.gamma,
            norm_b0=float(np.linalg.norm(truth.g0)),
        )


def inv_cosh_power(log_gamma, k):
    """[Gamma^k + Gamma^-k]^{-1} evaluated in the log domain (no overflow)."""
    e = np.exp(-k * log_gamma)
    return e / (1.0 + e * e)


def _envelopes(inp, ratio, exponent, rho):
    """The three envelopes for the rate ratio ``ratio`` (kappa or
    kappa_plus, above one), the Chebyshev ``exponent`` (k or k-1) and
    the prefactor ``rho`` (1.0 for the plain family)."""
    kappa = inp.kappa
    log_gamma = np.log((np.sqrt(ratio) + 1.0) / (np.sqrt(ratio) - 1.0))
    t = inv_cosh_power(log_gamma, exponent)
    nh = inp.norm_h_shift
    b1 = 16.0 * inp.gamma**2 * nh * rho * t * t
    b2 = 4.0 * inp.gamma * np.sqrt(kappa) * rho * t
    b3 = rho * (16.0 * nh * t * t + 4.0 / inp.gamma * inp.norm_b0 * np.sqrt(kappa) * t)
    return float(b1), float(b2), float(b3)


def convergence_bounds(inp, k):
    """Chebyshev envelopes (objective gap, iterate error, multiplier error).

    All three are absolute bounds.  A spectrum collapsed to one point
    (kappa ~ 1) makes the growth factor degenerate; the Krylov space
    then closes in one step, and zero bounds are returned.
    """
    if inp.kappa <= KAPPA_DEGENERATE:
        return 0.0, 0.0, 0.0
    return _envelopes(inp, inp.kappa, k, 1.0)


def refined_convergence_bounds(inp, k):
    """Deflated-bottom envelopes: exponent k-1 in kappa_plus, with the
    prefactor rho = (theta_max - theta_min)/(theta_min - lambda*).

    These are not capped by the plain envelopes: at small k they sit
    about rho above them, and drop below them only past
    k_c ~ (ln rho + ln Gamma_+)/(ln Gamma_+ - ln Gamma) for the iterate
    bound (see the module docstring).  They are zero when kappa_plus ~ 1,
    which is checked before rho, whose divisor may then be zero.
    """
    if inp.kappa_plus <= KAPPA_DEGENERATE:
        return 0.0, 0.0, 0.0
    rho = (inp.theta_max - inp.theta_min) / (inp.theta_min - inp.lambda_star)
    return _envelopes(inp, inp.kappa_plus, k - 1, rho)


def error_history(solution, ref, records=None):
    """Per-step relative errors against a reference solution.

    Needs a solve with ``return_basis=True``: each step's record, from the
    first check to the stop, is rebuilt after the solve from the returned
    tridiagonal (``driver.rebuild_history``, replayed here unless the
    caller passes its ``records``), whether or not the loop checked at
    that step, and its iterate from the returned basis.  Rows
    carry ``err1 = |h(v_k) - h(v*)| / |h(v*)|``, ``err2 = ||v_k - v*||``
    and ``err3 = |mu_k - lambda*| / |lambda*|``.
    """
    run = solution.krylov
    if run is None:
        raise ValueError("error_history needs a solution with return_basis=True")
    h_ref = ref.objective
    mu_ref = ref.mu
    if records is None:
        records = rebuild_history(solution)
    rows = []
    for rec in records:
        v_k = run.n0 + run.basis[:, : rec.k] @ rec.x
        rows.append(
            {
                "k": rec.k,
                "err1": abs(rec.objective - h_ref) / abs(h_ref),
                "err2": float(np.linalg.norm(v_k - ref.v)),
                "err3": abs(rec.mu - mu_ref) / abs(mu_ref),
            }
        )
    return rows


def history_table(solution, ref, inp, records=None):
    """Error history joined with both bound families (CSV-ready rows)."""
    rows = error_history(solution, ref, records)
    for row in rows:
        b1, b2, b3 = convergence_bounds(inp, row["k"])
        b1p, b2p, b3p = refined_convergence_bounds(inp, row["k"])
        row.update({"b1": b1, "b2": b2, "b3": b3, "b1p": b1p, "b2p": b2p, "b3p": b3p})
    return rows
