"""Convergence on an adversarial instance, with a priori envelopes.

The generator places the reduced spectrum at translated Chebyshev
extreme nodes -- the distribution that makes Krylov projection converge
as slowly as possible for a given condition ratio -- and embeds it into
a full-size problem whose exact solution is known by construction.

The script runs the Lanczos driver, computes the three error measures
against the exact reference at every step (the per-step records are
rebuilt after the solve from the returned tridiagonal), evaluates both
Chebyshev bound families, and writes everything to a CSV (columns k,
err1..err3, b1..b3p).
"""

import numpy as np

import crqopt
from crqopt import io as cio

spec = crqopt.InstanceSpec(n=1100, m=100, alpha=1.0, beta=100.0, zeta=0.9, rng_seed=7)
problem, truth = crqopt.generate(spec)
crqopt.verify_roundtrip(problem, truth)
print(f"instance: n={spec.n}, m={spec.m}, spectrum on [{spec.alpha:g}, {spec.beta:g}]")
print(f"exact multiplier lambda* = {truth.lambda_star:.6f}, "
      f"condition ratio kappa = {truth.kappa:.4f}")

reference = crqopt.reference_solution(problem, truth)
solution = crqopt.solve(problem, crqopt.SolveOptions(
    method=crqopt.LGOPT, tol=1e-15, maxit=200, return_basis=True))
print(f"converged in {solution.k} Lanczos steps, {len(solution.history)} reduced solves")

inputs = crqopt.BoundInputs.from_truth(truth, ref_objective=reference.objective,
                                       ref_v=reference.v)
rows = crqopt.history_table(solution, reference, inputs)
cio.bench_csv("worst_case_history.csv", rows)
print("wrote worst_case_history.csv")

print(f"{'k':>4s} {'err2':>10s} {'bound':>10s}")
for row in rows[:: max(1, len(rows) // 8)]:
    print(f"{row['k']:4d} {row['err2']:10.2e} {row['b2']:10.2e}")
last = rows[-1]
print(f"final errors: err1={last['err1']:.2e}, err2={last['err2']:.2e}, "
      f"err3={last['err3']:.2e}")
