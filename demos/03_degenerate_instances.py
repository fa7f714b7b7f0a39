"""Degenerate and nearly degenerate instances.

When the shifted gradient is orthogonal to the bottom eigenspace of the
reduced operator and the stationary point fits inside the feasible
radius, the optimal multiplier collides with the bottom of the spectrum
and the Krylov space started at the gradient can never see the relevant
eigenvector.  The driver detects this with an independent projected
eigensolve, which steps beside the main loop and is judged after
convergence, and repairs the minimizer by padding with the computed
eigenvector.

A nearby regime -- tiny but nonzero gradient weight on the bottom
eigenvector -- stays solvable but converges slowly; the detection report
(``solution.detection``) gives the gap between the multiplier and the
spectrum bottom as a diagnostic.
"""

import numpy as np

import crqopt

rng = np.random.default_rng(3)
nm, m, zeta = 26, 3, 0.9
gamma = np.sqrt(1.0 - zeta**2)
h = np.concatenate([[1.0], np.linspace(3.0, 11.0, nm - 1)])

# gradient orthogonal to the bottom eigenvector, stationary point at
# half the radius: a genuinely degenerate instance
g_tail = rng.uniform(0.5, 1.5, nm - 1)
scale = 0.5 * gamma / np.linalg.norm(g_tail / (h[1:] - 1.0))
g0_hard = np.concatenate([[0.0], g_tail * scale])
problem, truth = crqopt.embed(h, g0_hard, zeta, m, rng)

red = crqopt.build_reduction(problem)
print("degenerate by the reduced-level predicate:",
      crqopt.hard_case_predicate(red, truth.gamma))

solution = crqopt.solve(problem, crqopt.SolveOptions(tol=1e-13, maxit=problem.n))
reference = crqopt.direct_solve(problem)
print(f"driver case = {solution.case}, multiplier = {solution.mu:.8f} "
      f"(spectrum bottom = {h[0]:g})")
print(f"objective: driver = {solution.objective:.10f}, "
      f"reference = {reference.objective:.10f}")
print(f"detection certificate: {solution.detection.certificate} "
      f"after {solution.detection.steps} steps")

# same spectrum, but a whisper of gradient weight on the bottom
# eigenvector: no longer degenerate, yet numerically close to it
g0_near = g0_hard.copy()
g0_near[0] = 1e-5
problem2, truth2 = crqopt.embed(h, g0_near, zeta, m, np.random.default_rng(4))
solution2 = crqopt.solve(problem2, crqopt.SolveOptions(tol=1e-13, maxit=problem2.n))
print(f"\nnear-degenerate run: case = {solution2.case}, "
      f"multiplier = {solution2.mu:.8f}")
print(f"diagnostic gap to the spectrum bottom: {solution2.detection.gap:.6f} "
      f"(exact: {1.0 - truth2.lambda_star:.6f})")
print(f"detection certificate: {solution2.detection.certificate} "
      f"after {solution2.detection.steps} steps")
