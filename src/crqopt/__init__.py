"""Lanczos solvers for Rayleigh-quotient minimization on the unit sphere
subject to linear equality constraints, with a dense reference solver,
convergence-envelope evaluation, a hard-instance generator and a
constrained normalized-cut pipeline built on top.
"""

from .analysis import BoundInputs, convergence_bounds, error_history, history_table, refined_convergence_bounds
from .driver import (B0_ZERO, EASY, HARD, LGOPT, QEPMIN, UNIQUE, CrqSolution,
                     KrylovRecord, SolveOptions, detect_hard_case, rebuild_history,
                     resolve_b0_zero, solve)
from .errors import (BracketFailureError, CrqError, EigFailureError,
                     EmptySideError, InfeasibleError, IsolatedPixelError,
                     MaxIterError, NoRealEigenvalueError, NoRootError,
                     NotConvergedError, RankDeficientError, SingularHError,
                     TooLargeError, VerificationError, ZeroStartError)
from .instances import (GroundTruth, InstanceSpec, chebyshev_extreme_nodes,
                        embed, generate, reference_solution, verify_roundtrip)
from .operators import SymmetricOperator, as_operator, norm_estimate
from .problem import CrqProblem, Feasibility, ProjectedOperator, classify, compute_n0
from .qepmin import ReducedQepSolution, qep_residual_bound, solve_reduced_qep
from .reference import (DenseReduction, build_reduction, direct_solve,
                        dual_check, equivalence_maps, hard_case_predicate,
                        solve_plgopt_dense)
from .secular import (SecularSpec, make_spec, secular_value, smallest_root,
                      solve_plgopt_spectral, solve_rlgopt)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
