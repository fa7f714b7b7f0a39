"""The four benchmark workloads: inputs built from a seed, one solve, and
the correctness gate each solve must pass.

A synthetic solve is ``CrqProblem(A, C, b)`` followed by
``crqopt.solve``.  ``(A, C, b)`` are generated during set-up, and a fresh
``CrqProblem`` is built for every solve, so the lazily cached norm
estimate and ``n0'An0`` are paid the way a user pays them.  A raster
solve is one ``crqopt.clustering.segment`` call.  The library sees only
the generated inputs; the seed never reaches it.
"""

import time
from dataclasses import dataclass

import numpy as np

import crqopt
import crqopt.clustering
from crqopt.clustering import LabelSet, default_segment_options

N, M, ZETA = 1100, 100, 0.9
INSTANCES_PER_RUN = 3

# gate tolerances: easy instances against the generator's exact minimizer,
# degenerate ones with the objective tolerance of acceptance criterion 9
EASY_TOL = 1e-10
HARD_TOL = 1e-6
CONSTRAINT_TOL = 1e-10

RASTER = 256
FOREGROUND_RC = (128, 30)
BACKGROUND_RC = (128, 220)


def _seeds(seed, workload_index, count):
    """Independent generator seeds for one workload, derived from the run seed."""
    return np.random.SeedSequence([seed, workload_index]).generate_state(count)


class NoTrace:
    """Stand-in for ``tracing.Tracer`` in untraced runs: records nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def operator(self, A):
        return A


NO_TRACE = NoTrace()


@dataclass
class Instance:
    A: crqopt.SymmetricOperator
    C: np.ndarray
    b: np.ndarray
    reference: crqopt.CrqSolution
    generate_s: float


class SyntheticWorkload:
    """Generated (A, C, b) instances solved through ``crqopt.solve``.

    ``make`` maps a generator seed to ``(problem, truth)``.  The gate
    compares each answer with ``crqopt.reference_solution``, the exact
    minimizer assembled from the generator's ground truth.
    """

    def __init__(self, name, index, make, opts, case, tol):
        self.name = name
        self.index = index
        self.make = make
        self.opts = opts
        self.case = case
        self.tol = tol

    def setup(self, seed):
        instances = []
        for s in _seeds(seed, self.index, INSTANCES_PER_RUN):
            t0 = time.perf_counter()
            problem, truth = self.make(int(s))
            generate_s = time.perf_counter() - t0
            reference = crqopt.reference_solution(problem, truth)
            if reference.case != self.case:
                raise ValueError(f"{self.name}: generated a {reference.case} instance")
            instances.append(Instance(problem.A, problem.C, problem.b, reference, generate_s))
        return instances

    def solve(self, inst, tracer=NO_TRACE):
        # looked up at call time, so a traced run sees the wrappers
        problem = crqopt.CrqProblem(tracer.operator(inst.A), inst.C, inst.b)
        return crqopt.solve(problem, self.opts)

    def check(self, inst, sol):
        """None when ``sol`` is a correct answer for ``inst``, else the reason."""
        if sol.case != self.case:
            return f"case {sol.case!r}, expected {self.case!r}"
        v = sol.v
        objective = float(v @ inst.A.matvec(v))
        ref = inst.reference.objective
        scale = max(abs(ref), 1.0) if self.case == crqopt.EASY else 1.0
        for label, value in (("objective of v", objective), ("reported objective", sol.objective)):
            gap = abs(value - ref) / scale
            if not gap <= self.tol:
                return f"{label} off by {gap:.3e} (tol {self.tol:g})"
        norm_gap = abs(np.linalg.norm(v) - 1.0)
        if not norm_gap <= self.tol:
            return f"| ||v|| - 1 | = {norm_gap:.3e}"
        residual = np.linalg.norm(inst.C.T @ v - inst.b)
        if not residual <= CONSTRAINT_TOL * (1.0 + np.linalg.norm(inst.b)):
            return f"constraint residual {residual:.3e}"
        return None


def _worst_case(beta):
    def make(s):
        return crqopt.generate(crqopt.InstanceSpec(
            n=N, m=M, alpha=1.0, beta=beta, zeta=ZETA, rng_seed=s))
    return make


def _degenerate(s):
    """True hard case on the pattern of acceptance criterion 9, at n=1100.

    Bottom eigenvalue 1 with zero gradient weight, tail linspace(3, 100),
    and the stationary point at a random fill of the feasible radius.
    """
    rng = np.random.default_rng(s)
    nm = N - M
    h = np.concatenate([[1.0], np.linspace(3.0, 100.0, nm - 1)])
    gamma = np.sqrt(1.0 - ZETA**2)
    fill = rng.uniform(0.3, 0.7)
    g_tail = rng.uniform(0.5, 1.5, nm - 1)
    w_norm = np.linalg.norm(g_tail / (h[1:] - 1.0))
    g0 = np.concatenate([[0.0], g_tail * (fill * gamma / w_norm)])
    return crqopt.embed(h, g0, ZETA, M, rng)


@dataclass
class Raster:
    image: np.ndarray
    labels: LabelSet
    expected: np.ndarray
    generate_s: float = 0.0


class SegmentWorkload:
    """Demo 04's two-region raster; the seed shifts only the texture phase."""

    name = "segment_raster"
    index = 3

    def __init__(self):
        self.opts = default_segment_options()

    def setup(self, seed):
        phase = np.random.default_rng(_seeds(seed, self.index, 1)[0]).uniform(0.0, 2.0 * np.pi, 2)
        yy, xx = np.mgrid[0:RASTER, 0:RASTER]
        image = np.where(xx < RASTER // 2, 60.0, 180.0)
        image += 10.0 * np.sin(yy / 9.0 + phase[0]) + 6.0 * np.cos(xx / 7.0 + phase[1])
        labels = LabelSet.from_pixels(image.shape, [FOREGROUND_RC], [BACKGROUND_RC])
        return [Raster(image, labels, xx < RASTER // 2)]

    def solve(self, raster, tracer=NO_TRACE):
        return crqopt.clustering.segment(raster.image, raster.labels, opts=self.opts)

    def check(self, raster, result):
        mask, _, stats = result
        if not stats["converged"]:
            return "not converged"
        if not mask[FOREGROUND_RC] or mask[BACKGROUND_RC]:
            return "a labelled pixel is on the wrong side"
        wrong = int(np.count_nonzero(mask != raster.expected))
        if wrong:
            return f"{wrong} pixels off the left/right split"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        SyntheticWorkload("worst_case_lgopt", 0, _worst_case(1000.0),
                          crqopt.SolveOptions(), crqopt.EASY, EASY_TOL),
        SyntheticWorkload("worst_case_qepmin", 1, _worst_case(300.0),
                          crqopt.SolveOptions(method=crqopt.QEPMIN, detect_hard=False),
                          crqopt.EASY, EASY_TOL),
        SyntheticWorkload("degenerate_lgopt", 2, _degenerate,
                          crqopt.SolveOptions(tol=1e-13, maxit=N), crqopt.HARD, HARD_TOL),
        SegmentWorkload(),
    )
}
