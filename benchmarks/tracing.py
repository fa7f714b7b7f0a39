"""Spans around crqopt's public functions, recorded from outside the library.

``installed(tracer)`` swaps wrappers in at the names the callers look up
and puts the originals back on exit; nothing is wrapped in an untraced
run.  ``driver`` binds ``lanczos_step``, ``solve_rlgopt``,
``solve_reduced_qep``, ``qep_residual_bound``, ``classify`` and
``detect_hard_case`` at import, so those wrappers go on
``crqopt.driver``.  The detection eigensolve reaches ``lanczos_step``
through ``crqopt.lanczos``, which gets a wrapper of its own, and the
norm estimate through ``crqopt.problem``.  The workloads call
``crqopt.CrqProblem``, ``crqopt.solve`` and ``crqopt.clustering.segment``
by attribute, and ``segment`` looks up ``build_graph``, ``to_crqopt``,
``CrqProblem``, ``solve`` and ``ncut_value`` in its module, so each of
those names is wrapped where it is looked up.  A-applies
are spans of ``TracedOperator`` (synthetic workloads) or of the patched
``NormalizedLaplacianOperator.matvec`` (raster workload); P-applies are
spans of the patched ``ProjectedOperator.apply_P``.

A span's self time is its duration minus the durations of its children,
so the self times of one solve add up to the solve's root span.
"""

import time
from contextlib import contextmanager

import crqopt
import crqopt.clustering
import crqopt.driver
import crqopt.lanczos
import crqopt.problem

ROOT = "solve"
A_APPLY = "operators.a_apply"
P_APPLY = "problem.p_apply"
STEP = "lanczos.step"
DETECT = "driver.detect"
NORM = "operators.norm_estimate"
RESIDUAL = "qepmin.residual_bound"
DRIVER = "driver.solve"


class Span:
    __slots__ = ("name", "parent", "solve", "start", "end", "attrs")

    def __init__(self, name, parent, solve, attrs):
        self.name = name
        self.parent = parent
        self.solve = solve
        self.attrs = attrs
        self.start = self.end = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index):
        return {"id": index, "name": self.name, "parent": self.parent, "solve": self.solve,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Spans kept in memory, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self.solves = 0
        self._stack = []

    def open(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            if name != ROOT:
                raise RuntimeError(f"span {name!r} opened outside a solve")
            solve = self.solves
            self.solves += 1
        else:
            solve = self.spans[parent].solve
        index = len(self.spans)
        span = Span(name, parent, solve, attrs)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def operator(self, A):
        return TracedOperator(A, self)


class TracedOperator(crqopt.SymmetricOperator):
    """Records one A-apply span per ``matvec``.  ``matmat`` falls back to
    the base class's column loop, so every column counts as an apply."""

    def __init__(self, op, tracer):
        super().__init__(op.n)
        self.op = op
        self.tracer = tracer

    def matvec(self, x):
        return self.tracer.call(A_APPLY, self.op.matvec, x)


def _wrap(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def _wrap_step(tracer, step):
    def traced(state):
        # one classical Gram-Schmidt pass at step j reads the n x j basis twice;
        # the conditional second pass is not visible from outside
        index = tracer.open(STEP, reorth_bytes=16 * state.n * (state.k + 1))
        try:
            return step(state)
        finally:
            tracer.close(index)
    return traced


def _wrap_detect(tracer, detect):
    def traced(*args, **kwargs):
        index = tracer.open(DETECT)
        try:
            report = detect(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.spans[index].attrs.update(hard=report.is_hard, certified=report.eig_converged)
        return report
    return traced


def _wrap_solve(tracer, solve):
    def traced(problem, opts=None):
        index = tracer.open(DRIVER)
        try:
            sol = solve(problem, opts)
        finally:
            tracer.close(index)
        opts = opts or crqopt.SolveOptions()
        last = sol.history[-1] if sol.history else None
        # the loop ends usefully on the tolerance or on breakdown (k < maxit)
        useful = last is not None and (last.delta <= opts.tol or last.k < opts.maxit)
        tracer.spans[index].attrs.update(checks=len(sol.history), useful_checks=int(useful))
        return sol
    return traced


@contextmanager
def installed(tracer):
    """Install the wrappers for the duration of the block."""
    driver, clustering = crqopt.driver, crqopt.clustering
    laplacian = clustering.NormalizedLaplacianOperator
    patches = [
        (driver, "lanczos_step", _wrap_step(tracer, driver.lanczos_step)),
        (crqopt.lanczos, "lanczos_step", _wrap_step(tracer, crqopt.lanczos.lanczos_step)),
        (driver, "solve_rlgopt", _wrap(tracer, "secular.reduced_solve", driver.solve_rlgopt)),
        (driver, "solve_reduced_qep",
         _wrap(tracer, "qepmin.reduced_solve", driver.solve_reduced_qep)),
        (driver, "qep_residual_bound", _wrap(tracer, RESIDUAL, driver.qep_residual_bound)),
        (driver, "classify", _wrap(tracer, "problem.classify", driver.classify)),
        (driver, "detect_hard_case", _wrap_detect(tracer, driver.detect_hard_case)),
        (crqopt.problem, "norm_estimate", _wrap(tracer, NORM, crqopt.problem.norm_estimate)),
        (crqopt.problem.ProjectedOperator, "apply_P",
         _wrap(tracer, P_APPLY, crqopt.problem.ProjectedOperator.apply_P)),
        (laplacian, "matvec", _wrap(tracer, A_APPLY, laplacian.matvec)),
        (clustering, "build_graph", _wrap(tracer, "clustering.build_graph", clustering.build_graph)),
        (clustering, "to_crqopt", _wrap(tracer, "clustering.to_crqopt", clustering.to_crqopt)),
        (clustering, "ncut_value", _wrap(tracer, "clustering.ncut", clustering.ncut_value)),
        (clustering, "CrqProblem", _wrap(tracer, "problem.construct", clustering.CrqProblem)),
        (clustering, "solve", _wrap_solve(tracer, clustering.solve)),
        (clustering, "segment", _wrap(tracer, "clustering.segment", clustering.segment)),
        (crqopt, "CrqProblem", _wrap(tracer, "problem.construct", crqopt.CrqProblem)),
        (crqopt, "solve", _wrap_solve(tracer, crqopt.solve)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# per-layer metrics: (name, unit), each reported as a mean per traced solve
PER_LAYER = [
    ("driver.detect_s", "s"),
    ("driver.detect_steps", "count"),
    ("driver.detect_a_applies", "count"),
    ("driver.detect_certified_frac", "ratio"),
    ("driver.hard_decisions", "count"),
    ("driver.checks", "count"),
    ("driver.useful_check_frac", "ratio"),
    ("driver.solve_self_s", "s"),
    ("qepmin.reduced_solves", "count"),
    ("qepmin.reduced_solve_s", "s"),
    ("qepmin.residual_bound_s", "s"),
    ("qepmin.residual_bound_a_applies", "count"),
    ("secular.reduced_solves", "count"),
    ("secular.reduced_solve_s", "s"),
    ("secular.degenerate_warnings", "count"),
    ("lanczos.steps", "count"),
    ("lanczos.step_self_s", "s"),
    ("lanczos.reorth_bytes_computed", "B"),
    ("operators.a_applies", "count"),
    ("operators.a_apply_s", "s"),
    ("operators.norm_estimate_s", "s"),
    ("operators.norm_estimate_a_applies", "count"),
    ("problem.construct_s", "s"),
    ("problem.classify_s", "s"),
    ("problem.p_applies", "count"),
    ("problem.p_apply_s", "s"),
    ("clustering.build_graph_s", "s"),
    ("clustering.to_crqopt_s", "s"),
    ("clustering.ncut_s", "s"),
    ("clustering.segment_self_s", "s"),
    ("instances.generate_s", "s"),
    ("trace.solve_s", "s"),
    ("trace.solves", "count"),
    ("trace.solves_per_s", "1/s"),
    ("trace.untraced_solves_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
]

# spans whose subtree is tallied separately: (span name, metric prefix)
_SUBTREES = ((DETECT, "driver.detect"), (NORM, "operators.norm_estimate"),
             (RESIDUAL, "qepmin.residual_bound"))


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def check_spans(spans, rel_tol=1e-9):
    """None when every span is closed and nested in its parent and the
    self times of each solve add up to its root span, else the reason."""
    if any(span.end is None for span in spans):
        return "a span was left open"
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                return f"{span.name} span outside its parent {parent.name}"
    total = {}
    for span, own in zip(spans, self_times(spans)):
        total[span.solve] = total.get(span.solve, 0.0) + own
    for span in spans:
        if span.parent is None:
            gap = abs(total[span.solve] - span.duration)
            if gap > rel_tol * max(span.duration, 1e-3):
                return f"self times of solve {span.solve} miss its span by {gap:.3e} s"
    return None


def layer_totals(spans):
    """Per-layer sums over all traced solves, keyed by metric name."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    inside = [()] * len(spans)
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        outer = inside[span.parent] if span.parent is not None else ()
        inside[index] = outer + tuple(prefix for name, prefix in _SUBTREES if name == span.name)
        name, dur = span.name, span.duration
        if name == STEP:
            add("lanczos.steps", 1)
            add("lanczos.step_self_s", own)
            add("lanczos.reorth_bytes_computed", span.attrs["reorth_bytes"])
            if "driver.detect" in outer:
                add("driver.detect_steps", 1)
        elif name == A_APPLY:
            add("operators.a_applies", 1)
            add("operators.a_apply_s", dur)
            for prefix in outer:
                add(prefix + "_a_applies", 1)
        elif name == P_APPLY:
            add("problem.p_applies", 1)
            add("problem.p_apply_s", dur)
        elif name == DETECT:
            add("driver.detect_s", dur)
            add("driver.detect_runs", 1)
            # a span whose call raised carries no outcome
            add("driver.detect_certified", span.attrs.get("certified", 0))
            add("driver.hard_decisions", span.attrs.get("hard", 0))
        elif name == DRIVER:
            add("driver.solve_self_s", own)
            add("driver.checks", span.attrs.get("checks", 0))
            add("driver.useful_checks", span.attrs.get("useful_checks", 0))
        elif name in ("qepmin.reduced_solve", "secular.reduced_solve"):
            add(name + "s", 1)
            add(name + "_s", dur)
        elif name == "clustering.segment":
            add("clustering.segment_self_s", own)
        elif name == ROOT:
            add("trace.solve_s", dur)
        else:
            # problem.construct, problem.classify, operators.norm_estimate,
            # qepmin.residual_bound, clustering.build_graph/to_crqopt/ncut
            add(name + "_s", dur)
    return totals


def layer_metrics(spans, solves):
    """Mean of each per-layer metric per traced solve, plus the ratios."""
    totals = layer_totals(spans)
    metrics = {name: totals.get(name, 0.0) / solves for name, _ in PER_LAYER}
    runs, checks = totals.get("driver.detect_runs", 0.0), totals.get("driver.checks", 0.0)
    metrics["driver.detect_certified_frac"] = (
        totals.get("driver.detect_certified", 0.0) / runs if runs else 0.0)
    metrics["driver.useful_check_frac"] = (
        totals.get("driver.useful_checks", 0.0) / checks if checks else 0.0)
    return metrics
