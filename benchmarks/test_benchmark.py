"""Tests of the benchmark itself: the correctness gate can fail, traced
counts repeat on one seed, and a solve's self times add up to its span."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crqopt
import run
import tracing
import worker
from workloads import WORKLOADS

SEED = 7
COUNTS = ("lanczos.steps", "operators.a_applies", "problem.p_applies", "driver.checks",
          "driver.detect_steps", "driver.detect_a_applies", "driver.hard_decisions",
          "qepmin.reduced_solves", "qepmin.residual_bound_a_applies",
          "secular.reduced_solves", "operators.norm_estimate_a_applies")


def traced_solve(name):
    """Set up ``name`` on SEED and time one traced solve."""
    workload = WORKLOADS[name]
    inputs = workload.setup(SEED)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        out = worker.measure(workload, inputs[:1], 0.0, tracer=tracer)
    return out, tracer


@pytest.fixture(scope="module")
def qepmin_answer():
    workload = WORKLOADS["worst_case_qepmin"]
    inst = workload.setup(SEED)[0]
    return workload, inst, workload.solve(inst)


def test_gate_accepts_the_solver_answer(qepmin_answer):
    workload, inst, sol = qepmin_answer
    assert workload.check(inst, sol) is None


@pytest.mark.parametrize("corrupt", [
    lambda s: replace(s, v=s.v + 1e-6 * np.eye(s.v.size)[0]),
    lambda s: replace(s, case=crqopt.HARD),
    lambda s: replace(s, objective=s.objective * (1.0 + 1e-8)),
    lambda s: replace(s, v=-s.v),
], ids=["perturbed_v", "wrong_case", "wrong_objective", "flipped_v"])
def test_gate_rejects_corrupted_answers(qepmin_answer, corrupt):
    workload, inst, sol = qepmin_answer
    assert workload.check(inst, corrupt(sol)) is not None


def test_raster_gate_rejects_a_wrong_mask():
    workload = WORKLOADS["segment_raster"]
    raster = workload.setup(SEED)[0]
    mask = raster.expected.copy()
    assert workload.check(raster, (mask, None, {"converged": True})) is None
    assert workload.check(raster, (mask, None, {"converged": False})) is not None
    mask[0, 0] = not mask[0, 0]
    assert workload.check(raster, (mask, None, {"converged": True})) is not None


def test_failed_solves_count_against_attempted(qepmin_answer):
    workload, inst, _ = qepmin_answer

    class Corrupting:
        def solve(self, inst, tracer=None):
            sol = workload.solve(inst)
            return replace(sol, v=sol.v[::-1].copy())

        def check(self, inst, sol):
            return workload.check(inst, sol)

    class Raising(Corrupting):
        def solve(self, inst, tracer=None):
            raise crqopt.NotConvergedError("forced")

    for broken in (Corrupting(), Raising()):
        out = worker.measure(broken, [inst], 0.0)
        assert out.attempted == 1 and len(out.failures) == 1 and out.passed == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(name):
    first, tracer = traced_solve(name)
    second, again = traced_solve(name)
    assert not first.failures and not second.failures
    a = tracing.layer_metrics(tracer.spans, first.attempted)
    b = tracing.layer_metrics(again.spans, second.attempted)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["lanczos.steps"] > 0 and a["operators.a_applies"] > 0

    assert tracing.check_spans(tracer.spans) is None
    root = tracer.spans[0]
    assert root.name == tracing.ROOT
    own = tracing.self_times(tracer.spans)
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(root.duration, rel=1e-9)


def test_span_check_catches_a_child_outside_its_parent():
    tracer = tracing.Tracer()
    tracer.call(tracing.ROOT, tracer.call, "operators.a_apply", lambda: None)
    assert tracing.check_spans(tracer.spans) is None
    tracer.spans[1].end = tracer.spans[0].end + 1.0
    assert tracing.check_spans(tracer.spans) is not None


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    # BENCHMARK.json lists the workloads steady enough to gate on; run.py
    # runs every workload, in the same order
    names = [w["name"] for w in spec["workloads"]]
    assert list(run.WORKLOADS) == list(WORKLOADS)
    assert names == [name for name in run.WORKLOADS if name in names]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == worker.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
