"""Run one workload in this process: set up, warm up, time solves, and
check every solve outside the timed region.

``run.py`` starts one of these per measurement, so that peak RSS and
set-up time belong to a single workload.  The last line of standard
output is a JSON object with the measurement.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned T [--setup-only] [--spans PATH]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

import numpy as np
import scipy

import crqopt
import tracing
from workloads import NO_TRACE, WORKLOADS

DEGENERATE_WARNING = "nearly degenerate reduced problem"
# end-to-end metrics (name, unit); run.py fills in setup_s from all set-up runs
END_TO_END = [("solves_per_s", "1/s"), ("solve_s_p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("passed_frac", "ratio")]


class Measurement:
    def __init__(self):
        self.times = []
        self.failures = []
        self.degenerate_warnings = 0
        self.other_warnings = set()

    @property
    def attempted(self):
        return len(self.times)

    @property
    def passed(self):
        return self.attempted - len(self.failures)

    @property
    def solves_per_s(self):
        return self.passed / sum(self.times)


def measure(workload, inputs, seconds, tracer=NO_TRACE, out=None):
    """Solve the inputs in whole rounds until ``seconds`` of solve time
    have passed, at least one round; add the solves to ``out``.

    Only the solve is timed; the gate runs after it.  A solve that raises
    or fails the gate counts as failed.  With a ``tracing.Tracer`` each
    solve is a root span.
    """
    out = Measurement() if out is None else out
    spent = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while True:
            for inp in inputs:
                t0 = time.perf_counter()
                try:
                    result = tracer.call(tracing.ROOT, workload.solve, inp, tracer)
                except Exception as err:  # a solve that raises is a failed solve
                    result = err
                out.times.append(time.perf_counter() - t0)
                spent += out.times[-1]
                if isinstance(result, Exception):
                    reason = f"raised {type(result).__name__}: {result}"
                else:
                    reason = workload.check(inp, result)
                if reason is not None:
                    out.failures.append((out.attempted - 1, reason))
            if spent >= seconds:
                break
    for w in caught:
        if DEGENERATE_WARNING in str(w.message):
            out.degenerate_warnings += 1
        else:
            out.other_warnings.add(f"{w.category.__name__}: {w.message}")
    return out


def environment(seed, blas_threads):
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "crqopt": os.path.dirname(crqopt.__file__),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{config.get('name')} {config.get('version')}",
        "blas_threads": blas_threads,
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    warm = measure(workload, inputs[:1], 0.0)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "warmup_failures": warm.failures}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["env"] = environment(args.seed, os.environ.get("OPENBLAS_NUM_THREADS"))
    if not args.trace:
        run = measure(workload, inputs, args.seconds)
        result.update(
            attempted=run.attempted, failures=run.failures, times=run.times,
            degenerate_warnings=run.degenerate_warnings,
            other_warnings=sorted(run.other_warnings),
            metrics={
                "solves_per_s": run.solves_per_s,
                "solve_s_p50": statistics.median(run.times),
                "peak_rss_mb": peak_rss_mb(),
                "passed_frac": run.passed / run.attempted,
            },
            units=dict(END_TO_END),
        )
    else:
        # alternate untraced and traced rounds, so that drift in machine
        # speed falls on both sides of the overhead comparison alike
        plain, run, tracer = Measurement(), Measurement(), tracing.Tracer()
        while sum(plain.times) + sum(run.times) < args.seconds:
            measure(workload, inputs, 0.0, out=plain)
            with tracing.installed(tracer):
                measure(workload, inputs, 0.0, tracer=tracer, out=run)
        metrics = tracing.layer_metrics(tracer.spans, run.attempted)
        # 1 - traced / untraced solves per second, from the solve times so
        # that failed solves do not enter it
        overhead = 1.0 - statistics.fmean(plain.times) / statistics.fmean(run.times)
        metrics.update({
            "secular.degenerate_warnings": run.degenerate_warnings / run.attempted,
            "instances.generate_s": statistics.median(inp.generate_s for inp in inputs),
            "trace.solves": run.attempted,
            "trace.solves_per_s": run.solves_per_s,
            "trace.untraced_solves_per_s": plain.solves_per_s,
            "trace.overhead_frac": overhead,
        })
        result.update(
            attempted=plain.attempted + run.attempted,
            failures=plain.failures + [(plain.attempted + i, r) for i, r in run.failures],
            times=run.times,
            degenerate_warnings=plain.degenerate_warnings + run.degenerate_warnings,
            other_warnings=sorted(plain.other_warnings | run.other_warnings),
            span_error=tracing.check_spans(tracer.spans),
            metrics=metrics,
            units=dict(tracing.PER_LAYER),
        )
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump([s.as_dict(i) for i, s in enumerate(tracer.spans)], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
