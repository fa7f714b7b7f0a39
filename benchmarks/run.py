"""Solve benchmark for crqopt: one workload per invocation.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each measurement runs in a fresh worker process with an
explicit BLAS thread count.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  A report (environment, set-up
samples, solve times, failures) goes to ``.bench_out/``, and the
traced run's spans next to it.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: on a shared 2-core host, two threads made the memory-bound
# workloads' run-to-run spread worse (IQR 16-19% of the median against
# 10-12% on worst_case_lgopt) for a 20% gain in speed.
BLAS_THREADS = 1
# set-up is measured in this many processes; the reported value is their median
SETUP_RUNS = 3
DEADLINE_S = 170.0
# BENCHMARK.json gates on worst_case_lgopt and segment_raster only; the two
# short-solve workloads run by hand (see README.md, "Bounds")
WORKLOADS =("worst_case_lgopt", "worst_case_qepmin", "degenerate_lgopt", "segment_raster")


class BenchError(Exception):
    pass


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def worker(args, deadline, setup_only=False, spans=None):
    """Run benchmarks/worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "crqopt" / "__init__.py").is_file():
        raise BenchError(f"no crqopt sources under {SRC}; run from a source checkout")
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{label}-spans.json" if args.trace else None

    runs = [worker(args, deadline, setup_only=True) for _ in range(SETUP_RUNS - 1)
            if not args.trace]
    result = worker(args, deadline, spans=spans)
    runs.append(result)
    if not result["env"]["crqopt"].startswith(str(SRC)):
        raise BenchError(f"worker imported crqopt from {result['env']['crqopt']}")
    setups = [r["setup_s"] for r in runs]

    failures = result["failures"]
    errors = [f"warm-up: {reason}" for r in runs for _, reason in r["warmup_failures"]]
    errors += [f"solve {i}: {reason}" for i, reason in failures]
    if result.get("span_error"):
        errors.append(f"trace: {result['span_error']}")
    metrics, units = result["metrics"], result["units"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "env": result["env"],
        "setup_s_samples": setups, "solve_s_samples": result["times"],
        "attempted": result["attempted"], "failures": failures,
        "degenerate_warnings": result["degenerate_warnings"],
        "other_warnings": result["other_warnings"], "metrics": metrics,
    }
    (OUT / f"{label}.json").write_text(json.dumps(report, indent=1))

    print(f"# {args.workload} seed={args.seed} commit={report['commit']}")
    print(f"# env {json.dumps(result['env'])}")
    print(f"# {len(result['times'])} timed solves, setup samples "
          + ", ".join(f"{s:.3f}" for s in setups)
          + f"; failed_frac {len(failures) / result['attempted']:.4g}"
          + f"; {result['degenerate_warnings']} nearly-degenerate warnings")
    for warning in result["other_warnings"]:
        print(f"# warning: {warning}")
    for err in errors:
        print(f"# FAILED {err}")
    for name in units:
        print(f"# {name:34s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(1)
