"""Command-line frontend.

Subcommands:

    solve     problem files (manifest) -> solution vector + CSV of the checks
    gen       instance spec -> problem files + ground truth
    bench     instance spec -> error/bound CSV against the exact reference
    segment   PGM image + labels -> mask, heat map, stats
    validate  dense problem -> reference validator report

Exit codes: 0 success, 2 not converged (any tolerance missed), 3 infeasible,
1 usage/IO or failed validation.  All numeric output is deterministic for
a fixed ``--seed``.
"""

import argparse
import os
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import io as cio
from .analysis import BoundInputs, history_table
from .clustering import LabelSet, default_segment_options, segment
from .driver import LGOPT, QEPMIN, SolveOptions, rebuild_history, solve
from .errors import CrqError, InfeasibleError, NotConvergedError
from .instances import (CHEBYSHEV_EXTREME, CHEBYSHEV_PLUS_ISOLATED, GEOMETRIC, ONES,
                        InstanceSpec, generate, reference_solution, verify_roundtrip)
from .problem import INTERIOR, classify
from .reference import (build_reduction, dense_matrix, direct_solve, dual_check, equivalence_maps,
                        hard_case_predicate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_INFEASIBLE = 3


# the instance bench runs when given neither --spec nor instance flags
BENCH_SPEC = InstanceSpec(n=1100, m=100, alpha=1.0, beta=100.0, zeta=0.9)
# every InstanceSpec field but rng_seed (which --seed sets) is a flag
# --<name> with dashes, except where named here
_INSTANCE_FIELDS = [f for f in fields(InstanceSpec) if f.name != "rng_seed"]
_FLAG_NAMES = {"spectrum_kind": "--spectrum", "iso_value": "--iso"}
_CHOICES = {"g0_kind": [ONES, GEOMETRIC],
            "spectrum_kind": [CHEBYSHEV_EXTREME, CHEBYSHEV_PLUS_ISOLATED]}


def _add_solver_flags(parser, defaults):
    """Solver flags, defaulting to the ``SolveOptions`` ``defaults``."""
    parser.add_argument("--method", choices=[LGOPT, QEPMIN], default=defaults.method)
    parser.add_argument("--tol", type=float, default=defaults.tol)
    parser.add_argument("--maxit", type=int, default=defaults.maxit)
    parser.add_argument("--seed", type=int, default=defaults.rng_seed)


def _add_instance_flags(parser, base=None):
    """One flag per ``InstanceSpec`` field but the seed, defaulting to
    ``base``'s value; without a base, to the field's default, and a field
    without one is a required flag."""
    for f in _INSTANCE_FIELDS:
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        default = f.default if base is None else getattr(base, f.name)
        kwargs = {"required": True} if default is MISSING else {"default": default}
        parser.add_argument(flag, dest=f.name, type=f.type, choices=_CHOICES.get(f.name),
                            **kwargs)


def _options(args, return_basis=False):
    return SolveOptions(
        method=args.method, tol=args.tol, maxit=args.maxit, rng_seed=args.seed,
        detect_hard=not args.no_detect_hard, return_basis=return_basis,
    )


def _segment_options(args):
    return replace(default_segment_options(), tol=args.tol, maxit=args.maxit,
                   method=args.method, rng_seed=args.seed)


def _gen_spec(args):
    return InstanceSpec(rng_seed=args.seed,
                        **{f.name: getattr(args, f.name) for f in _INSTANCE_FIELDS})


def _write_solution(outdir, sol, converged):
    os.makedirs(outdir, exist_ok=True)
    cio.write_vector(os.path.join(outdir, "solution.txt"), sol.v)
    cio.write_keyvalues(
        os.path.join(outdir, "summary.txt"),
        {
            "mu": float(sol.mu), "k": sol.k, "objective": float(sol.objective),
            "case": sol.case, "converged": converged,
            "residual": float(sol.residual), "checks": len(sol.history),
        },
    )
    cio.history_csv(os.path.join(outdir, "history.csv"), sol.history)


def cmd_solve(args):
    problem = cio.load_problem(args.manifest)
    try:
        sol = solve(problem, _options(args))
    except NotConvergedError as err:
        _write_solution(args.out, err.solution, False)
        print(f"not converged after {err.solution.k} steps: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    _write_solution(args.out, sol, True)
    print(f"case={sol.case} k={sol.k} mu={sol.mu!r} objective={sol.objective!r}")
    return EXIT_OK


def cmd_gen(args):
    spec = _gen_spec(args)
    problem, truth = generate(spec)
    verify_roundtrip(problem, truth)
    os.makedirs(args.out, exist_ok=True)
    cio.write_problem(args.out, dense_matrix(problem), problem.C, problem.b)
    cio.write_instance_spec(os.path.join(args.out, "instance.spec"), spec)
    cio.write_keyvalues(
        os.path.join(args.out, "truth.txt"),
        {
            "lambda_star": truth.lambda_star, "kappa": truth.kappa,
            "kappa_plus": truth.kappa_plus, "gamma": truth.gamma,
            "theta_min": float(truth.theta[0]), "theta_2": float(truth.theta[1]),
            "theta_max": float(truth.theta[-1]),
            "norm_g0": float(np.linalg.norm(truth.g0)),
            "case": truth.case_tag, "zeta": truth.zeta,
        },
    )
    print(f"lambda_star={truth.lambda_star!r} kappa={truth.kappa!r}")
    return EXIT_OK


def _bench_one(spec, args, outdir):
    problem, truth = generate(spec)
    ref = reference_solution(problem, truth)
    opts = _options(args, return_basis=True)
    failure = None
    try:
        sol = solve(problem, opts)
    except NotConvergedError as err:
        failure = err
        sol = err.solution
    records = rebuild_history(sol)
    rows = history_table(sol, ref, BoundInputs.from_truth(truth), records)
    os.makedirs(outdir, exist_ok=True)
    cio.bench_csv(os.path.join(outdir, f"bench_seed{spec.rng_seed}.csv"), rows)
    cio.history_csv(os.path.join(outdir, f"history_seed{spec.rng_seed}.csv"), records)
    last = rows[-1]
    print(
        f"seed={spec.rng_seed} k={sol.k} mu={float(sol.mu)!r} "
        f"err1={float(last['err1'])!r} err2={float(last['err2'])!r} "
        f"err3={float(last['err3'])!r}"
    )
    return failure


def cmd_bench(args):
    if args.spec:
        base = cio.read_instance_spec(args.spec)
    else:
        base = _gen_spec(args)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [base.rng_seed]
    missed = False
    for seed in seeds:
        failure = _bench_one(replace(base, rng_seed=seed), args, args.out)
        if failure is not None:
            print(f"seed={seed} not converged after {failure.solution.k} steps: {failure}",
                  file=sys.stderr)
            missed = True
    return EXIT_NOT_CONVERGED if missed else EXIT_OK


def cmd_segment(args):
    image, _maxval = cio.read_pgm(args.image)
    fg, bg = cio.read_labels(args.labels)
    labels = LabelSet.from_pixels(image.shape, fg, bg)
    opts = _segment_options(args)
    os.makedirs(args.out, exist_ok=True)
    mask, heat, stats = segment(image, labels, delta=args.delta, r=args.r, opts=opts)
    cio.mask_to_pgm(os.path.join(args.out, "mask.pgm"), mask)
    cio.heat_to_pgm(os.path.join(args.out, "heat.pgm"), heat)
    cio.write_keyvalues(os.path.join(args.out, "stats.txt"), stats)
    print(f"ncut={stats['ncut']!r} steps={stats['steps']} runtime_s={stats['runtime_s']:.3f}")
    if not stats["converged"]:
        print(f"segmentation solve did not converge; writing partial maps: {stats['miss']}",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_validate(args):
    problem = cio.load_problem(args.manifest)
    feas = classify(problem)
    checks = []

    ref = direct_solve(problem)
    if feas.tag == INTERIOR:
        red = build_reduction(problem)
        scale = (problem.norm_a + abs(ref.mu)) * feas.gamma + np.linalg.norm(feas.b0)
        lag = ref.residual / scale
        checks.append(("multiplier_equations", lag, lag <= 1e-8))
        eq = equivalence_maps(red, feas.gamma)
        checks.append(("route_value_gap", eq["lambda_gap"], eq["lambda_gap"] <= 1e-8 * (1 + abs(ref.mu))))
        checks.append(("forward_map_residual", eq["forward_residual"], eq["forward_residual"] <= 1e-8))
        checks.append(("backward_map_residual", eq["backward_residual"], eq["backward_residual"] <= 1e-8))
        checks.append(("degenerate", float(hard_case_predicate(red, feas.gamma)), True))
        if problem.n <= args.dual_cap and np.linalg.norm(problem.b) > 0:
            _, f_star, gap = dual_check(problem)
            checks.append(
                ("dual_value_gap", gap, gap <= 1e-6 * (1.0 + abs(ref.objective)))
            )
    feasibility = np.linalg.norm(problem.C.T @ ref.v - problem.b)
    checks.append(("constraint_residual", feasibility, feasibility <= 1e-8))
    norm_gap = abs(np.linalg.norm(ref.v) - 1.0)
    checks.append(("unit_norm_gap", norm_gap, norm_gap <= 1e-8))

    ok = True
    for name, value, passed in checks:
        ok &= bool(passed)
        print(f"{'PASS' if passed else 'FAIL'} {name}: {float(value)!r}")
    return EXIT_OK if ok else EXIT_USAGE


def build_parser():
    parser = argparse.ArgumentParser(prog="crqopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem given by a manifest")
    p_solve.add_argument("--manifest", required=True)
    p_solve.add_argument("--out", required=True)
    _add_solver_flags(p_solve, SolveOptions())
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a synthetic benchmark instance")
    _add_instance_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=InstanceSpec.rng_seed)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="error/bound history against the exact reference")
    p_bench.add_argument("--spec", help="instance spec file (overrides gen flags)")
    _add_instance_flags(p_bench, BENCH_SPEC)
    p_bench.add_argument("--seeds", help="comma-separated seed list, run in turn")
    p_bench.add_argument("--out", required=True)
    _add_solver_flags(p_bench, SolveOptions())
    p_bench.set_defaults(func=cmd_bench)

    # segment runs without hard-case detection (default_segment_options)
    for p in (p_solve, p_bench):
        p.add_argument("--no-detect-hard", action="store_true",
                       help="skip the degenerate-case diagnostic after convergence")

    p_seg = sub.add_parser("segment", help="constrained normalized-cut segmentation")
    p_seg.add_argument("--image", required=True, help="grayscale PGM (P2 or P5)")
    p_seg.add_argument("--labels", required=True, help="label file: 'row col {+|-}' lines")
    p_seg.add_argument("--delta", type=float, default=0.1)
    p_seg.add_argument("--r", type=float, default=5)
    p_seg.add_argument("--out", required=True)
    _add_solver_flags(p_seg, default_segment_options())
    p_seg.set_defaults(func=cmd_segment)

    p_val = sub.add_parser("validate", help="run the dense reference validators")
    p_val.add_argument("--manifest", required=True)
    p_val.add_argument("--dual-cap", type=int, default=200)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NotConvergedError as err:
        print(f"not converged: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (CrqError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
