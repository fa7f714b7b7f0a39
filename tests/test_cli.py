import numpy as np
import pytest

import crqopt
from crqopt import io as cio
from crqopt.cli import (BENCH_SPEC, EXIT_INFEASIBLE, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE,
                        _gen_spec, _options, _segment_options, build_parser, main)
from crqopt.clustering import default_segment_options
from conftest import breakdown_probe
from oracles import write_labels
from test_driver import _hard_instance


def _gen(tmp_path, seed=3, out="inst"):
    outdir = tmp_path / out
    code = main([
        "gen", "--n", "40", "--m", "4", "--alpha", "1", "--beta", "20",
        "--zeta", "0.9", "--seed", str(seed), "--out", str(outdir),
    ])
    assert code == EXIT_OK
    return outdir


def test_gen_writes_problem_and_truth(tmp_path):
    outdir = _gen(tmp_path)
    truth = cio.read_keyvalues(outdir / "truth.txt")
    assert abs(float(truth["gamma"]) - np.sqrt(0.19)) <= 1e-15
    spec = cio.read_instance_spec(outdir / "instance.spec")
    assert spec.n == 40 and spec.rng_seed == 3
    problem = cio.load_problem(outdir / "problem.manifest")
    assert problem.n == 40 and problem.m == 4


def test_solve_roundtrip_matches_truth(tmp_path):
    outdir = _gen(tmp_path)
    sol_dir = tmp_path / "sol"
    code = main([
        "solve", "--manifest", str(outdir / "problem.manifest"),
        "--out", str(sol_dir), "--method", "qepmin", "--tol", "1e-14",
        "--maxit", "36",
    ])
    assert code == EXIT_OK
    summary = cio.read_keyvalues(sol_dir / "summary.txt")
    truth = cio.read_keyvalues(outdir / "truth.txt")
    assert abs(float(summary["mu"]) - float(truth["lambda_star"])) <= 1e-8
    assert float(summary["residual"]) <= 1e-8
    v = cio.read_vector(sol_dir / "solution.txt")
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
    checks = int(summary["checks"])
    assert 1 <= checks <= int(summary["k"])
    # one row per check that ran
    history = (sol_dir / "history.csv").read_text().splitlines()
    assert history[0] == "k,mu,delta,objective"
    assert len(history) == checks + 1


def test_solve_not_converged_exit_code_writes_the_solution(tmp_path, capsys):
    outdir = _gen(tmp_path)
    sol_dir = tmp_path / "sol"
    code = main(["solve", "--manifest", str(outdir / "problem.manifest"),
                 "--out", str(sol_dir), "--maxit", "1"])
    assert code == EXIT_NOT_CONVERGED
    assert "not converged after 1 steps" in capsys.readouterr().err
    summary = cio.read_keyvalues(sol_dir / "summary.txt")
    assert summary["converged"] == "False" and summary["k"] == "1"
    assert cio.read_vector(sol_dir / "solution.txt").shape == (40,)


@pytest.mark.filterwarnings("ignore:nearly degenerate reduced problem")
def test_solve_exits_2_on_an_unconverged_hard_case_padding(tmp_path, monkeypatch):
    # interlacing proves "hard" before step 12, but the padding eigenvector is
    # still short of EIG_TOL there: the answer is written and the exit says so
    prob, _ = _hard_instance(41)
    fixture = tmp_path / "fixture"
    cio.write_problem(str(fixture), prob.A.apply(np.eye(prob.n)), prob.C, prob.b)
    monkeypatch.setattr(crqopt.driver, "EIG_MAXIT", 12)
    out = tmp_path / "out"
    code = main(["solve", "--manifest", str(fixture / "problem.manifest"), "--out", str(out),
                 "--tol", "1e-14", "--maxit", str(prob.n), "--seed", "5"])
    assert code == EXIT_NOT_CONVERGED
    summary = cio.read_keyvalues(out / "summary.txt")
    assert summary["case"] == "hard_detected" and summary["converged"] == "False"
    assert cio.read_vector(out / "solution.txt").shape == (prob.n,)


@pytest.mark.filterwarnings("ignore:nearly degenerate reduced problem")
def test_solve_exits_2_when_the_run_breaks_down_above_tol(tmp_path, capsys):
    # the Krylov space closes at rounding level: the breakdown stops the run
    # with its residual bound far above the default tol, so it is no success.
    # b0 is orthogonal to every eigenvector of A in null(C'), so detection
    # would decide "hard" and return the padded answer; it is left off
    prob = breakdown_probe(1, 0.0)
    fixture = tmp_path / "fixture"
    cio.write_problem(str(fixture), prob.A.apply(np.eye(prob.n)), prob.C, prob.b)
    out = tmp_path / "out"
    code = main(["solve", "--manifest", str(fixture / "problem.manifest"), "--out", str(out),
                 "--no-detect-hard"])
    assert code == EXIT_NOT_CONVERGED
    assert "the Lanczos process broke down at step" in capsys.readouterr().err
    summary = cio.read_keyvalues(out / "summary.txt")
    assert summary["converged"] == "False" and summary["case"] == "easy"
    assert cio.read_vector(out / "solution.txt").shape == (prob.n,)


def test_bench_replays_each_step_once(tmp_path, monkeypatch):
    # the solve's checks and one replayed reduced solve per step, from
    # which both the bench CSV and the history CSV are written
    calls = []
    reduced, solving = crqopt.driver.solve_rlgopt, crqopt.cli.solve

    def counting(*args):
        calls.append(None)
        return reduced(*args)

    def solve_and_mark(problem, opts):
        try:
            return solving(problem, opts)
        finally:
            checks.append(len(calls))

    checks = []
    monkeypatch.setattr(crqopt.driver, "solve_rlgopt", counting)
    monkeypatch.setattr(crqopt.cli, "solve", solve_and_mark)
    out = tmp_path / "bench"
    assert main(["bench", "--n", "60", "--m", "6", "--alpha", "1", "--beta", "20",
                 "--zeta", "0.9", "--seed", "5", "--maxit", "54", "--out", str(out)]) == EXIT_OK
    bench = (out / "bench_seed5.csv").read_text().splitlines()[1:]
    history = (out / "history_seed5.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in bench] == [row.split(",")[0] for row in history]
    assert len(calls) - checks[0] == len(history) == int(history[-1].split(",")[0])


def test_solve_unique_point_fixture(tmp_path):
    fixture = tmp_path / "fixture"
    cio.write_problem(str(fixture), np.diag([2.0, 1.0]), np.array([[1.0], [0.0]]), [1.0])
    out = tmp_path / "out"
    code = main(["solve", "--manifest", str(fixture / "problem.manifest"), "--out", str(out)])
    assert code == EXIT_OK
    summary = cio.read_keyvalues(out / "summary.txt")
    assert summary["case"] == "unique_point"
    assert summary["k"] == "0"
    assert np.isnan(float(summary["residual"]))


def test_solve_infeasible_exit_code(tmp_path):
    fixture = tmp_path / "fixture"
    cio.write_problem(str(fixture), np.eye(2), np.array([[1.0], [0.0]]), [2.0])
    code = main(["solve", "--manifest", str(fixture / "problem.manifest"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_INFEASIBLE


def test_bench_deterministic_and_convergent(tmp_path):
    out1 = tmp_path / "b1"
    args = ["bench", "--n", "60", "--m", "6", "--alpha", "1", "--beta", "20",
            "--zeta", "0.9", "--seed", "5", "--tol", "1e-15", "--maxit", "54"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    out2 = tmp_path / "b2"
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    csv1 = (out1 / "bench_seed5.csv").read_bytes()
    csv2 = (out2 / "bench_seed5.csv").read_bytes()
    assert csv1 == csv2
    rows = csv1.decode().splitlines()
    assert rows[0].startswith("k,err1,err2,err3,b1,b2,b3")
    final_err1 = float(rows[-1].split(",")[1])
    assert final_err1 <= 1e-10


def test_validate_small_example_fixture(tmp_path, small_example):
    fixture = tmp_path / "fixture"
    cio.write_problem(str(fixture), np.diag([1.0, 2, 3, 4, 5]), small_example.C,
                      small_example.b)
    code = main(["validate", "--manifest", str(fixture / "problem.manifest")])
    assert code == EXIT_OK


def test_segment_cli(tmp_path):
    img = np.zeros((8, 8))
    img[:, 4:] = 200
    img_path = tmp_path / "img.pgm"
    cio.write_pgm(img_path, img, maxval=255)
    labels_path = tmp_path / "labels.txt"
    write_labels(labels_path, [(4, 1)], [(4, 6)])
    out = tmp_path / "seg"
    code = main([
        "segment", "--image", str(img_path), "--labels", str(labels_path),
        "--delta", "0.1", "--r", "2", "--out", str(out),
        "--tol", "1e-8", "--maxit", "60",
    ])
    assert code == EXIT_OK
    mask, _ = cio.read_pgm(out / "mask.pgm")
    assert mask[4, 1] == 255 and mask[4, 6] == 0
    heat, maxval = cio.read_pgm(out / "heat.pgm")
    assert maxval == 65535
    stats = cio.read_keyvalues(out / "stats.txt")
    assert float(stats["ncut"]) >= 0.0
    # the Lanczos steps that ran a Gram-Schmidt pass (2 of 19 here)
    assert 1 <= int(stats["reorth_steps"]) <= int(stats["steps"])


def test_segment_cli_reports_graph_memory(tmp_path):
    img = np.zeros((8, 8))
    img[:, 4:] = 200
    img_path = tmp_path / "img.pgm"
    cio.write_pgm(img_path, img, maxval=255)
    labels_path = tmp_path / "labels.txt"
    write_labels(labels_path, [(4, 1)], [(4, 6)])
    out = tmp_path / "seg"
    code = main([
        "segment", "--image", str(img_path), "--labels", str(labels_path),
        "--r", "3", "--out", str(out), "--maxit", "60",
    ])
    assert code == EXIT_OK
    stats = cio.read_keyvalues(out / "stats.txt")
    # r = 3 reaches 2 pixels: 12 of the 24 offsets have a positive shift,
    # each a row of 64 doubles
    assert float(stats["graph_mb"]) == 12 * 64 * 8 / 2**20
    # 64 rows are far below MIN_BLOCK_ROWS: the product runs as one block
    assert int(stats["apply_blocks"]) == 1


def test_segment_cli_not_converged_exit_code_writes_the_maps(tmp_path, capsys):
    img = np.zeros((8, 8))
    img[:, 4:] = 200
    img_path = tmp_path / "img.pgm"
    cio.write_pgm(img_path, img, maxval=255)
    labels_path = tmp_path / "labels.txt"
    write_labels(labels_path, [(4, 1)], [(4, 6)])
    out = tmp_path / "seg"
    code = main([
        "segment", "--image", str(img_path), "--labels", str(labels_path),
        "--r", "2", "--out", str(out), "--maxit", "2",
    ])
    assert code == EXIT_NOT_CONVERGED
    assert "did not converge; writing partial maps" in capsys.readouterr().err
    mask, _ = cio.read_pgm(out / "mask.pgm")
    heat, _ = cio.read_pgm(out / "heat.pgm")
    assert mask.shape == heat.shape == (8, 8)
    stats = cio.read_keyvalues(out / "stats.txt")
    assert stats["converged"] == "False" and stats["steps"] == "2"


def test_segment_cli_rejects_zero_maxit(tmp_path, capsys):
    img = np.zeros((8, 8))
    img[:, 4:] = 200
    img_path = tmp_path / "img.pgm"
    cio.write_pgm(img_path, img, maxval=255)
    labels_path = tmp_path / "labels.txt"
    write_labels(labels_path, [(4, 1)], [(4, 6)])
    code = main([
        "segment", "--image", str(img_path), "--labels", str(labels_path),
        "--r", "2", "--out", str(tmp_path / "seg"), "--maxit", "0",
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "maxit" in err and "Traceback" not in err


def test_segment_cli_rejects_no_detect_hard(tmp_path):
    # segment never runs hard-case detection, so it offers no flag to skip it
    img_path = tmp_path / "img.pgm"
    cio.write_pgm(img_path, np.zeros((8, 8)), maxval=255)
    labels_path = tmp_path / "labels.txt"
    write_labels(labels_path, [(4, 1)], [(4, 6)])
    code = main([
        "segment", "--image", str(img_path), "--labels", str(labels_path),
        "--r", "2", "--out", str(tmp_path / "seg"), "--no-detect-hard",
    ])
    assert code == EXIT_USAGE


def test_bench_parallel_seeds(tmp_path):
    # one call runs every seed of --seeds, one after another
    out = tmp_path / "batch"
    code = main([
        "bench", "--n", "40", "--m", "4", "--alpha", "1", "--beta", "15",
        "--zeta", "0.8", "--seeds", "1,2", "--tol", "1e-13", "--maxit", "36",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert (out / "bench_seed1.csv").exists()
    assert (out / "bench_seed2.csv").exists()


def test_usage_error_exit_code():
    assert main(["solve"]) == 1
    assert main(["no-such-command"]) == 1


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    for argv in (["solve", "--manifest", "m", "--out", "o"], ["bench", "--out", "o"]):
        assert _options(parser.parse_args(argv)) == crqopt.SolveOptions()
    seg = parser.parse_args(["segment", "--image", "i", "--labels", "l", "--out", "o"])
    assert _segment_options(seg) == default_segment_options()
    # the instance flags of gen and bench map onto InstanceSpec's fields
    assert _gen_spec(parser.parse_args(["bench", "--out", "o"])) == BENCH_SPEC
    gen = parser.parse_args(["gen", "--n", "40", "--m", "4", "--alpha", "1", "--beta", "20",
                             "--zeta", "0.9", "--out", "o"])
    assert _gen_spec(gen) == crqopt.InstanceSpec(n=40, m=4, alpha=1.0, beta=20.0, zeta=0.9)


_ALL_INSTANCE_FLAGS = ["--n", "60", "--m", "5", "--alpha", "2", "--beta", "50", "--zeta", "0.7",
                       "--g0-kind", "geometric", "--eta", "-0.01",
                       "--spectrum", "chebyshev_plus_isolated", "--iso", "0.5", "--seed", "4"]


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_instance_flags_parse_to_the_same_spec(command):
    # every flag spelling and value maps onto the InstanceSpec field it
    # always did, on both subcommands
    args = build_parser().parse_args([command, *_ALL_INSTANCE_FLAGS, "--out", "o"])
    assert _gen_spec(args) == crqopt.InstanceSpec(
        n=60, m=5, alpha=2.0, beta=50.0, zeta=0.7, g0_kind=crqopt.instances.GEOMETRIC,
        eta=-0.01, rng_seed=4, spectrum_kind=crqopt.instances.CHEBYSHEV_PLUS_ISOLATED,
        iso_value=0.5)


@pytest.mark.parametrize("flags", [
    ["--zeta", "0.9", "--g0-kind", "cubic"], ["--zeta", "0.9", "--spectrum", "uniform"], [],
], ids=["g0-kind", "spectrum", "no-zeta"])
def test_bad_instance_flags_are_usage_errors(flags):
    # the two kinds take only their choices, and a field without an
    # InstanceSpec default (here zeta) is a required flag of gen
    base = ["--n", "40", "--m", "4", "--alpha", "1", "--beta", "20"]
    assert main(["gen", *base, *flags, "--out", "o"]) == EXIT_USAGE
