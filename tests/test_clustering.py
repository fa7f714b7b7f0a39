import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import crqopt
from crqopt import clustering
from crqopt.clustering import (MIN_BLOCK_ROWS, LabelSet, NormalizedLaplacianOperator,
                               apply_blocks, apply_weight_rows, apply_weights, build_graph,
                               default_segment_options, encode_constraints, ncut_value,
                               segment, to_crqopt)
from crqopt.errors import EmptySideError, IsolatedPixelError, NotConvergedError
from oracles import graph_matrix


def two_block_image(size=8, low=0.0, high=1.0):
    img = np.full((size, size), low)
    img[:, size // 2 :] = high
    return img


def test_constant_image_unit_weights():
    graph = build_graph(np.full((5, 5), 7.0), delta=0.1, r=2)
    W = graph_matrix(graph).tocoo()
    assert W.nnz > 0
    assert np.allclose(W.data, 1.0)


def test_beyond_radius_zero_weight():
    graph = build_graph(np.zeros((6, 6)), delta=0.1, r=2)
    W = graph_matrix(graph)
    # pixels (0,0) and (0,3): chebyshev distance 3 >= r=2 -> no edge
    assert W[0, 3] == 0.0
    # distance exactly r is outside the strict inequality
    assert W[0, 2] == 0.0
    assert W[0, 1] != 0.0


def _oracle_image(shape, constant):
    rng = np.random.default_rng(17)
    return np.full(shape, 3.0) if constant else rng.uniform(0.0, 255.0, shape)


def _two_region_raster(size, phase=(0.0, 0.0)):
    """Demo 04's raster: two intensity halves under a smooth texture,
    whose row and column phases ``phase`` shifts."""
    yy, xx = np.mgrid[0:size, 0:size]
    image = np.where(xx < size // 2, 60.0, 180.0)
    return image + 10.0 * np.sin(yy / 9.0 + phase[0]) + 6.0 * np.cos(xx / 7.0 + phase[1])


def _all_pairs_graph(image, delta, r):
    """Dense W from every pixel pair: ||X(i) - X(j)||_inf < r, Gaussian weight."""
    height, width = image.shape
    yy, xx = np.divmod(np.arange(height * width), width)
    cheb = np.maximum(np.abs(yy[:, None] - yy[None, :]), np.abs(xx[:, None] - xx[None, :]))
    f = image.reshape(-1)
    delta_f = delta * float(f.max() - f.min()) ** 2
    if delta_f == 0.0:
        weight = np.ones_like(cheb, dtype=float)
    else:
        weight = np.exp(-((f[:, None] - f[None, :]) ** 2) / delta_f)
    return np.where((cheb < r) & (cheb > 0), weight, 0.0)


@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (13, 17), (1, 9)])
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
@pytest.mark.parametrize("constant", [False, True])
def test_build_graph_matches_all_pairs_oracle(shape, r, constant):
    image = _oracle_image(shape, constant)
    graph = build_graph(image, delta=0.2, r=r)
    assert graph.shifts[0] > 0 and np.all(np.diff(graph.shifts) > 0)
    # the helper drops the zeros the half store keeps off the raster
    W = graph_matrix(graph)
    assert W.shape == (image.size, image.size)
    assert W.has_sorted_indices
    assert (W != W.T).nnz == 0
    oracle = _all_pairs_graph(image, 0.2, r)
    assert np.allclose(W.toarray(), oracle, rtol=1e-14, atol=0.0)
    assert W.nnz == np.count_nonzero(oracle)
    assert np.allclose(graph.degrees, oracle.sum(axis=1), rtol=1e-13)


def _assert_products_match_sorted_csr(graph, blocks):
    """Split into ``blocks`` row blocks, the half-store kernel sums each
    row of W @ x in ascending column order, bit for bit as the sorted CSR
    form does, and the degrees are exactly W @ 1."""
    def W(x):
        return apply_weights(graph.weights, graph.shifts, x)

    csr = graph_matrix(graph)
    rng = np.random.default_rng(3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "apply_blocks", lambda n: blocks)
        for _ in range(3):
            x = rng.standard_normal(graph.n)
            assert np.array_equal(W(x), csr @ x)
        X = rng.standard_normal((graph.n, 2))
        assert np.array_equal(np.column_stack([W(col) for col in X.T]), csr @ X)
        assert np.array_equal(graph.degrees, W(np.ones(graph.n)))


SPLITS = (1, 2, 3, 7)


@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (13, 17), (1, 9)])
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
@pytest.mark.parametrize("constant", [False, True])
def test_graph_products_bitwise_equal_sorted_csr(shape, r, constant):
    graph = build_graph(_oracle_image(shape, constant), 0.2, r)
    for blocks in SPLITS:
        _assert_products_match_sorted_csr(graph, blocks)


def test_raster_graph_products_bitwise_equal_sorted_csr():
    # the interpreter switches threads as often as it can, so blocks that
    # wrote outside their rows or were lost would show in the product
    graph = build_graph(_two_region_raster(128), 0.1, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for blocks in SPLITS:
            _assert_products_match_sorted_csr(graph, blocks)
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(3, 20), (20, 3), (13, 17), (1, 9), (9, 9)]),
       r=st.sampled_from([1.5, 2, 3.7, 6]), data=st.data())
def test_any_row_split_assembles_the_sorted_csr_product(shape, r, data):
    """Row blocks at any split points, empty ones and ones shorter than the
    largest shift among them, add up to W @ x bit for bit."""
    graph = build_graph(_oracle_image(shape, False), 0.2, r)
    n = graph.n
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    x = np.random.default_rng(len(cuts)).standard_normal(n)
    y = np.zeros(n)
    for r0, r1 in zip([0] + cuts, cuts + [n]):
        apply_weight_rows(graph.weights, graph.shifts, x, y, r0, r1)
    assert np.array_equal(y, graph_matrix(graph) @ x)


def test_apply_blocks_bounds():
    cpus = len(os.sched_getaffinity(0))
    assert apply_blocks(1) == 1
    assert apply_blocks(MIN_BLOCK_ROWS - 1) == 1
    assert apply_blocks(2 * MIN_BLOCK_ROWS) == min(cpus, 2)
    assert apply_blocks(10**9) == cpus


def test_a_failing_block_fails_the_apply(monkeypatch):
    # a worker's exception would otherwise go to threading.excepthook,
    # leaving its rows of y at zero
    graph = build_graph(_oracle_image((13, 17), False), 0.2, 3.7)
    kernel = clustering.dia_matvec

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("block lost")
        return kernel(*args)

    monkeypatch.setattr(clustering, "apply_blocks", lambda n: 3)
    monkeypatch.setattr(clustering, "dia_matvec", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="block lost"):
        apply_weights(graph.weights, graph.shifts, np.ones(graph.n))
    assert threading.active_count() == before


def test_one_block_starts_no_thread(monkeypatch):
    graph = build_graph(_oracle_image((13, 17), False), 0.2, 3.7)

    def no_thread(*args, **kwargs):
        raise AssertionError("a one-block apply started a thread")

    monkeypatch.setattr(clustering, "apply_blocks", lambda n: 1)
    monkeypatch.setattr(threading, "Thread", no_thread)
    x = np.random.default_rng(5).standard_normal(graph.n)
    assert np.array_equal(apply_weights(graph.weights, graph.shifts, x), graph_matrix(graph) @ x)


def test_build_graph_peak_memory_is_the_weights():
    """The half store is the only large allocation: 256x256 at r = 5
    holds 40 weight rows (20 MiB), one per neighbour pair's shift, and the
    build peaks within 25% of it."""
    image = _two_region_raster(256)
    tracemalloc.start()
    try:
        graph = build_graph(image, 0.1, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.weights.shape == (40, 256 * 256)
    assert peak <= 1.25 * graph.weights.nbytes


@pytest.mark.parametrize("shape", [(3, 20), (13, 17)])
def test_unit_radius_isolates_every_pixel(shape):
    with pytest.raises(IsolatedPixelError):
        build_graph(np.arange(np.prod(shape), dtype=float).reshape(shape), delta=0.1, r=1)


def test_two_block_weights_hand_computed():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    W = graph_matrix(graph)
    # delta_F = 0.1 * (1-0)^2; cross-block in-radius weight e^{-1/0.1}
    i = 3 * 8 + 3  # (3,3) value 0
    j = 3 * 8 + 4  # (3,4) value 1
    assert W[i, j] == pytest.approx(np.exp(-10.0), rel=1e-12)
    assert W[i, i - 1] == pytest.approx(1.0)


def test_balanced_labels_symmetric_targets():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    # one label per block, mirrored positions: equal label volumes
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    _, b = encode_constraints(graph.degrees, labels)
    c_plus, c_minus = b[0], b[1]
    assert c_plus == pytest.approx(-c_minus, rel=1e-12)
    assert c_plus == pytest.approx(1.0 / np.sqrt(graph.degrees.sum()), rel=1e-12)
    assert c_plus > 0 > c_minus


def test_constraint_matrix_full_rank():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(4, 1), (2, 2)], [(4, 6)])
    C = to_crqopt(graph, labels).C
    assert C.shape == (64, 4)
    assert np.linalg.matrix_rank(C) == 4


def test_empty_side_rejected():
    with pytest.raises(EmptySideError):
        LabelSet(np.array([1]), np.array([], dtype=int))


def test_labelset_rejects_fractional_index():
    # a fractional index was truncated and labelled its floor
    with pytest.raises(ValueError, match="5.7"):
        LabelSet([5.7], [62])
    labels = LabelSet(np.array([5.0]), [62])
    assert labels.foreground.dtype.kind == "i" and labels.foreground.tolist() == [5]


def test_labelset_names_a_repeated_pixel():
    # a repeated pixel gave C a repeated column and a rank error
    with pytest.raises(ValueError, match="foreground label pixel 5 "):
        LabelSet([5, 5], [62])
    with pytest.raises(ValueError, match="background label pixel 62 "):
        LabelSet([5], [62, 7, 62])


def test_normalized_laplacian_annihilates_sqrt_degrees():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    problem = to_crqopt(graph, labels)
    null_vec = np.sqrt(graph.degrees)
    assert np.linalg.norm(problem.A.matvec(null_vec)) <= 1e-10 * np.linalg.norm(null_vec)


def test_normalized_laplacian_positive_semidefinite():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    problem = to_crqopt(graph, labels)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(graph.n)
        assert x @ problem.A.matvec(x) >= -1e-10 * (x @ x)


def test_pipeline_feasibility_and_normalization():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    problem = to_crqopt(graph, labels)
    opts = crqopt.SolveOptions(tol=1e-12, maxit=60, detect_hard=False)
    sol = crqopt.solve(problem, opts)
    assert np.linalg.norm(problem.C.T @ sol.v - problem.b) <= 1e-8
    x = sol.v / np.sqrt(graph.degrees)
    # labeled entries hit their targets, balance row is satisfied
    c_plus, c_minus = problem.b[0], problem.b[1]
    assert abs(x[labels.foreground[0]] - c_plus) <= 1e-6 * (abs(c_plus) + abs(c_minus))
    assert abs(x[labels.background[0]] - c_minus) <= 1e-6 * (abs(c_plus) + abs(c_minus))
    assert abs(graph.degrees @ x) <= 1e-6 * np.sqrt(graph.degrees.sum())
    assert x @ (graph.degrees * x) == pytest.approx(1.0, abs=1e-8)


def test_two_block_segmentation_exact_and_ncut_optimal():
    img = two_block_image(8)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    opts = crqopt.SolveOptions(method=crqopt.QEPMIN, tol=1e-10, maxit=60, detect_hard=False)
    mask, heat, stats = segment(img, labels, delta=0.1, r=2, opts=opts)
    # the produced cut separates the two blocks exactly, with the
    # foreground label on the positive side
    assert mask[4, 1] and not mask[4, 6]
    assert np.array_equal(mask, img < 0.5)
    # sampled-oracle optimality: block cut plus 1000 random bipartitions
    graph = build_graph(img, delta=0.1, r=2)
    rng = np.random.default_rng(1)
    candidates = [ncut_value(graph, (img > 0.5).reshape(-1))]
    for _ in range(1000):
        cut = rng.random(64) > 0.5
        if cut.any() and not cut.all():
            candidates.append(ncut_value(graph, cut))
    assert stats["ncut"] <= min(candidates) + 1e-12


def test_labeled_pixels_respected_on_constant_image():
    img = np.full((8, 8), 3.0)
    labels = LabelSet.from_pixels(img.shape, [(1, 1)], [(6, 6)])
    opts = crqopt.SolveOptions(tol=1e-10, maxit=60, detect_hard=False)
    mask, heat, stats = segment(img, labels, delta=0.1, r=2, opts=opts)
    assert mask[1, 1]
    assert not mask[6, 6]
    assert 0.0 <= heat.min() and heat.max() <= 1.0


def test_gradient_split_beats_unconstrained_threshold_baseline():
    size = 64
    img = np.zeros((size, size))
    ramp = np.linspace(0.0, 0.35, size // 2)
    img[:, : size // 2] = ramp
    img[:, size // 2 :] = 0.65 + ramp
    labels = LabelSet.from_pixels(img.shape, [(32, 5)], [(32, 60)])
    opts = crqopt.SolveOptions(method=crqopt.QEPMIN, tol=8e-5, maxit=150, detect_hard=False)
    mask, _, stats = segment(img, labels, delta=0.1, r=3, opts=opts)
    assert mask[32, 5] and not mask[32, 60]

    # unconstrained relaxation baseline: second-smallest generalized
    # eigenvector of (D - W, D), thresholded at zero
    graph = build_graph(img, delta=0.1, r=3)
    D = sp.diags(graph.degrees)
    L = D - graph_matrix(graph)
    vals, vecs = spla.eigsh(L.tocsc(), k=2, M=D.tocsc(), sigma=-1e-6, which="LM")
    fiedler = vecs[:, np.argsort(vals)[1]]
    baseline = fiedler > 0.0
    assert stats["ncut"] <= ncut_value(graph, baseline) + 1e-12


def test_labels_out_of_range_rejected():
    with pytest.raises(ValueError):
        LabelSet.from_pixels((8, 8), [(8, 0)], [(0, 0)])


@pytest.mark.parametrize("flat", [-60, 70])
def test_labels_outside_the_raster_rejected_by_index(flat):
    img = two_block_image(8)
    labels = LabelSet([flat], [62])
    with pytest.raises(ValueError, match=rf"label index {flat} outside \[0, n\) with n = 64"):
        segment(img, labels, delta=0.1, r=2)


def test_encode_constraints_names_a_label_index_past_the_degrees():
    # the check reads n from the degree vector alone
    with pytest.raises(ValueError, match=r"label index 64 outside \[0, n\) with n = 64"):
        encode_constraints(np.ones(64), LabelSet([64], [0]))


def test_encode_constraints_reads_only_the_degrees():
    # a textured raster, so that the label pixels' degrees all differ
    img = _two_region_raster(16)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(8, 1), (3, 5)], [(8, 14)])
    assert np.unique(graph.degrees[[*labels.foreground, *labels.background]]).size == 3
    C, b = encode_constraints(graph.degrees.copy(), labels)
    # label column j reads x_i = v_i / sqrt(d_i) for label pixel i; the last is sqrt(d)
    dsqrt = np.sqrt(graph.degrees)
    reference = np.zeros((graph.n, 4))
    for j, i in enumerate([*labels.foreground, *labels.background]):
        reference[i, j] = 1.0 / dsqrt[i]
    reference[:, 3] = dsqrt
    assert np.array_equal(C, reference)
    assert b[0] == b[1] > 0 > b[2] and b[3] == 0.0
    problem = to_crqopt(graph, labels)
    assert np.array_equal(C, problem.C) and np.array_equal(b, problem.b)


def test_segment_returns_a_non_converged_solve():
    img = _two_region_raster(32)
    labels = LabelSet.from_pixels(img.shape, [(16, 3)], [(16, 28)])
    opts = replace(default_segment_options(), maxit=2)
    mask, heat, stats = segment(img, labels, delta=0.1, r=5, opts=opts)
    assert stats["converged"] is False and stats["steps"] == 2
    # the maps are those of the solve's last iterate
    graph = build_graph(img, 0.1, 5)
    with pytest.raises(NotConvergedError) as err:
        crqopt.solve(to_crqopt(graph, labels), opts)
    x = (1.0 / np.sqrt(graph.degrees)) * err.value.solution.v
    assert np.array_equal(mask, (x > 0.0).reshape(img.shape))
    assert np.array_equal(heat, ((x - x.min()) / (x.max() - x.min())).reshape(img.shape))


def test_segment_reports_any_raised_non_converged_solution(monkeypatch):
    # a miss of any tolerance (here a converged answer raised as one, as a
    # hard-case padding miss would be) reads as not converged
    real_solve = clustering.solve

    def raises_unconverged(problem, opts):
        raise NotConvergedError("forced", solution=real_solve(problem, opts))

    monkeypatch.setattr(clustering, "solve", raises_unconverged)
    img = two_block_image(8)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    _, _, stats = segment(img, labels, delta=0.1, r=2)
    assert stats["converged"] is False


def test_raster_problem_takes_the_laplacian_norm_bound(monkeypatch):
    def no_estimate(op):
        raise AssertionError("the normalized Laplacian needs no norm estimate")

    monkeypatch.setattr(crqopt.problem, "norm_estimate", no_estimate)
    image = _two_region_raster(32)
    graph = build_graph(image, 0.1, 5)
    labels = LabelSet.from_pixels(image.shape, [(16, 3)], [(16, 28)])
    assert to_crqopt(graph, labels).norm_a == 2.0


def test_segment_solve_applies_a_once_per_step_plus_two(monkeypatch):
    """k Lanczos steps, 1 for n0'A n0 in classify and 1 for the objective
    at the returned v: no norm estimate and no symmetry probe."""
    applies = []
    matvec = NormalizedLaplacianOperator.matvec

    def counting(self, x):
        applies.append(1)
        return matvec(self, x)

    monkeypatch.setattr(NormalizedLaplacianOperator, "matvec", counting)
    image = _two_region_raster(32)
    labels = LabelSet.from_pixels(image.shape, [(16, 3)], [(16, 28)])
    opts = crqopt.SolveOptions(method=crqopt.QEPMIN, tol=8e-5, maxit=60, detect_hard=False)
    _, _, stats = segment(image, labels, delta=0.1, r=5, opts=opts)
    assert len(applies) == stats["steps"] + 1 + 1


@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (13, 17), (1, 9)])
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
@pytest.mark.parametrize("constant", [False, True])
def test_normalized_laplacian_spectrum_within_norm_bound(shape, r, constant):
    graph = build_graph(_oracle_image(shape, constant), 0.2, r)
    dense = NormalizedLaplacianOperator(graph).apply(np.eye(graph.n))
    # symmetric by contract, unchecked at construction: this is the proof
    assert np.abs(dense - dense.T).max() <= 1e-15 * np.abs(dense).max()
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] >= -1e-12
    assert eigs[-1] <= NormalizedLaplacianOperator.norm_bound + 1e-12


@pytest.mark.parametrize("phase", [(0.0, 0.0), (2.0, 4.5), (5.0, 1.5)])
def test_default_options_stop_the_raster_on_tol(phase):
    # the benchmark's 256 x 256 raster stops where the qepmin bound meets
    # tol (k = 78 on these phases) with exactly the left/right split
    image = _two_region_raster(256, phase)
    labels = LabelSet.from_pixels(image.shape, [(128, 30)], [(128, 220)])
    mask, _, stats = segment(image, labels, delta=0.1, r=5, opts=default_segment_options())
    assert stats["converged"] and stats["steps"] <= 80
    assert mask[128, 30] and not mask[128, 220]
    assert np.array_equal(mask, np.mgrid[0:256, 0:256][1] < 128)
