import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import crqopt
from crqopt import clustering, raster_kernel
from crqopt.clustering import (LabelSet, NormalizedLaplacianOperator, apply_weights,
                               build_graph, default_segment_options, encode_constraints, ncut_value,
                               segment, to_crqopt)
from crqopt.errors import EmptySideError, IsolatedPixelError, NotConvergedError
from crqopt.lanczos import LanczosState
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


def _assert_products_match_sorted_csr(graph):
    """The half-store kernel sums each row of W @ x in ascending column
    order, bit for bit as the sorted CSR form does, and the degrees are
    exactly W @ 1."""
    def W(x):
        return apply_weights(graph.weights, graph.shifts, x)

    csr = graph_matrix(graph)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.standard_normal(graph.n)
        assert np.array_equal(W(x), csr @ x)
    X = rng.standard_normal((graph.n, 2))
    assert np.array_equal(np.column_stack([W(col) for col in X.T]), csr @ X)
    assert np.array_equal(graph.degrees, W(np.ones(graph.n)))


ORACLE_SHAPES = [(3, 20), (20, 3), (13, 17), (1, 9)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
@pytest.mark.parametrize("constant", [False, True])
def test_graph_products_bitwise_equal_sorted_csr(compiled, shape, r, constant):
    _assert_products_match_sorted_csr(build_graph(_oracle_image(shape, constant), 0.2, r))


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
@pytest.mark.parametrize("constant", [False, True])
def test_dia_fallback_products_bitwise_equal_sorted_csr(scipy_dia, shape, r, constant):
    _assert_products_match_sorted_csr(build_graph(_oracle_image(shape, constant), 0.2, r))


def test_raster_graph_products_bitwise_equal_sorted_csr(compiled):
    _assert_products_match_sorted_csr(build_graph(_two_region_raster(128), 0.1, 5))


def test_dia_fallback_raster_products_bitwise_equal_sorted_csr(scipy_dia):
    _assert_products_match_sorted_csr(build_graph(_two_region_raster(128), 0.1, 5))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("block", [1, 3, 7, 64])
@pytest.mark.parametrize("shape", [(1, 9), (3, 20), (37, 41)])
def test_compiled_blocks_of_any_size_match_sorted_csr(compiled, monkeypatch, dtype, block, shape):
    """Blocks that a shift jumps over (at r = 6 the rasters 1x9, 3x20 and
    37x41 reach 5, 45 and 210 rows back) and a last block cut short (37 x
    41 = 1517 rows is no multiple of any block here, nor of the default
    1024) sum each row as sorted CSR does."""
    monkeypatch.setattr(raster_kernel, "ROW_BLOCK", block)
    graph = build_graph(_oracle_image(shape, False), 0.2, 6, dtype=dtype)
    x = np.random.default_rng(block).standard_normal(graph.n).astype(dtype)
    assert np.array_equal(apply_weights(graph.weights, graph.shifts, x), graph_matrix(graph) @ x)
    assert np.array_equal(graph.degrees, apply_weights(graph.weights, graph.shifts,
                                                       np.ones(graph.n)))


def _any_x(data, n, dtype):
    """A drawn x of n finite entries of magnitude at most 1e3, zeros and
    subnormals among them."""
    width = np.finfo(dtype).bits
    return data.draw(arrays(dtype, n, elements=st.floats(-1e3, 1e3, width=width)))


def _assert_any_row_split_matches(shape, r, data, dtype):
    """Every row of W @ x, for any x of the store's dtype, is the sorted
    CSR row of that dtype bit for bit."""
    graph = build_graph(_oracle_image(shape, False), 0.2, r, dtype=dtype)
    x = _any_x(data, graph.n, dtype)
    csr = graph_matrix(graph)
    assert csr.dtype == dtype
    assert np.array_equal(apply_weights(graph.weights, graph.shifts, x), csr @ x)


# the path fixtures hold for every example alike
ROW_SPLIT = dict(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
ROW_SPLIT_SHAPES = st.sampled_from([(3, 20), (20, 3), (13, 17), (1, 9), (9, 9)])


@settings(**ROW_SPLIT)
@given(shape=ROW_SPLIT_SHAPES, r=st.sampled_from([1.5, 2, 3.7, 6]), data=st.data())
def test_any_row_split_assembles_the_sorted_csr_product(compiled, shape, r, data):
    _assert_any_row_split_matches(shape, r, data, np.float64)


@settings(**ROW_SPLIT)
@given(shape=ROW_SPLIT_SHAPES, r=st.sampled_from([1.5, 2, 3.7, 6]), data=st.data())
def test_dia_fallback_row_split_assembles_the_sorted_csr_product(scipy_dia, shape, r, data):
    _assert_any_row_split_matches(shape, r, data, np.float64)


@pytest.mark.parametrize("path", ["compiled", "scipy_dia"])
@pytest.mark.parametrize("length", [17, 27])
def test_apply_weights_rejects_an_x_of_another_length(request, path, length):
    """n comes from the store, not from x: on a 4x5 raster an x of 17
    entries once came back as a 17-vector, and one of 27 was read with
    stride 27 past the end of the 80-entry store."""
    request.getfixturevalue(path)
    graph = build_graph(_oracle_image((4, 5), False), 0.2, 2)
    with pytest.raises(ValueError, match=rf"x has {length} entries .* n = 20"):
        apply_weights(graph.weights, graph.shifts, np.ones(length))


# (store, shifts, n) -> a (store, shifts) pair that the kernel must not read
STORE_EDITS = {
    "strided store": lambda w, s, n: (w[:, ::2], s),
    "flat store": lambda w, s, n: (w.reshape(-1), s),
    "float16 store": lambda w, s, n: (w.astype(np.float16), s),
    "int32 shifts": lambda w, s, n: (w, s.astype(np.int32)),
    "a shift short": lambda w, s, n: (w, s[:-1]),
    "descending shifts": lambda w, s, n: (w, s[::-1].copy()),
    "repeated shift": lambda w, s, n: (w, np.sort(np.append(s[1:], s[1]))),
    "zero shift": lambda w, s, n: (w, s - s[0]),
    "shift past n": lambda w, s, n: (w, s + n - s[-1]),
}


@pytest.mark.parametrize("edit", list(STORE_EDITS))
def test_apply_weights_rejects_a_store_the_kernel_cannot_read(edit):
    graph = build_graph(_oracle_image((4, 5), False), 0.2, 2)
    weights, shifts = STORE_EDITS[edit](graph.weights, graph.shifts, graph.n)
    with pytest.raises(ValueError):
        apply_weights(weights, shifts, np.ones(graph.n))


def test_the_product_starts_no_thread(monkeypatch):
    """A 256x256 raster, the benchmark's size, is built and applied on the
    calling thread alone."""
    def no_thread(*args, **kwargs):
        raise AssertionError("the raster product started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    graph = build_graph(_two_region_raster(256), 0.1, 2, dtype=np.float32)
    x = np.random.default_rng(5).standard_normal(graph.n).astype(np.float32)
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
    C = to_crqopt(graph, labels).C.toarray()
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


@pytest.mark.parametrize("mask", [[True], [True, False], [True] * 10, [True, False] * 32 + [True]],
                         ids=["1", "2", "10", "65"])
def test_ncut_value_rejects_a_mask_of_another_size(mask):
    # neither inf (an all-true mask of 10) nor numpy's broadcast error
    # (2 or 65 entries): the error names both sizes
    graph = build_graph(two_block_image(8), 0.1, 2)
    with pytest.raises(ValueError, match=rf"the mask has {len(mask)} entries, "
                                         r"the graph has n = 64 pixels"):
        ncut_value(graph, np.array(mask))


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
    assert np.array_equal(C.toarray(), reference)
    assert b[0] == b[1] > 0 > b[2] and b[3] == 0.0
    problem = to_crqopt(graph, labels)
    assert np.array_equal(C.toarray(), problem.C.toarray()) and np.array_equal(b, problem.b)


def test_segment_returns_a_non_converged_solve():
    img = _two_region_raster(32)
    labels = LabelSet.from_pixels(img.shape, [(16, 3)], [(16, 28)])
    opts = replace(default_segment_options(), maxit=2)
    mask, heat, stats = segment(img, labels, delta=0.1, r=5, opts=opts)
    assert stats["converged"] is False and stats["steps"] == 2
    # the maps are those of the solve's last iterate, on the graph segment
    # builds (float32 at this tol)
    graph = build_graph(img, 0.1, 5, dtype=clustering.store_dtype(opts))
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


# ---------------------------------------------------------------------------
# float32 weight store

U32 = float(np.finfo(np.float32).eps)
FLOOR32 = crqopt.driver.tol_floor(U32)


@settings(**ROW_SPLIT)
@given(shape=ROW_SPLIT_SHAPES, r=st.sampled_from([1.5, 2, 3.7, 6]), data=st.data())
def test_any_row_split_assembles_the_float32_sorted_csr_product(compiled, shape, r, data):
    _assert_any_row_split_matches(shape, r, data, np.float32)


@settings(**ROW_SPLIT)
@given(shape=ROW_SPLIT_SHAPES, r=st.sampled_from([1.5, 2, 3.7, 6]), data=st.data())
def test_dia_fallback_row_split_assembles_the_float32_sorted_csr_product(scipy_dia, shape, r,
                                                                          data):
    _assert_any_row_split_matches(shape, r, data, np.float32)


@pytest.mark.parametrize("shape", [(3, 20), (13, 17), (1, 9), (128, 128)])
@pytest.mark.parametrize("r", [1.5, 3.7, 6])
def test_float32_product_is_within_the_floor_of_the_float64_one(shape, r):
    # row by row, |W32 x - W64 x| <= TOL_FLOOR u32 (|W| |x|); measured up to 1.9 u32
    image = _two_region_raster(128) if shape == (128, 128) else _oracle_image(shape, False)
    g32 = build_graph(image, 0.2, r, dtype=np.float32)
    g64 = build_graph(image, 0.2, r)
    assert g32.weights.dtype == np.float32 and g32.degrees.dtype == np.float64
    x = np.random.default_rng(1).standard_normal(g64.n)
    y32 = apply_weights(g32.weights, g32.shifts, x)
    assert y32.dtype == np.float32
    y64 = apply_weights(g64.weights, g64.shifts, x)
    scale = apply_weights(g64.weights, g64.shifts, np.abs(x))
    assert np.all(np.abs(y32 - y64) <= FLOOR32 * scale)


@pytest.mark.parametrize("image", [two_block_image(8), _two_region_raster(64)],
                         ids=["two_block_8", "raster_64"])
def test_float32_degrees_are_the_store_kernels_row_sums(image):
    graph = build_graph(image, 0.1, 2 if image.shape == (8, 8) else 5, dtype=np.float32)
    assert graph.degrees.dtype == np.float64
    assert np.array_equal(graph.degrees, apply_weights(graph.weights, graph.shifts,
                                                       np.ones(graph.n)))
    # so D^{-1/2} sqrt(d) rounds to 1 in float32, and A sqrt(d) vanishes to
    # float64 roundoff although A applies a float32 store
    A = NormalizedLaplacianOperator(graph)
    null_vec = np.sqrt(graph.degrees)
    assert np.linalg.norm(A.matvec(null_vec)) <= 1e-10 * np.linalg.norm(null_vec)


@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (13, 17), (1, 9)])
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
def test_float32_laplacian_is_symmetric_with_spectrum_in_0_2(shape, r):
    # both to the floor: measured 0.48 u32 of asymmetry and 0.23 u32 outside [0, 2]
    graph = build_graph(_oracle_image(shape, False), 0.2, r, dtype=np.float32)
    op = NormalizedLaplacianOperator(graph)
    assert op.unit_roundoff == U32
    dense = op.apply(np.eye(graph.n))
    assert np.abs(dense - dense.T).max() <= FLOOR32 * np.abs(dense).max()
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigs[0] >= -FLOOR32
    assert eigs[-1] <= NormalizedLaplacianOperator.norm_bound + FLOOR32


def _exact_residual(graph, problem, sol):
    """||P(Av) - mu (v - n0)||, normalized like lgopt's delta, with A the
    store's own matrix applied in float64 (the store widened, its degrees)."""
    wide = clustering.ImageGraph(graph.width, graph.height, graph.weights.astype(float),
                                 graph.shifts, graph.degrees)
    feas = crqopt.classify(problem)
    r = problem.P.apply_P(NormalizedLaplacianOperator(wide).matvec(sol.v)) - sol.mu * (
        sol.v - feas.n0)
    scale = (problem.norm_a + abs(sol.mu)) * feas.gamma + np.linalg.norm(feas.b0)
    return float(np.linalg.norm(r) / scale)


def test_a_float32_store_never_yields_a_false_certificate():
    # 8x8 two-block raster: on a float32 store, tol 1e-10 was met by a
    # delta of 6.2e-11 at k = 23 while the exact residual stayed at the
    # store's rounding, 1.2e-8; solve now refuses a tol below the floor
    img = two_block_image(8)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    opts = crqopt.SolveOptions(method=crqopt.QEPMIN, tol=1e-10, maxit=60, detect_hard=False)
    g32 = build_graph(img, 0.1, 2, dtype=np.float32)
    with pytest.raises(ValueError, match=r"tol 1e-10 is below the floor 1\.19e-06 of an "
                                         r"operator with unit roundoff 1\.19e-07"):
        crqopt.solve(to_crqopt(g32, labels), opts)
    with pytest.raises(ValueError, match="hard-case detection needs EIG_TOL = 1e-08, below "
                                         r"the floor 1\.19e-06"):
        crqopt.solve(to_crqopt(g32, labels), replace(opts, tol=FLOOR32, detect_hard=True))
    # the float64 store meets 1e-10 exactly
    g64 = build_graph(img, 0.1, 2)
    problem = to_crqopt(g64, labels)
    assert _exact_residual(g64, problem, crqopt.solve(problem, opts)) <= 1e-10


def test_a_float32_store_refuses_the_b0_zero_eigenpair():
    # C = sqrt(d), b = 0 makes b0 = 0, which the bottom eigenpair settles
    # at EIG_TOL.  A float32 store cannot certify that: the pair's residual
    # against the widened store sits near 8e-8, 4x the EIG_TOL bound
    graphs = [build_graph(_two_region_raster(32), 0.1, 5, dtype=dtype)
              for dtype in (np.float32, np.float64)]
    opts = crqopt.SolveOptions(tol=1e-5, detect_hard=False)
    problems = [crqopt.CrqProblem(NormalizedLaplacianOperator(g), np.sqrt(g.degrees)[:, None],
                                  [0.0]) for g in graphs]
    with pytest.raises(ValueError, match=r"the b0 = 0 eigenpair needs EIG_TOL = 1e-08, below "
                                         r"the floor 1\.19e-06"):
        crqopt.solve(problems[0], opts)
    # the float64 store meets EIG_TOL max(||A||, |theta|) = 2e-8 (1.2e-8 measured)
    sol = crqopt.solve(problems[1], opts)
    assert sol.case == crqopt.B0_ZERO
    assert sol.residual <= 2e-8


@pytest.mark.parametrize("method", [crqopt.LGOPT, crqopt.QEPMIN])
@pytest.mark.parametrize("size", [8, 64])
def test_a_float32_store_meets_a_tol_at_its_floor(method, size):
    # measured exact / tol: at most 0.84 on 8x8 and 0.88 on 64^2 and 256^2
    if size == 8:
        img, r = two_block_image(8), 2
        labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    else:
        img, r = _two_region_raster(size), 5
        labels = LabelSet.from_pixels(img.shape, [(32, 8)], [(32, 55)])
    graph = build_graph(img, 0.1, r, dtype=np.float32)
    problem = to_crqopt(graph, labels)
    opts = crqopt.SolveOptions(method=method, tol=FLOOR32, maxit=200, detect_hard=False)
    sol = crqopt.solve(problem, opts)
    assert _exact_residual(graph, problem, sol) <= FLOOR32


def test_segment_holds_many_label_constraints_in_o_n():
    # 200 labels: C keeps 201 + n nonzeros and its projector one n-vector,
    # where a dense C and its Q held 2 (m + 1) n doubles
    image = _two_region_raster(64)
    rng = np.random.default_rng(4)
    left = rng.choice(64 * 32, 100, replace=False)
    right = rng.choice(64 * 32, 100, replace=False)
    labels = LabelSet(left // 32 * 64 + left % 32, right // 32 * 64 + 32 + right % 32)
    mask, _, stats = segment(image, labels)
    assert stats["converged"]
    assert mask.flat[labels.foreground].all() and not mask.flat[labels.background].any()
    assert stats["constraint_residual"] <= 1e-12
    assert 0.0 < stats["constraints_mb"] * 2**20 < 3 * image.size * 8


@pytest.mark.parametrize("tol, detect_hard, dtype", [
    (8e-5, False, "float32"), (FLOOR32, False, "float32"),
    (0.99 * FLOOR32, False, "float64"), (8e-5, True, "float64")])
def test_segment_stores_float32_where_the_solve_can_certify_it(tol, detect_hard, dtype):
    img = two_block_image(8)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    opts = replace(default_segment_options(), tol=tol, detect_hard=detect_hard)
    mask, _, stats = segment(img, labels, delta=0.1, r=2, opts=opts)
    assert stats["converged"] and stats["miss"] is None
    assert stats["graph_dtype"] == dtype
    # the Lanczos rows follow the operator's precision, which the store's sets
    assert stats["basis_dtype"] == dtype
    assert stats["basis_mb"] == (stats["steps"] + 1) * img.size * np.dtype(dtype).itemsize / 2**20
    assert np.array_equal(mask, img < 0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tol=st.one_of(st.sampled_from([0.0, float(np.nextafter(FLOOR32, 0.0)), FLOOR32]),
                     st.floats(-12.0, -2.0).map(lambda e: 10.0**e)),
       detect_hard=st.booleans(), method=st.sampled_from([crqopt.LGOPT, crqopt.QEPMIN]))
def test_the_store_is_float32_exactly_where_solve_accepts_the_options_on_it(
        tol, detect_hard, method):
    # segment's store and solve's refusal follow one rule, the driver's
    img = two_block_image(8)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    problem = to_crqopt(build_graph(img, 0.1, 2, dtype=np.float32), labels)
    opts = crqopt.SolveOptions(method=method, tol=tol, detect_hard=detect_hard)
    try:
        crqopt.solve(problem, opts)
        accepted = True
    except NotConvergedError:
        accepted = True
    except ValueError as err:
        assert "below the floor" in str(err)
        accepted = False
    assert (clustering.store_dtype(opts) == np.float32) == accepted


def test_segment_names_its_raster_kernel_and_both_give_the_same_bits(compiled, monkeypatch):
    img = _two_region_raster(32)
    labels = LabelSet.from_pixels(img.shape, [(16, 4)], [(16, 28)])
    runs = [segment(img, labels, r=3)]
    monkeypatch.setattr(raster_kernel, "load", lambda: None)
    runs.append(segment(img, labels, r=3))
    (mask, heat, stats), (dia_mask, dia_heat, dia_stats) = runs
    assert (stats["raster_kernel"], dia_stats["raster_kernel"]) == ("compiled", "scipy_dia")
    assert np.array_equal(mask, dia_mask) and heat.tobytes() == dia_heat.tobytes()
    assert (stats["steps"], stats["ncut"]) == (dia_stats["steps"], dia_stats["ncut"])


def test_float32_build_never_holds_a_float64_store():
    """The float32 store is filled offset by offset: the build peaks within
    25% of its 10 MiB, below the 20 MiB a float64 copy would take."""
    image = _two_region_raster(256)
    tracemalloc.start()
    try:
        graph = build_graph(image, 0.1, 5, dtype=np.float32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.weights.dtype == np.float32 and graph.weights.nbytes == 10 * 2**20
    assert peak <= 1.25 * graph.weights.nbytes


@pytest.mark.parametrize("size, seed", [(64, 0), (64, 1), (64, 2), (256, 3)])
def test_a_float32_basis_returns_v_on_the_sphere_and_the_constraints(size, seed):
    # the rows of a float32 basis are orthonormal only to about float32
    # eps, which left n0 + Q_k x off the unit sphere by up to 3e-7; the
    # iterate is P(Q_k x) scaled to gamma, exact to float64 rounding
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 2)
    image = _two_region_raster(size, phase)
    labels = LabelSet.from_pixels(image.shape, [(size // 2, size // 8)],
                                  [(size // 2, size - size // 8)])
    problem = to_crqopt(build_graph(image, 0.1, 5, dtype=np.float32), labels)
    sol = crqopt.solve(problem, default_segment_options())
    assert abs(np.linalg.norm(sol.v) - 1.0) <= 1e-12
    assert np.linalg.norm(problem.C.T @ sol.v - problem.b) <= 1e-12 * (1.0 + np.linalg.norm(problem.b))


@pytest.mark.parametrize("return_basis", [False, True])
def test_a_float32_solve_holds_no_float64_copy_of_its_basis(monkeypatch, return_basis):
    """Beyond its float32 row store, the solve of a 128x128 raster peaks
    at about 7.2 n doubles, with or without a ``KrylovRecord``, which
    holds the run itself.  A k x n float64 copy of the basis, made by a
    mixed-dtype product in a Gram-Schmidt pass or in forming v, would
    add 41 n."""
    image = _two_region_raster(128)
    labels = LabelSet.from_pixels(image.shape, [(64, 15)], [(64, 110)])
    problem = to_crqopt(build_graph(image, 0.1, 5, dtype=np.float32), labels)
    opts = replace(default_segment_options(), return_basis=return_basis)
    states = []

    class Recording(LanczosState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(crqopt.driver, "LanczosState", Recording)
    tracemalloc.start()
    try:
        sol = crqopt.solve(problem, opts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [state] = states
    assert state.dtype == np.float32
    assert sol.k == 41 and sol.reorth_steps > 0
    if return_basis:
        assert sol.krylov.run is state
    assert peak - state._Q.nbytes <= 12 * problem.n * 8


def test_a_float32_replay_forms_each_iterate_as_the_solve_does():
    """``error_history`` replays a float32 record's iterates as the solve
    forms v: at the stop step it reads v itself, where the plain sum
    n0 + Q_k x read err2 = 1.9e-7.  It holds no k x n float64 copy of the
    rows, which would take 41 n doubles (5.1 MiB)."""
    image = _two_region_raster(128)
    labels = LabelSet.from_pixels(image.shape, [(64, 15)], [(64, 110)])
    problem = to_crqopt(build_graph(image, 0.1, 5, dtype=np.float32), labels)
    sol = crqopt.solve(problem, replace(default_segment_options(), return_basis=True))
    assert sol.k == 41 and sol.krylov.run.dtype == np.float32
    tracemalloc.start()
    try:
        rows = crqopt.error_history(sol, sol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[-1]["k"] == sol.k
    assert rows[-1]["err2"] <= 1e-12
    assert peak < 2.5 * 2**20
