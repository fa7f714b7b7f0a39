import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import crqopt
from crqopt.clustering import (LabelSet, NormalizedLaplacianOperator, apply_weights,
                               build_graph, encode_constraints, ncut_value, segment,
                               to_crqopt)
from crqopt.errors import EmptySideError, IsolatedPixelError
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


def _two_region_raster(size):
    """Demo 04's raster: two intensity halves under a smooth texture."""
    yy, xx = np.mgrid[0:size, 0:size]
    image = np.where(xx < size // 2, 60.0, 180.0)
    return image + 10.0 * np.sin(yy / 9.0) + 6.0 * np.cos(xx / 7.0)


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


@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (13, 17), (1, 9)])
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
@pytest.mark.parametrize("constant", [False, True])
def test_graph_products_bitwise_equal_sorted_csr(shape, r, constant):
    _assert_products_match_sorted_csr(build_graph(_oracle_image(shape, constant), 0.2, r))


def test_raster_graph_products_bitwise_equal_sorted_csr():
    _assert_products_match_sorted_csr(build_graph(_two_region_raster(128), 0.1, 5))


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
    cons = encode_constraints(graph, labels)
    c_plus, c_minus = cons.c_hat
    assert c_plus == pytest.approx(-c_minus, rel=1e-12)
    assert c_plus == pytest.approx(1.0 / np.sqrt(graph.degrees.sum()), rel=1e-12)
    assert c_plus > 0 > c_minus


def test_constraint_matrix_full_rank():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(4, 1), (2, 2)], [(4, 6)])
    cons = encode_constraints(graph, labels)
    C = to_crqopt(graph, cons).C
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
    problem = to_crqopt(graph, encode_constraints(graph, labels))
    null_vec = np.sqrt(graph.degrees)
    assert np.linalg.norm(problem.A.matvec(null_vec)) <= 1e-10 * np.linalg.norm(null_vec)


def test_normalized_laplacian_positive_semidefinite():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    problem = to_crqopt(graph, encode_constraints(graph, labels))
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(graph.n)
        assert x @ problem.A.matvec(x) >= -1e-10 * (x @ x)


def test_pipeline_feasibility_and_normalization():
    img = two_block_image(8)
    graph = build_graph(img, delta=0.1, r=2)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    cons = encode_constraints(graph, labels)
    problem = to_crqopt(graph, cons)
    opts = crqopt.SolveOptions(tol=1e-12, maxit=60, detect_hard=False)
    sol = crqopt.solve(problem, opts)
    assert np.linalg.norm(problem.C.T @ sol.v - problem.b) <= 1e-8
    x = sol.v / np.sqrt(graph.degrees)
    # labeled entries hit their targets, balance row is satisfied
    c_plus, c_minus = cons.c_hat
    assert abs(x[labels.foreground[0]] - c_plus) <= 1e-6 * (abs(c_plus) + abs(c_minus))
    assert abs(x[labels.background[0]] - c_minus) <= 1e-6 * (abs(c_plus) + abs(c_minus))
    assert abs(graph.degrees @ x) <= 1e-6 * np.sqrt(graph.degrees.sum())
    assert x @ (graph.degrees * x) == pytest.approx(1.0, abs=1e-8)


def test_two_block_segmentation_exact_and_ncut_optimal():
    img = two_block_image(8)
    labels = LabelSet.from_pixels(img.shape, [(4, 1)], [(4, 6)])
    opts = crqopt.SolveOptions(method=crqopt.QEPMIN, tol=1e-10, maxit=60,
                               minit=1, detect_hard=False)
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
    opts = crqopt.SolveOptions(tol=1e-10, maxit=60, minit=1, detect_hard=False)
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
    opts = crqopt.SolveOptions(method=crqopt.QEPMIN, tol=8e-5, maxit=150,
                               minit=20, detect_hard=False)
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


def test_raster_problem_takes_the_laplacian_norm_bound(monkeypatch):
    def no_estimate(op):
        raise AssertionError("the normalized Laplacian needs no norm estimate")

    monkeypatch.setattr(crqopt.problem, "norm_estimate", no_estimate)
    image = _two_region_raster(32)
    graph = build_graph(image, 0.1, 5)
    labels = LabelSet.from_pixels(image.shape, [(16, 3)], [(16, 28)])
    assert to_crqopt(graph, encode_constraints(graph, labels)).norm_a == 2.0


def test_segment_solve_applies_a_once_per_step_plus_eight(monkeypatch):
    """k Lanczos steps, 6 for the symmetry spot check, 1 for n0'A n0 in
    classify and 1 for the objective at the returned v: no norm estimate."""
    applies = []
    matvec = NormalizedLaplacianOperator.matvec

    def counting(self, x):
        applies.append(1)
        return matvec(self, x)

    monkeypatch.setattr(NormalizedLaplacianOperator, "matvec", counting)
    image = _two_region_raster(32)
    labels = LabelSet.from_pixels(image.shape, [(16, 3)], [(16, 28)])
    opts = crqopt.SolveOptions(method=crqopt.QEPMIN, tol=8e-5, maxit=60, minit=20,
                               detect_hard=False)
    _, _, stats = segment(image, labels, delta=0.1, r=5, opts=opts)
    assert len(applies) == stats["steps"] + 6 + 1 + 1


@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (13, 17), (1, 9)])
@pytest.mark.parametrize("r", [1.5, 2, 3.7, 6])
@pytest.mark.parametrize("constant", [False, True])
def test_normalized_laplacian_spectrum_within_norm_bound(shape, r, constant):
    graph = build_graph(_oracle_image(shape, constant), 0.2, r)
    dense = NormalizedLaplacianOperator(graph).apply(np.eye(graph.n))
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] >= -1e-12
    assert eigs[-1] <= NormalizedLaplacianOperator.norm_bound + 1e-12
