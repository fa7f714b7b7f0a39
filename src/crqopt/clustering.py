"""Constrained normalized-cut pipeline for grayscale rasters.

Pixels become graph nodes; in-radius pairs are weighted by a Gaussian of
the intensity difference.  Must-link labels (a few foreground and
background pixels) enter as linear equality constraints on the relaxed
indicator vector, which together with the degree-weighted normalization
turns the relaxed two-way normalized cut into exactly the constrained
Rayleigh-quotient problem solved by the driver:

    x' (D - W) x  ->  v' A v   with  v = D^{1/2} x,
                                     A = D^{-1/2} (D - W) D^{-1/2},

and each linear condition g'x = c becoming (D^{-1/2} g)' v = c, so the
labeled entries and the volume-balance row transfer exactly.  The graph
stores each neighbour pair's weight once, and A is applied from that
store; its spectrum lies in [0, 2], so ||A|| <= 2 is the norm the driver
uses for its scales on these problems.

Every raster product W @ x (the Laplacian's apply, the degrees and the
cut) goes through ``apply_weights``, which splits the rows into
contiguous row blocks, one per core the process may run on and none
shorter than ``MIN_BLOCK_ROWS``.  A row block is a range [r0, r1) of rows
of y, computed by ``apply_weight_rows`` from the whole of x.  Inside a
block each row's terms are still added in ascending column order, so the
product is bit-identical to the sorted CSR one however the rows are
split.  scipy's compiled DIA kernel releases the GIL, so the blocks run
in parallel on plain threads; the BLAS thread count does not govern them.
"""

import os
import threading
import time
from dataclasses import dataclass

import numpy as np
# the compiled kernel behind ``dia_matrix @ x``: y += (diagonals) @ x in place
from scipy.sparse._sparsetools import dia_matvec

from .driver import QEPMIN, SolveOptions, solve
from .errors import EmptySideError, IsolatedPixelError, NotConvergedError
from .operators import SymmetricOperator
from .problem import CrqProblem

# Fewest rows a block of ``apply_weights`` may have.  On a 2-core host
# (r = 5 rasters, best of 5), one apply split into two blocks ran at
# 0.20x the speed of one block at n = 1024, 0.30x at 4096, 0.53x at 16384,
# 0.74x at 25600, 1.12x at 36864, 1.24x at 50176 and 1.38x at 65536: two
# blocks break even near 16384 rows each, and twice that leaves a margin
# for hosts where a thread costs more.  Rasters below 256x256 run as one.
MIN_BLOCK_ROWS = 32768
# the one offset of a diagonal passed as its own slice
_MAIN_DIAGONAL = np.zeros(1, dtype=np.intp)


@dataclass
class ImageGraph:
    width: int
    height: int
    weights: np.ndarray  # (len(shifts), n): W[q - s, q] at column q, zeros off the raster
    shifts: np.ndarray   # the positive flat neighbour shifts, ascending
    degrees: np.ndarray

    @property
    def n(self):
        return self.width * self.height


def _pixel_indices(values, side):
    """Flat pixel indices of one label side as an int array; rejects
    indices that are not whole numbers and pixels given twice."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iu":
        raw = raw.astype(float)
        whole = np.isfinite(raw) & (raw == np.floor(raw))
        if not whole.all():
            raise ValueError(f"{side} label index {raw[~whole][0]!r} is not an integer")
    idx = raw.astype(int)
    pixels, counts = np.unique(idx, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"{side} label pixel {pixels[counts > 1][0]} is given more than once")
    return idx


@dataclass
class LabelSet:
    """Flat indices of the foreground and background label pixels."""

    foreground: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        self.foreground = _pixel_indices(self.foreground, "foreground")
        self.background = _pixel_indices(self.background, "background")
        if self.foreground.size == 0 or self.background.size == 0:
            raise EmptySideError("both label sides must be nonempty")
        if np.intersect1d(self.foreground, self.background).size:
            raise EmptySideError("a pixel cannot carry both labels")

    @classmethod
    def from_pixels(cls, shape, foreground_rc, background_rc):
        """Build from (row, col) pairs for an image of the given shape."""
        height, width = shape
        for r, c in list(foreground_rc) + list(background_rc):
            if not (0 <= r < height and 0 <= c < width):
                raise ValueError(f"label ({r}, {c}) outside a {height}x{width} image")
        fg = [r * width + c for r, c in foreground_rc]
        bg = [r * width + c for r, c in background_rc]
        return cls(np.array(fg), np.array(bg))


def build_graph(image, delta, r):
    """Affinity graph of a grayscale raster.

    Pixels i, j are connected when ||X(i) - X(j)||_inf < r, with weight
    exp(-(F(i) - F(j))^2 / delta_F) where delta_F is ``delta`` times the
    squared global intensity range.  A constant image gets unit weights
    on all in-radius pairs.  Each neighbour pair is stored once: row d of
    ``weights`` holds W[q - s, q] at column q for the positive flat shift
    s = ``shifts[d]``, shifts strictly ascending; entries that fall off
    the raster are zeros.  ``apply_weights`` applies the symmetric W.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-D grayscale raster")
    if r < 1:
        raise ValueError("radius must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    height, width = image.shape
    n = height * width
    frange = float(image.max() - image.min())
    delta_f = delta * frange**2
    reach = int(np.ceil(r)) - 1 if float(r).is_integer() else int(np.floor(r))

    # Offset (dy, dx) joins pixel p to q = p + s with the flat shift
    # s = dy*width + dx.  The offset list is symmetric about (0, 0) and
    # ordered by (dy, dx), so its second half holds exactly the offsets
    # with s > 0, one of each opposite pair.  On narrow rasters (width or
    # height <= 2*reach) two offsets can share a shift; their supports are
    # disjoint, so they share a row.  Offsets wholly off the raster are
    # dropped.
    offsets = [(dy, dx) for dy in range(-reach, reach + 1)
               for dx in range(-reach, reach + 1)
               if (dy or dx) and abs(dy) < height and abs(dx) < width]
    forward = offsets[len(offsets) // 2:]
    shifts = np.array(sorted({dy * width + dx for dy, dx in forward}), dtype=np.intp)
    row = {s: d for d, s in enumerate(shifts.tolist())}
    weights = np.zeros((shifts.size, height, width))
    for dy, dx in forward:
        # q = (y, x) runs over the pixels whose partner q - (dy, dx) is on the raster
        y0, x0 = max(0, dy), max(0, dx)
        y1, x1 = min(height, height + dy), min(width, width + dx)
        if delta_f == 0.0:
            w = 1.0
        else:
            diff = image[y0:y1, x0:x1] - image[y0 - dy:y1 - dy, x0 - dx:x1 - dx]
            w = np.exp(-(diff * diff) / delta_f)
        weights[row[dy * width + dx], y0:y1, x0:x1] = w
    weights = weights.reshape(shifts.size, n)
    degrees = apply_weights(weights, shifts, np.ones(n))
    if np.any(degrees <= 0.0):
        raise IsolatedPixelError("graph has an isolated pixel (zero degree)")
    return ImageGraph(width, height, weights, shifts, degrees)


def apply_blocks(n):
    """Number of row blocks ``apply_weights`` splits an n-row product
    into: one per core in the process's affinity, but none shorter than
    ``MIN_BLOCK_ROWS`` rows, and at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, max(1, n // MIN_BLOCK_ROWS))


def apply_weight_rows(weights, shifts, x, y, r0, r1):
    """Add the rows [r0, r1) of W @ x into y[r0:r1], for the half store of
    ``build_graph``.

    The symmetric W has the diagonals -s and +s for each stored shift s,
    and W[p + s, p] = W[p, p + s] = weights[d, p + s], so row i takes
    ``weights[d, i] * x[i - s]`` from diagonal -s (for i >= s) and
    ``weights[d, i + s] * x[i + s]`` from diagonal +s (for i + s < n).  The
    lower diagonals come first, in descending shift, one call of scipy's
    compiled DIA kernel each on the rows they reach; then all upper
    diagonals in one call, which reads the flat store from r0 with stride
    n.  So each row's terms are added in ascending column order, whatever
    the row range: the rows are bit-identical to the sorted CSR product.
    """
    n = x.size
    for d in range(shifts.size - 1, -1, -1):
        s = int(shifts[d])
        a = max(r0, s)
        if a < r1:
            dia_matvec(r1 - a, r1 - a, 1, r1 - a, _MAIN_DIAGONAL,
                       weights[d, a:r1], x[a - s:r1 - s], y[a:r1])
    dia_matvec(r1 - r0, n - r0, shifts.size, n, shifts,
               weights.reshape(-1)[r0:], x[r0:], y[r0:r1])


def apply_weights(weights, shifts, x):
    """W @ x for the half store of ``build_graph``.

    The rows are split into ``apply_blocks(n)`` contiguous row blocks of
    near-equal size, and ``apply_weight_rows`` computes each.  The calling
    thread runs block 0 and one thread each further block; scipy's DIA
    kernel releases the GIL, so the blocks run on separate cores.  Each
    row's terms are added in ascending column order inside its block, so
    the product is bit-identical to the sorted CSR one for any split.  An
    exception in any block is raised here once every block has finished.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n = x.size
    y = np.zeros(n)
    blocks = apply_blocks(n)
    bounds = [n * b // blocks for b in range(blocks + 1)]
    errors = [None] * blocks

    def run(b):
        try:
            apply_weight_rows(weights, shifts, x, y, bounds[b], bounds[b + 1])
        except BaseException as err:  # raised in the caller below
            errors[b] = err

    workers = [threading.Thread(target=run, args=(b,)) for b in range(1, blocks)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for err in errors:
        if err is not None:
            raise err
    return y


def encode_constraints(degrees, labels):
    """Label equalities plus the volume-balance row as ``(C, b)``, with
    C'v = b on the degree-normalized indicator v = D^{1/2} x.

    Column j < m - 1 is e_i / sqrt(d_i) for the j-th label pixel i
    (foreground first), so it reads x_i; the last column is sqrt(d), the
    balance row d'x = 0.  The targets come from the volume estimates
    c+ = sqrt(vol(J) / (vol(I) vol(V))) and
    c- = -sqrt(vol(I) / (vol(J) vol(V))) of the labeled sets I and J.
    Flat label indices must lie in [0, n) with n = ``degrees.size``.
    """
    d = degrees
    n = d.size
    flat = np.concatenate([labels.foreground, labels.background])
    outside = flat[(flat < 0) | (flat >= n)]
    if outside.size:
        raise ValueError(f"label index {outside[0]} outside [0, n) with n = {n}")
    vol_i = float(d[labels.foreground].sum())
    vol_j = float(d[labels.background].sum())
    vol_v = float(d.sum())
    c_plus = np.sqrt(vol_j / (vol_i * vol_v))
    c_minus = -np.sqrt(vol_i / (vol_j * vol_v))
    b = np.concatenate(
        [
            np.full(labels.foreground.size, c_plus),
            np.full(labels.background.size, c_minus),
            [0.0],
        ]
    )
    C = np.zeros((n, flat.size + 1))
    C[flat, np.arange(flat.size)] = 1.0 / np.sqrt(d[flat])
    C[:, -1] = np.sqrt(d)
    return C, b


class NormalizedLaplacianOperator(SymmetricOperator):
    """v -> D^{-1/2} (D - W) D^{-1/2} v, applied from the graph's half store.

    Its spectrum lies in [0, 2] (Chung, Spectral Graph Theory, 1997), so
    ``norm_bound`` is 2 and no norm estimate is run.
    """

    norm_bound = 2.0

    def __init__(self, graph):
        super().__init__(graph.n)
        self.weights = graph.weights
        self.shifts = graph.shifts
        self.dinv_sqrt = 1.0 / np.sqrt(graph.degrees)

    def matvec(self, x):
        y = self.dinv_sqrt * x
        return x - self.dinv_sqrt * apply_weights(self.weights, self.shifts, y)


def to_crqopt(graph, labels):
    """The degree-normalized problem solved by the driver: the graph's
    normalized Laplacian and the label constraints of ``encode_constraints``."""
    return CrqProblem(NormalizedLaplacianOperator(graph),
                      *encode_constraints(graph.degrees, labels))


def ncut_value(graph, mask):
    """Normalized cut of the bipartition given by a boolean mask."""
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.all() or not mask.any():
        return float("inf")
    ind_a = mask.astype(float)
    ind_b = 1.0 - ind_a
    cut = float(ind_a @ apply_weights(graph.weights, graph.shifts, ind_b))
    vol_a = float(graph.degrees[mask].sum())
    vol_b = float(graph.degrees[~mask].sum())
    return cut / vol_a + cut / vol_b


def default_segment_options():
    """Solver settings used for image runs: the loop stops at the first
    check whose qepmin residual bound is below 8e-5.  The mask reads only
    the sign of the relaxed indicator; a caller who needs a tighter
    objective sets a smaller ``tol``."""
    return SolveOptions(method=QEPMIN, tol=8e-5, maxit=300, detect_hard=False)


def segment(image, labels, delta=0.1, r=5, opts=None):
    """Full pipeline: graph, constraints, solve, threshold.

    Returns ``(mask, heat, stats)`` with the binary mask from the sign
    of the relaxed indicator, the indicator rescaled to [0, 1] as a heat
    map, and run statistics.  It returns whether or not the solve
    converged: ``stats["converged"]`` is False exactly when the solve
    raised ``NotConvergedError``, whose answer then gives the maps.
    """
    t0 = time.perf_counter()
    graph = build_graph(image, delta, r)
    problem = to_crqopt(graph, labels)
    if opts is None:
        opts = default_segment_options()
    try:
        sol, converged = solve(problem, opts), True
    except NotConvergedError as err:
        sol, converged = err.solution, False

    x = problem.A.dinv_sqrt * sol.v
    mask = (x > 0.0).reshape(image.shape)
    span = x.max() - x.min()
    heat = ((x - x.min()) / span if span > 0 else np.zeros_like(x)).reshape(image.shape)
    return mask, heat, {
        "steps": sol.k,
        "reorth_steps": sol.reorth_steps,
        "runtime_s": time.perf_counter() - t0,
        "ncut": ncut_value(graph, mask),
        "objective": sol.objective,
        "constraint_residual": float(np.linalg.norm(problem.C.T @ sol.v - problem.b)),
        "c_plus": float(problem.b[0]),
        "c_minus": float(problem.b[labels.foreground.size]),
        "converged": converged,
        "graph_mb": graph.weights.nbytes / 2**20,
        "apply_blocks": apply_blocks(graph.n),
    }
