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
labeled entries and the volume-balance row transfer exactly.  The
constraint matrix is sparse (CSC): one coordinate column per label pixel
and the balance column sqrt(d), so ``ProjectedOperator`` projects by
zeroing the label rows and one n-vector's fit, however many labels
there are.  The graph
stores each neighbour pair's weight once, and A is applied from that
store; its spectrum lies in [0, 2], so ||A|| <= 2 is the norm the driver
uses for its scales on these problems.

The store holds float64 or float32 weights.  A float32 store halves the
graph and the bytes each A-apply streams, at a rounding of float32
eps = 1.19e-7 per apply.  ``segment`` derives the precision from what
its solve must certify (``store_dtype``): float32 where the driver can
certify ``opts`` at that rounding (``driver.can_certify``), else
float64.  Either way the degrees and the
cut are summed in float64, and the Laplacian scales in float64.  The
Lanczos basis of a float32 operator is stored in float32 as well
(``lanczos.basis_dtype``), which halves the solve's largest array.

Both raster products W @ x (the Laplacian's apply and the degrees) go
through ``apply_weights``, in the store's dtype, on the calling thread:
the compiled kernel of ``raster_kernel``, built on the first product,
or scipy's DIA kernel where it cannot be built.  Each row's terms are
added in ascending column order on either path, so the product is
bit-identical to the sorted CSR one of the store's dtype.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# the compiled kernel behind ``dia_matrix @ x``: y += (diagonals) @ x in place;
# raster products take it only where ``raster_kernel`` cannot be built
from scipy.sparse._sparsetools import dia_matvec

from . import raster_kernel
from .driver import QEPMIN, SolveOptions, can_certify, solve
from .errors import EmptySideError, IsolatedPixelError, NotConvergedError
from .lanczos import basis_dtype
from .operators import SymmetricOperator
from .problem import CrqProblem

# the one offset of a diagonal passed as its own slice
_MAIN_DIAGONAL = np.zeros(1, dtype=np.intp)


@dataclass
class ImageGraph:
    width: int
    height: int
    # (len(shifts), n), float64 or float32: W[q - s, q] at column q, zeros off the raster
    weights: np.ndarray
    shifts: np.ndarray   # the positive flat neighbour shifts, ascending
    degrees: np.ndarray  # float64 W @ 1 from the store's own kernel

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


def build_graph(image, delta, r, dtype=np.float64):
    """Affinity graph of a grayscale raster.

    Pixels i, j are connected when ||X(i) - X(j)||_inf < r, with weight
    exp(-(F(i) - F(j))^2 / delta_F) where delta_F is ``delta`` times the
    squared global intensity range.  A constant image gets unit weights
    on all in-radius pairs.  Each neighbour pair is stored once: row d of
    ``weights`` holds W[q - s, q] at column q for the positive flat shift
    s = ``shifts[d]``, shifts strictly ascending; entries that fall off
    the raster are zeros.  ``apply_weights`` applies the symmetric W.

    The store has ``dtype``, float64 or float32: each offset's weights are
    computed in float64 and rounded into their row, so no full float64
    copy is ever held.  The degrees are the store kernel's W @ 1, in
    float64.
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
    weights = np.zeros((shifts.size, height, width), dtype=dtype)
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
    degrees = apply_weights(weights, shifts, np.ones(n)).astype(float, copy=False)
    if np.any(degrees <= 0.0):
        raise IsolatedPixelError("graph has an isolated pixel (zero degree)")
    return ImageGraph(width, height, weights, shifts, degrees)


def apply_weights(weights, shifts, x):
    """W @ x for the half store of ``build_graph``, in the store's dtype.

    x is rounded to the store's dtype, and the product is summed and
    returned in it: a float32 store reads and writes half the bytes of a
    float64 one.  The symmetric W has the diagonals -s and +s for each
    stored shift s, and W[p + s, p] = W[p, p + s] = weights[d, p + s], so
    row i takes ``weights[d, i] * x[i - s]`` from diagonal -s (for i >= s)
    and ``weights[d, i + s] * x[i + s]`` from diagonal +s (for i + s < n).

    The compiled kernel (``raster_kernel``) takes the rows in blocks of
    ``raster_kernel.ROW_BLOCK``, whose slice of y stays in cache while the
    lower diagonals, in descending shift, and then the upper ones, in
    ascending shift, stream through it.  Where that kernel cannot be
    built, one call of scipy's DIA kernel per lower diagonal and one for
    all upper diagonals add the same terms in the same order.  Either way
    each row's terms are added in ascending column order, so the product
    is bit-identical to the sorted CSR one of the same dtype.  It runs on
    the calling thread.

    Raises ValueError unless ``weights`` is a C-contiguous (shifts, n)
    float32 or float64 store, ``shifts`` its intp shifts, strictly
    ascending in [1, n), and x holds n entries.
    """
    if weights.ndim != 2 or not weights.flags.c_contiguous:
        raise ValueError("the weight store must be a C-contiguous 2-D array")
    if weights.dtype not in (np.float32, np.float64):
        raise ValueError(f"the weight store is {weights.dtype}, not float32 or float64")
    n = weights.shape[1]
    shifts = np.asarray(shifts)
    if shifts.dtype != np.intp or shifts.shape != weights.shape[:1]:
        raise ValueError(f"expected {weights.shape[0]} intp shifts, one per store row, "
                         f"got {shifts.size} of {shifts.dtype}")
    if shifts.size and (shifts[0] < 1 or shifts[-1] >= n or np.any(shifts[1:] <= shifts[:-1])):
        raise ValueError(f"the shifts must ascend strictly within [1, {n})")
    x = np.ascontiguousarray(x, dtype=weights.dtype)
    if x.shape != (n,):
        raise ValueError(f"x has {x.size} entries in shape {x.shape}, "
                         f"the store's raster has n = {n}")
    kernels = raster_kernel.load()
    if kernels is not None:
        y = np.empty(n, dtype=weights.dtype)
        kernels[weights.dtype](weights.ctypes.data, shifts.ctypes.data, shifts.size, n,
                               raster_kernel.ROW_BLOCK, x.ctypes.data, y.ctypes.data)
        return y
    y = np.zeros(n, dtype=weights.dtype)
    for d in range(shifts.size - 1, -1, -1):
        s = int(shifts[d])
        dia_matvec(n - s, n - s, 1, n - s, _MAIN_DIAGONAL, weights[d, s:], x[:n - s], y[s:])
    dia_matvec(n, n, shifts.size, n, shifts, weights.reshape(-1), x, y)
    return y


def encode_constraints(degrees, labels):
    """Label equalities plus the volume-balance row as ``(C, b)``, with
    C'v = b on the degree-normalized indicator v = D^{1/2} x.

    C is an n x m CSC matrix.  Column j < m - 1 is e_i / sqrt(d_i) for
    the j-th label pixel i (foreground first), so it reads x_i; the last
    column is sqrt(d), the balance row d'x = 0.  So C holds
    m - 1 + n nonzeros, and its label columns are the coordinate columns
    that ``ProjectedOperator`` applies by zeroing rows.  The targets come
    from the volume estimates c+ = sqrt(vol(J) / (vol(I) vol(V))) and
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
    dsqrt = np.sqrt(d)
    data = np.concatenate([1.0 / dsqrt[flat], dsqrt])
    index = np.int32 if flat.size + n <= np.iinfo(np.int32).max else np.int64
    indices = np.concatenate([flat, np.arange(n)]).astype(index)
    indptr = np.append(np.arange(flat.size + 1), flat.size + n).astype(index)
    C = sp.csc_array((data, indices, indptr), shape=(n, flat.size + 1))
    return C, b


class NormalizedLaplacianOperator(SymmetricOperator):
    """v -> D^{-1/2} (D - W) D^{-1/2} v, applied from the graph's half store.

    Its spectrum lies in [0, 2] (Chung, Spectral Graph Theory, 1997), so
    ``norm_bound`` is 2 and no norm estimate is run.  The product
    D^{-1/2} x is formed in float64 and rounded once into the store's
    dtype, and W's product comes back through the float64 scaling, so a
    float32 store costs no separate casts; its operator declares
    ``unit_roundoff`` float32 eps.
    """

    norm_bound = 2.0

    def __init__(self, graph):
        super().__init__(graph.n)
        self.weights = graph.weights
        self.shifts = graph.shifts
        self.dinv_sqrt = 1.0 / np.sqrt(graph.degrees)
        self.unit_roundoff = float(np.finfo(graph.weights.dtype).eps)

    def matvec(self, x):
        y = np.multiply(self.dinv_sqrt, x, out=np.empty(self.n, dtype=self.weights.dtype),
                        casting="same_kind")
        return x - self.dinv_sqrt * apply_weights(self.weights, self.shifts, y)


def to_crqopt(graph, labels):
    """The degree-normalized problem solved by the driver: the graph's
    normalized Laplacian and the label constraints of ``encode_constraints``."""
    return CrqProblem(NormalizedLaplacianOperator(graph),
                      *encode_constraints(graph.degrees, labels))


def ncut_value(graph, mask):
    """Normalized cut of the bipartition given by a boolean mask.

    The cut sums, in float64, the stored weight of every pair (q - s, q)
    whose ends lie on opposite sides, one shift row at a time.  Raises
    ``ValueError`` unless the mask holds one entry per pixel.
    """
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.size != graph.n:
        raise ValueError(f"the mask has {mask.size} entries, the graph has n = {graph.n} pixels")
    if mask.all() or not mask.any():
        return float("inf")
    cut = 0.0
    for s, row in zip(graph.shifts, graph.weights):
        cut += float(np.sum(row[s:], where=mask[s:] != mask[:-s], dtype=float))
    vol_a = float(graph.degrees[mask].sum())
    vol_b = float(graph.degrees[~mask].sum())
    return cut / vol_a + cut / vol_b


def default_segment_options():
    """Solver settings used for image runs: the loop stops at the first
    check whose qepmin residual bound is below 8e-5.  The mask reads only
    the sign of the relaxed indicator; a caller who needs a tighter
    objective sets a smaller ``tol``."""
    return SolveOptions(method=QEPMIN, tol=8e-5, maxit=300, detect_hard=False)


def store_dtype(opts):
    """The weight store a solve with ``opts`` can use: float32 where the
    driver can certify what ``opts`` asks at float32's unit roundoff
    (``driver.can_certify``), else float64."""
    return np.float32 if can_certify(opts, float(np.finfo(np.float32).eps)) else np.float64


def segment(image, labels, delta=0.1, r=5, opts=None):
    """Full pipeline: graph, constraints, solve, threshold.

    Returns ``(mask, heat, stats)`` with the binary mask from the sign
    of the relaxed indicator, the indicator rescaled to [0, 1] as a heat
    map, and run statistics.  The graph's store precision follows from
    ``opts`` (``store_dtype``).  It returns whether or not the solve
    converged: ``stats["converged"]`` is False exactly when the solve
    raised ``NotConvergedError``, whose answer then gives the maps and
    whose message is ``stats["miss"]`` (None on a converged solve).
    ``graph_mb`` and ``basis_mb`` give the MiB of the weight store and of
    the k + 1 Lanczos basis rows the solve wrote, and ``graph_dtype`` and
    ``basis_dtype`` their precisions; ``constraints_mb`` gives the MiB
    held by the sparse C and its projector (``CrqProblem.constraints_nbytes``).
    ``raster_kernel`` names the kernel that applied W: ``compiled``, or
    ``scipy_dia`` where the compiled one could not be built.
    """
    t0 = time.perf_counter()
    if opts is None:
        opts = default_segment_options()
    graph = build_graph(image, delta, r, dtype=store_dtype(opts))
    problem = to_crqopt(graph, labels)
    try:
        sol, miss = solve(problem, opts), None
    except NotConvergedError as err:
        sol, miss = err.solution, str(err)

    row_dtype = basis_dtype(problem.A.unit_roundoff)
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
        "converged": miss is None,
        "miss": miss,
        "graph_mb": graph.weights.nbytes / 2**20,
        "graph_dtype": graph.weights.dtype.name,
        "basis_mb": (sol.k + 1) * graph.n * row_dtype.itemsize / 2**20,
        "basis_dtype": row_dtype.name,
        "constraints_mb": problem.constraints_nbytes / 2**20,
        "raster_kernel": raster_kernel.kernel_name(),
    }
