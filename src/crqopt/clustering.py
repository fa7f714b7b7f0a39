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
"""

import time
from dataclasses import dataclass

import numpy as np
# the compiled kernel behind ``dia_matrix @ x``: y += (diagonals) @ x in place
from scipy.sparse._sparsetools import dia_matvec

from .driver import QEPMIN, SolveOptions, solve
from .errors import EmptySideError, IsolatedPixelError, NotConvergedError
from .operators import SymmetricOperator
from .problem import CrqProblem


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


def apply_weights(weights, shifts, x):
    """W @ x for the half store of ``build_graph``.

    The symmetric W has the diagonals -s and +s for each stored shift s,
    and W[p + s, p] = W[p, p + s] = weights[d, p + s], so diagonal -s is
    ``y[s:] += weights[d, s:] * x[:n - s]`` and diagonal +s is
    ``y[:n - s] += weights[d, s:] * x[s:]``.  The diagonals are visited in
    ascending order, so each row's terms are added in ascending column
    order: the product is bit-identical to the sorted CSR one.  Each
    diagonal is one fused pass of scipy's compiled DIA kernel, which
    accumulates into y: the lower ones one at a time from the shifted row
    ``weights[d, s:]``, the upper ones together from the store as it is.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n = x.size
    y = np.zeros(n)
    lower = -shifts
    for d in range(shifts.size - 1, -1, -1):
        s = int(shifts[d])
        dia_matvec(n, n, 1, n - s, lower[d:d + 1], weights[d, s:], x, y)
    dia_matvec(n, n, shifts.size, n, shifts, weights, x, y)
    return y


@dataclass
class ConstraintSystem:
    """Right-hand side of the label rows and the balance row d'x = 0."""

    labels: LabelSet
    rhs: np.ndarray
    c_hat: tuple

    @property
    def m(self):
        return self.labels.foreground.size + self.labels.background.size + 1


def encode_constraints(graph, labels):
    """Label equalities plus the volume-balance row as N'x = rhs.

    The target values come from the volume estimates
    c+ = sqrt(vol(J) / (vol(I) vol(V))) and
    c- = -sqrt(vol(I) / (vol(J) vol(V))) computed from the labeled sets.
    Flat label indices must lie in [0, n).
    """
    d = graph.degrees
    flat = np.concatenate([labels.foreground, labels.background])
    outside = flat[(flat < 0) | (flat >= graph.n)]
    if outside.size:
        raise ValueError(f"label index {outside[0]} outside [0, n) with n = {graph.n}")
    vol_i = float(d[labels.foreground].sum())
    vol_j = float(d[labels.background].sum())
    vol_v = float(d.sum())
    c_plus = np.sqrt(vol_j / (vol_i * vol_v))
    c_minus = -np.sqrt(vol_i / (vol_j * vol_v))
    rhs = np.concatenate(
        [
            np.full(labels.foreground.size, c_plus),
            np.full(labels.background.size, c_minus),
            [0.0],
        ]
    )
    return ConstraintSystem(labels, rhs, (float(c_plus), float(c_minus)))


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


def to_crqopt(graph, constraints):
    """Assemble the degree-normalized problem solved by the driver.

    The constraint columns are rescaled by D^{-1/2} so that C'v = b is
    exactly equivalent to N'x = rhs under v = D^{1/2} x (the labeled
    rows read off x_i directly, the balance column becomes sqrt(d)).
    """
    d = graph.degrees
    dsqrt = np.sqrt(d)
    n = graph.n
    m = constraints.m
    C = np.zeros((n, m))
    j = 0
    for i in constraints.labels.foreground:
        C[i, j] = 1.0 / dsqrt[i]
        j += 1
    for i in constraints.labels.background:
        C[i, j] = 1.0 / dsqrt[i]
        j += 1
    C[:, m - 1] = dsqrt
    A = NormalizedLaplacianOperator(graph)
    return CrqProblem(A, C, constraints.rhs.copy())


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
    """Solver settings used for image runs: residual bound below 8e-5,
    with no check before a warm-up of 120 steps."""
    return SolveOptions(
        method=QEPMIN, tol=8e-5, maxit=300, minit=120, detect_hard=False,
    )


def segment(image, labels, delta=0.1, r=5, opts=None):
    """Full pipeline: graph, constraints, solve, threshold.

    Returns ``(mask, heat, stats)`` with the binary mask from the sign
    of the relaxed indicator, the indicator rescaled to [0, 1] as a heat
    map, and run statistics.  A non-converged solve raises
    ``NotConvergedError`` with the partial outputs attached as
    ``err.partial``.
    """
    t0 = time.perf_counter()
    graph = build_graph(image, delta, r)
    constraints = encode_constraints(graph, labels)
    problem = to_crqopt(graph, constraints)
    if opts is None:
        opts = default_segment_options()
    failure = None
    try:
        sol = solve(problem, opts)
    except NotConvergedError as err:
        failure = err
        sol = err.solution

    dinv_sqrt = 1.0 / np.sqrt(graph.degrees)
    x = dinv_sqrt * sol.v
    mask = (x > 0.0).reshape(image.shape)
    span = x.max() - x.min()
    heat = ((x - x.min()) / span if span > 0 else np.zeros_like(x)).reshape(image.shape)
    stats = {
        "steps": sol.k,
        "reorth_steps": sol.reorth_steps,
        "runtime_s": time.perf_counter() - t0,
        "ncut": ncut_value(graph, mask),
        "objective": sol.objective,
        "constraint_residual": float(np.linalg.norm(problem.C.T @ sol.v - problem.b)),
        "c_plus": constraints.c_hat[0],
        "c_minus": constraints.c_hat[1],
        "converged": failure is None,
        "graph_mb": graph.weights.nbytes / 2**20,
    }
    if failure is not None:
        failure.partial = (mask, heat, stats)
        raise failure
    return mask, heat, stats
