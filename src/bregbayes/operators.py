"""Forward operators: blur, Radon, Haar wavelets, restriction.

Every operator carries an explicit adjoint. Adjoints are exact transposes
of the assembled action, so randomized probe tests hold at tight
tolerances rather than only asymptotically. Radon, Haar and the
interval average are assembled sparse matrices, applied as
``(matrix @ u.T).T`` and ``(matrix.T @ v.T).T``; the blur multiplies by a
dense reflective matrix per axis and builds its columns only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .grids import Grid, row_dot


@dataclass(frozen=True)
class LinearOperator:
    """Linear map with an explicit adjoint.

    ``apply`` and ``adjoint_apply`` take one vector or a block of vectors,
    one per row: row i of a block's result is the map applied to row i,
    and a single vector's result is the same as without blocks.
    ``matrix`` is the assembled CSC matrix behind ``apply`` and
    ``adjoint_apply`` when there is one (no explicit zeros); callers still
    go through ``apply``, and :func:`sparse_columns` returns it.
    ``columns`` builds that CSC matrix on demand for an operator that
    applies without one, so no long-lived copy exists. ``dct_eigenvalues``
    s, shaped like the grid, mean K = C^T diag(s) C with C the orthonormal
    n-D DCT-II.
    """

    in_dim: int
    out_dim: int
    apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    adjoint_apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    name: str = "operator"
    matrix: Optional[sp.csc_array] = field(default=None, repr=False,
                                           compare=False)
    columns: Optional[Callable[[], sp.csc_array]] = field(
        default=None, repr=False, compare=False)
    dct_eigenvalues: Optional[np.ndarray] = field(default=None, repr=False,
                                                  compare=False)

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("operator dimensions must be positive")


def adjoint_probe_error(op: LinearOperator, rng=None, n_probes: int = 20) -> float:
    """Max relative defect of <Ku, v> = <u, K^T v> over random probes,
    which go through the operator as one block."""
    rng = np.random.default_rng(rng)
    uv = rng.standard_normal((n_probes, op.in_dim + op.out_dim))
    u, v = uv[:, :op.in_dim], uv[:, op.in_dim:]
    lhs = row_dot(op.apply(u), v)
    rhs = row_dot(u, op.adjoint_apply(v))
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    return float((np.abs(lhs - rhs) / scale).max(initial=0.0))


def identity(n: int) -> LinearOperator:
    return LinearOperator(n, n, lambda u: u.copy(), lambda v: v.copy(), "identity")


def _matrix_operator(a, name: str, matrix: sp.csc_array) -> LinearOperator:
    """The product with dense or sparse ``a``. A block's result is made
    row-major, so row-wise sums over it round as for one vector."""
    at = a.T  # a view sharing the data, not a second copy
    return LinearOperator(
        a.shape[1], a.shape[0], lambda u: np.ascontiguousarray((a @ u.T).T),
        lambda v: np.ascontiguousarray((at @ v.T).T), name, matrix)


def from_matrix(a: np.ndarray, name: str = "matrix") -> LinearOperator:
    a = np.asarray(a, dtype=np.float64)
    return _matrix_operator(a, name, sp.csc_array(a))


def sparse_columns(op: LinearOperator) -> sp.csc_array:
    """The columns of K as one CSC matrix.

    The assembled ``matrix`` when the operator keeps one, else the matrix
    its ``columns`` builds; an operator with neither is refused. Read by
    the samplers (colouring, incremental residual updates) and by the
    banded TV u-step.
    """
    if op.matrix is not None:
        return op.matrix
    if op.columns is not None:
        return op.columns()
    raise ValueError(f"{op.name}: no column structure (neither an assembled "
                     f"matrix nor a column builder)")


# ---------------------------------------------------------------------------
# Gaussian blur
# ---------------------------------------------------------------------------


def _gaussian_kernel(sigma_phys: float, h: float) -> np.ndarray:
    # truncate at 4 sigma, renormalize so constants are preserved exactly
    radius = max(1, int(np.ceil(4.0 * sigma_phys / h)))
    x = np.arange(-radius, radius + 1) * h
    k = np.exp(-0.5 * (x / sigma_phys) ** 2)
    return k / k.sum()


def _reflective_matrix(kernel: np.ndarray, n: int) -> sp.csc_array:
    """The symmetric n x n CSC matrix of the 1-D convolution with ``kernel``
    under the reflective (half-sample symmetric) boundary.

    Column j is the kernel laid over j, its indices off the grid folded
    back (repeatedly for a kernel longer than the grid), duplicates summed
    by increasing offset |m|, so (i, j) and (j, i) add the same values in
    the same order; rows come sorted.
    """
    r = kernel.size // 2
    off = np.array(sorted(range(-r, r + 1), key=abs))
    idx = (np.arange(n)[:, None] + off) % (2 * n)
    flat = n * np.arange(n)[:, None] + np.where(idx >= n, 2 * n - 1 - idx, idx)
    keys, where = np.unique(flat, return_inverse=True)
    vals = np.bincount(where.reshape(-1), weights=np.tile(kernel[off + r], n))
    indptr = np.searchsorted(keys, n * np.arange(n + 1))
    # int32 indices, as Radon and Haar use, keep the Kronecker product small
    return sp.csc_array((vals, (keys % n).astype(np.int32),
                         indptr.astype(np.int32)), shape=(n, n))


def _dct_eigenvalues(kernel: np.ndarray, n: int) -> np.ndarray:
    """DCT-II eigenvalues of the reflective convolution, radius below n.

    Each DCT-II basis vector cos(pi k (i + 1/2) / n) satisfies the
    half-sample symmetric boundary, and a symmetric kernel maps it to
    itself times its cosine transform at frequency pi k / n.
    """
    r = kernel.size // 2
    freq = np.pi * np.arange(n) / n
    return kernel[r] + 2.0 * np.cos(np.outer(freq, np.arange(1, r + 1))) \
        @ kernel[r + 1:]


def gaussian_blur(grid: Grid, kernel_sigma: float) -> LinearOperator:
    """Separable Gaussian convolution with reflective boundary handling.

    ``kernel_sigma`` is a length on the grid, whose sides are 1. The kernel is
    truncated at 4 sigma and renormalized. Each axis has its exactly
    symmetric 1-D reflective matrix, so the operator is self-adjoint:
    ``apply`` computes A_r X A_c with them densified, and ``columns`` builds
    their Kronecker product as one CSC matrix. While the kernel radius is
    below every grid side, the orthonormal DCT-II diagonalises it
    (``dct_eigenvalues``).
    """
    if kernel_sigma <= 0:
        raise ValueError(f"kernel_sigma must be positive, got {kernel_sigma}")
    shape = grid.shape
    kernels = [_gaussian_kernel(kernel_sigma, h) for h in grid.cell_widths()]
    axes = [_reflective_matrix(k, s) for k, s in zip(kernels, shape)]
    # a 1-D grid as one column, blurred along its row by the 1 x 1 identity
    a_r, a_c = [a.toarray() for a in axes] + [np.ones((1, 1))] * (2 - grid.dim)
    image = (shape + (1,))[:2]

    def columns() -> sp.csc_array:
        # column (i, j) of kron(A0, A1) is the outer product of their columns
        return axes[0] if grid.dim == 1 else sp.csc_array(
            sp.kron(*axes, format="csc"))

    eig = None
    if all(k.size // 2 < s for k, s in zip(kernels, shape)):
        eig = reduce(np.multiply.outer, map(_dct_eigenvalues, kernels, shape))

    def apply(u: np.ndarray) -> np.ndarray:
        # a block's rows go through the same products as single vectors
        return (a_r @ u.reshape(u.shape[:-1] + image) @ a_c).reshape(u.shape)

    n = grid.size
    return LinearOperator(n, n, apply, apply, f"blur(sigma={kernel_sigma:g})",
                          columns=columns, dct_eigenvalues=eig)


# ---------------------------------------------------------------------------
# Radon transform (parallel beam, pixel driven)
# ---------------------------------------------------------------------------


def radon(grid: Grid, num_angles: int, num_bins: int) -> LinearOperator:
    """Parallel-beam projections by pixel-driven linear interpolation.

    Angles are uniform on [0, pi). Each pixel deposits its value times the
    pixel area onto the two detector bins bracketing its projected
    coordinate, so the sum over bins of one angle's projection equals the
    total image mass. The operator is assembled as one sparse matrix; the
    adjoint is its transpose.
    """
    if grid.dim != 2:
        raise ValueError("radon requires a 2D grid")
    if num_angles <= 0 or num_bins <= 0:
        raise ValueError("need at least one angle and one bin")
    rows, cols = grid.shape
    hy, hx = grid.cell_widths()
    area = hx * hy
    # pixel centers, centered coordinates
    y = (np.arange(rows) + 0.5) * hy - 0.5
    x = (np.arange(cols) + 0.5) * hx - 0.5
    xg, yg = np.meshgrid(x, y)
    xg = xg.reshape(-1)
    yg = yg.reshape(-1)

    s_max = 0.5 * float(np.hypot(1.0, 1.0))
    ds = 2.0 * s_max / num_bins
    angles = np.arange(num_angles) * (np.pi / num_angles)

    # CSC layout, two entries per pixel and angle: the bins bracketing the
    # pixel's projection. A bin off the detector keeps a zero entry at a
    # clipped row, which eliminate_zeros then drops.
    n = grid.size
    nnz = 2 * num_angles * n
    itype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    rows_out = np.empty((n, num_angles, 2), dtype=itype)
    vals = np.empty((n, num_angles, 2))
    for k, theta in enumerate(angles):
        s = xg * np.cos(theta) + yg * np.sin(theta)
        g = (s + s_max) / ds - 0.5  # fractional bin index
        i0 = np.floor(g)
        w1 = g - i0
        for j, (b, w) in enumerate(((i0, 1.0 - w1), (i0 + 1.0, w1))):
            on = (b >= 0) & (b < num_bins)
            rows_out[:, k, j] = k * num_bins + np.clip(b, 0, num_bins - 1)
            vals[:, k, j] = np.where(on, w * area, 0.0)
    indptr = np.arange(0, nnz + 1, 2 * num_angles, dtype=itype)
    matrix = sp.csc_array((vals.reshape(-1), rows_out.reshape(-1), indptr),
                          shape=(num_angles * num_bins, n))
    matrix.eliminate_zeros()
    return _matrix_operator(matrix, f"radon({num_angles}x{num_bins})", matrix)


# ---------------------------------------------------------------------------
# Haar wavelet transform
# ---------------------------------------------------------------------------


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _haar_step(side: int, m: int) -> sp.csr_array:
    """One unnormalised Haar step on the first m of ``side`` entries.

    Pair sums e_2k + e_2k+1 fill rows 0..m/2-1 and pair differences
    e_2k - e_2k+1 rows m/2..m-1; rows from m on are zero.
    """
    k = np.arange(m // 2)
    rows = np.concatenate([k, k, k + m // 2, k + m // 2])
    cols = np.concatenate([2 * k, 2 * k + 1, 2 * k, 2 * k + 1])
    vals = np.repeat([1.0, 1.0, 1.0, -1.0], m // 2)
    return sp.csr_array((vals, (rows, cols)), shape=(side, side))


def haar_transform(grid: Grid, levels: int | None = None) -> LinearOperator:
    """Orthonormal Haar analysis operator; the adjoint is the synthesis.

    Requires every grid side to be a power of two. Coefficient layout:
    final approximation block first, then detail blocks from coarsest to
    finest (2D: LH, HL, HH per level). The operator is one CSC matrix,
    the product of one factor per level: level l maps the top-left block
    of sides ``side >> l`` by the Kronecker product of the 1-D steps,
    scaled by 2^(-dim/2), and leaves every entry outside it unchanged.
    """
    sides = grid.shape
    for s in sides:
        if not _is_pow2(s):
            raise ValueError(f"grid side {s} is not a power of two")
    max_levels = int(min(np.log2(s) for s in sides))
    if levels is None:
        levels = max_levels
    levels = int(levels)
    if not 1 <= levels <= max_levels:
        raise ValueError(f"levels must be in [1, {max_levels}], got {levels}")
    n = grid.size
    scale = 2.0 ** (-grid.dim / 2)  # exactly 0.5 in 2D
    matrix = sp.diags_array(np.ones(n), format="csr")  # the identity
    for level in range(levels):
        blocks = [s >> level for s in sides]
        step = reduce(sp.kron,
                      [_haar_step(s, b) for s, b in zip(sides, blocks)])
        inside = reduce(np.multiply.outer,
                        [np.arange(s) < b for s, b in zip(sides, blocks)])
        keep = sp.diags_array((~inside).reshape(-1).astype(float))
        matrix = (scale * step + keep) @ matrix
    matrix = sp.csc_array(matrix)
    matrix.eliminate_zeros()
    return _matrix_operator(matrix, f"haar(levels={levels})", matrix)


# ---------------------------------------------------------------------------
# restriction / measurement averaging
# ---------------------------------------------------------------------------


def cell_average_restriction(fine: Grid, coarse: Grid) -> LinearOperator:
    """Block cell averaging from a finer grid onto a coarser one.

    Each fine side must be an integer multiple of the matching coarse
    side; constants map to constants.
    """
    if fine.dim != coarse.dim:
        raise ValueError("grids must have the same dimension")
    factors = []
    for nf, nc in zip(fine.shape, coarse.shape):
        if nf % nc != 0:
            raise ValueError(f"fine side {nf} not divisible by coarse side {nc}")
        factors.append(nf // nc)
    # each fine axis split into (coarse cell, offset in the cell)
    split = tuple(x for pair in zip(coarse.shape, factors) for x in pair)
    cells = tuple(x for c in coarse.shape for x in (c, 1))
    offsets = tuple(range(1 - 2 * fine.dim, 0, 2))
    cell_size = int(np.prod(factors))

    def apply(u: np.ndarray) -> np.ndarray:
        lead = u.shape[:-1]
        return u.reshape(lead + split).mean(axis=offsets).reshape(lead + (-1,))

    def adjoint_apply(v: np.ndarray) -> np.ndarray:
        lead = v.shape[:-1]
        img = v.reshape(lead + cells) / cell_size
        return np.broadcast_to(img, lead + split).copy().reshape(
            lead + (fine.size,))

    return LinearOperator(fine.size, coarse.size, apply, adjoint_apply,
                          "cell_average")


def interval_average_1d(fine: Grid, num_intervals: int) -> LinearOperator:
    """Averages of a 1D signal over equidistant intervals (CCD-style pixels).

    Unlike :func:`cell_average_restriction` the interval count need not
    divide the grid size; overlaps are weighted by intersection length.
    The operator is assembled as one sparse matrix.
    """
    if fine.dim != 1:
        raise ValueError("interval_average_1d requires a 1D grid")
    if num_intervals <= 0:
        raise ValueError("need at least one interval")
    n = fine.shape[0]
    h = 1.0 / n
    width = 1.0 / num_intervals
    # overlap of cell i = [i h, (i+1) h) with interval j = [j w, (j+1) w)
    edges = np.arange(n + 1) * h
    rows, cols, vals = [], [], []
    for j in range(num_intervals):
        lo, hi = j * width, (j + 1) * width
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        i = np.flatnonzero(overlap > 0.0)
        rows.append(np.full(i.size, j))
        cols.append(i)
        vals.append(overlap[i] / width)
    matrix = sp.csc_array((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(num_intervals, n))
    return _matrix_operator(matrix, f"interval_average({num_intervals})",
                            matrix)
