import math

import numpy as np
import pytest
import scipy.sparse as sp

from bregbayes.grids import grid1d, grid2d
from bregbayes.operators import (adjoint_probe_error, cell_average_restriction,
                                 from_matrix, gaussian_blur, haar_transform,
                                 identity, interval_average_1d, radon,
                                 sparse_columns)
from bregbayes.priors import forward_differences

RNG = np.random.default_rng(20240811)


def _dense(op):
    a = np.zeros((op.out_dim, op.in_dim))
    e = np.zeros(op.in_dim)
    for i in range(op.in_dim):
        e[i] = 1.0
        a[:, i] = op.apply(e)
        e[i] = 0.0
    return a


def _all_test_operators():
    return [
        gaussian_blur(grid1d(33), 0.05),
        gaussian_blur(grid2d(12, 12), 0.04),
        radon(grid2d(16, 16), 7, 23),
        haar_transform(grid1d(16)),
        haar_transform(grid2d(8, 8)),
        haar_transform(grid2d(16, 16), levels=2),
        cell_average_restriction(grid1d(12), grid1d(4)),
        cell_average_restriction(grid2d(8, 12), grid2d(4, 3)),
        interval_average_1d(grid1d(13), 5),
        identity(6),
    ]


@pytest.mark.parametrize("op", _all_test_operators(), ids=lambda o: o.name)
def test_adjoint_probes(op):
    assert adjoint_probe_error(op, RNG, n_probes=20) < 1e-10


# -- blocks of vectors -------------------------------------------------------


def _stacked(fn, block):
    return np.array([fn(row) for row in block])


@pytest.mark.parametrize("op", _all_test_operators() + [forward_differences(9)],
                         ids=lambda o: o.name)
def test_block_apply_is_the_stacked_vector_apply_bitwise(op):
    for fn, dim in ((op.apply, op.in_dim), (op.adjoint_apply, op.out_dim)):
        block = RNG.standard_normal((5, dim))
        out = np.ascontiguousarray(fn(block))
        np.testing.assert_array_equal(out.view(np.uint64),
                                      _stacked(fn, block).view(np.uint64))


def test_dense_matrix_block_apply_matches_the_stacked_vector_apply():
    # a block is one matrix-matrix product, which may round differently
    op = from_matrix(RNG.standard_normal((7, 11)))
    for fn, dim in ((op.apply, 11), (op.adjoint_apply, 7)):
        block = RNG.standard_normal((5, dim))
        ref = _stacked(fn, block)
        assert np.abs(fn(block) - ref).max() <= 1e-13 * np.abs(ref).max()


# -- gaussian blur -----------------------------------------------------------

def test_blur_preserves_constants():
    for grid in (grid1d(40), grid2d(9, 9)):
        op = gaussian_blur(grid, 0.03)
        out = op.apply(np.full(grid.size, 3.25))
        np.testing.assert_allclose(out, 3.25, atol=1e-12)


def test_blur_delta_gives_normalized_kernel():
    n = 101
    op = gaussian_blur(grid1d(n), 0.05)
    e = np.zeros(n)
    e[n // 2] = 1.0
    out = op.apply(e)
    assert abs(out.sum() - 1.0) < 1e-12
    # profile matches a sampled, truncated, renormalized Gaussian
    h = 1.0 / n
    r = int(np.ceil(4 * 0.05 / h))
    x = np.arange(-r, r + 1) * h
    k = np.exp(-0.5 * (x / 0.05) ** 2)
    k /= k.sum()
    np.testing.assert_allclose(out[n // 2 - r: n // 2 + r + 1], k, atol=1e-14)
    # argmax at the delta, symmetric decay
    assert out.argmax() == n // 2


def _blur_reference(u, shape, sigma):
    """The blur by explicit kernel sums over the symmetrically padded signal,
    one axis after the other; np.pad folds a kernel wider than the grid
    repeatedly."""
    img = u.reshape(u.shape[:-1] + shape)
    for axis, n in enumerate(shape, start=u.ndim - 1):
        h = 1.0 / n
        r = max(1, math.ceil(4 * sigma / h))
        k = np.exp(-0.5 * (np.arange(-r, r + 1) * h / sigma) ** 2)
        k /= k.sum()
        pad = [(0, 0)] * img.ndim
        pad[axis] = (r, r)
        padded = np.pad(img, pad, mode="symmetric")
        img = sum(k[m] * np.take(padded, np.arange(n) + m, axis=axis)
                  for m in range(2 * r + 1))
    return img.reshape(u.shape)


@pytest.mark.parametrize("grid, sigma", [
    (grid1d(33), 0.05), (grid2d(12, 12), 0.04), (grid2d(10, 14), 0.06),
    (grid1d(5), 0.4),  # radius 8 > side 5: the kernel folds repeatedly
], ids=["1d33", "12x12", "10x14", "1d5-wide-kernel"])
def test_blur_matches_the_padded_kernel_sum_reference(grid, sigma):
    op = gaussian_blur(grid, sigma)
    for u in (RNG.standard_normal(grid.size),
              RNG.standard_normal((3, grid.size))):
        ref = _blur_reference(u, grid.shape, sigma)
        assert np.abs(op.apply(u) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_blur_self_adjoint_and_linf_contraction():
    # symmetric bit for bit, also where the kernel folds more than once
    for grid, sigma in ((grid2d(10, 10), 0.06), (grid1d(8), 0.3),
                        (grid2d(6, 10), 0.3)):
        op = gaussian_blur(grid, sigma)
        a = _dense(op)
        np.testing.assert_array_equal(a, a.T)
        for _ in range(10):
            u = RNG.standard_normal(op.in_dim)
            assert np.abs(op.apply(u)).max() <= np.abs(u).max() + 1e-12


def test_blur_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_blur(grid1d(8), 0.0)


# -- radon -------------------------------------------------------------------

def test_radon_zero_image():
    op = radon(grid2d(8, 8), 4, 11)
    np.testing.assert_array_equal(op.apply(np.zeros(64)), np.zeros(44))


def test_radon_center_delta_hits_central_bins():
    n, bins, angles = 17, 25, 6
    op = radon(grid2d(n, n), angles, bins)
    u = np.zeros(n * n)
    u[(n // 2) * n + n // 2] = 1.0  # center pixel, s = 0 for every angle
    sino = op.apply(u).reshape(angles, bins)
    for k in range(angles):
        row = sino[k]
        nz = np.nonzero(row)[0]
        # center of an odd number of bins; mass within the middle two bins
        assert set(nz).issubset({bins // 2, bins // 2 - 1, bins // 2 + 1})
        assert abs(row.sum() - (1.0 / n) ** 2) < 1e-14


def test_radon_mass_conservation_disk():
    n = 32
    g = grid2d(n, n)
    xs = (np.arange(n) + 0.5) / n
    xg, yg = np.meshgrid(xs, xs)
    disk = ((xg - 0.5) ** 2 + (yg - 0.5) ** 2 <= 0.3**2).astype(float).reshape(-1)
    op = radon(g, 9, 47)
    sino = op.apply(disk).reshape(9, 47)
    mass = disk.sum() * (1.0 / n) ** 2
    for k in range(9):
        assert abs(sino[k].sum() - mass) <= 0.02 * mass


def _radon_reference(side, num_angles, num_bins):
    """Dense Radon matrix on the unit square, one pixel at a time.

    Each pixel's area goes to the two bins bracketing the projection of
    its center, split linearly; a bin off the detector gets nothing.
    """
    h = 1.0 / side
    s_max = math.sqrt(2.0) / 2.0
    ds = 2.0 * s_max / num_bins
    ref = np.zeros((num_angles * num_bins, side * side))
    for k in range(num_angles):
        theta = k * math.pi / num_angles
        for r in range(side):
            for c in range(side):
                x = (c + 0.5) * h - 0.5
                y = (r + 0.5) * h - 0.5
                t = (x * math.cos(theta) + y * math.sin(theta) + s_max) / ds - 0.5
                b = math.floor(t)
                for bin_, w in ((b, 1.0 - (t - b)), (b + 1, t - b)):
                    if 0 <= bin_ < num_bins:
                        ref[k * num_bins + bin_, r * side + c] += w * h * h
    return ref


@pytest.mark.parametrize("bins", [13, 5])
def test_radon_matches_pixel_loop_reference(bins):
    side, angles = 8, 5
    op = radon(grid2d(side, side), angles, bins)
    ref = _radon_reference(side, angles, bins)
    assert op.matrix is not None and op.matrix.shape == ref.shape
    for _ in range(5):
        u = RNG.standard_normal(side * side)
        v = RNG.standard_normal(angles * bins)
        np.testing.assert_allclose(op.apply(u), ref @ u, rtol=0, atol=1e-14)
        np.testing.assert_allclose(op.adjoint_apply(v), ref.T @ v,
                                   rtol=0, atol=1e-14)
    # the detector spans the grid's diagonal, so with 13 bins every pixel
    # lands on it and each angle keeps the image mass; 5 bins are narrower
    # than a pixel's projection, so corner deposits fall off
    u = RNG.uniform(0.0, 1.0, side * side)
    mass = u.sum() / side**2
    sino = op.apply(u).reshape(angles, bins).sum(axis=1)
    if bins == 13:
        np.testing.assert_allclose(sino, mass, rtol=1e-14)
    else:
        assert ref.reshape(angles, bins, -1).sum(axis=1).min() < 0.99 / side**2
        assert np.all(sino <= mass * (1 + 1e-14)) and sino.min() < mass


@pytest.mark.parametrize("op", [
    radon(grid2d(8, 8), 5, 13),
    gaussian_blur(grid2d(12, 12), 0.04),
    gaussian_blur(grid2d(10, 6), 0.06),
    gaussian_blur(grid1d(8), 0.3),  # kernel radius 10 > side: folds twice
    interval_average_1d(grid1d(13), 5),
    interval_average_1d(grid1d(255), 30),
    haar_transform(grid2d(16, 8), levels=2),
    from_matrix(np.random.default_rng(5).standard_normal((3, 5))),
], ids=["radon8x8", "blur12x12", "blur10x6", "blur1d-long-kernel", "avg13",
        "avg255", "haar16x8", "matrix3x5"])
def test_sparse_columns_match_the_dense_operator(op):
    csc = sparse_columns(op)
    dense = _dense(op)
    assert isinstance(csc, sp.csc_array) and csc.shape == dense.shape
    # rows sorted within each column and no stored zeros: the support is
    # the dense operator's nonzeros in column-major order
    col, row = np.nonzero(dense.T)
    np.testing.assert_array_equal(csc.indptr,
                                  np.searchsorted(col, np.arange(op.in_dim + 1)))
    np.testing.assert_array_equal(csc.indices, row)
    # every operator, the blur too, multiplies by exactly these entries
    np.testing.assert_array_equal(csc.data, dense.T[col, row])


def test_sparse_columns_refuses_an_operator_without_structure():
    with pytest.raises(ValueError, match="no column structure"):
        sparse_columns(cell_average_restriction(grid1d(12), grid1d(4)))


@pytest.mark.parametrize("grid", [grid2d(32, 32), grid2d(64, 48), grid1d(100)],
                         ids=["32x32", "64x48", "1d"])
def test_blur_dct_eigenvalues_reproduce_the_blur(grid):
    from scipy.fft import dctn, idctn

    op = gaussian_blur(grid, 0.03)
    s = op.dct_eigenvalues
    assert s.shape == grid.shape
    rng = np.random.default_rng(44)
    for _ in range(3):
        u = rng.standard_normal(grid.size)
        via_dct = idctn(s * dctn(u.reshape(grid.shape), norm="ortho"),
                        norm="ortho").reshape(-1)
        np.testing.assert_allclose(via_dct, op.apply(u), rtol=0, atol=1e-13)


def test_blur_wider_than_the_grid_has_no_dct_eigenvalues():
    # the radius is ceil(4 sigma side) on the unit interval: 8 at side 8
    # and sigma 0.25, 7 at sigma 0.2; on 32 x 4 only the short side is
    # too small (26 < 32, 4 >= 4)
    assert gaussian_blur(grid1d(8), 0.25).dct_eigenvalues is None
    assert gaussian_blur(grid1d(8), 0.2).dct_eigenvalues is not None
    assert gaussian_blur(grid2d(8, 8), 0.3).dct_eigenvalues is None
    assert gaussian_blur(grid2d(32, 4), 0.2).dct_eigenvalues is None


def test_radon_validation():
    with pytest.raises(ValueError):
        radon(grid1d(8), 4, 4)
    with pytest.raises(ValueError):
        radon(grid2d(8, 8), 0, 4)


# -- haar --------------------------------------------------------------------

def test_haar_constant_vector():
    op = haar_transform(grid1d(4))
    np.testing.assert_allclose(op.apply(np.ones(4)), [2, 0, 0, 0], atol=1e-14)


def test_haar_matches_dense_orthonormal_matrix():
    op = haar_transform(grid1d(8))
    w = _dense(op)
    np.testing.assert_allclose(w @ w.T, np.eye(8), atol=1e-12)
    np.testing.assert_allclose(w.T @ w, np.eye(8), atol=1e-12)


def test_haar_isometry_and_inversion():
    for op in (haar_transform(grid1d(32)), haar_transform(grid2d(16, 16))):
        for _ in range(5):
            u = RNG.standard_normal(op.in_dim)
            c = op.apply(u)
            assert abs(np.linalg.norm(c) - np.linalg.norm(u)) < 1e-12
            np.testing.assert_allclose(op.adjoint_apply(c), u, atol=1e-12)
            # W (W^T c) = c
            np.testing.assert_allclose(op.apply(op.adjoint_apply(c)), c, atol=1e-12)


def test_haar_2d_constant_image_single_coefficient():
    n = 8
    op = haar_transform(grid2d(n, n))
    c = op.apply(np.full(n * n, 2.0))
    assert abs(c[0] - 2.0 * n) < 1e-12
    assert np.abs(c[1:]).max() < 1e-12


def _haar_loop(u, shape, levels, inverse=False):
    """Per-level loop reference: pair sums and differences over sqrt(2),
    last axis first, on the leading block of each level."""
    r2 = np.sqrt(2.0)
    img = np.array(u, dtype=float).reshape(shape)
    axes = list(reversed(range(img.ndim)))
    for lv in (reversed(range(levels)) if inverse else range(levels)):
        block = tuple(slice(s >> lv) for s in shape)
        for axis in (axes[::-1] if inverse else axes):
            b = np.moveaxis(img[block], axis, 0)
            m = b.shape[0] // 2
            out = np.empty_like(b)
            if inverse:
                out[0::2] = (b[:m] + b[m:]) / r2
                out[1::2] = (b[:m] - b[m:]) / r2
            else:
                out[:m] = (b[0::2] + b[1::2]) / r2
                out[m:] = (b[0::2] - b[1::2]) / r2
            img[block] = np.moveaxis(out, 0, axis)
    return img.reshape(-1)


@pytest.mark.parametrize("shape", [(16,), (8, 8), (16, 8)], ids=str)
def test_haar_matrix_matches_loop_reference(shape):
    grid = grid1d(*shape) if len(shape) == 1 else grid2d(*shape)
    for levels in range(1, int(np.log2(min(shape))) + 1):
        op = haar_transform(grid, levels)
        assert op.matrix is not None
        for _ in range(3):
            u = RNG.standard_normal(grid.size)
            forward = _haar_loop(u, shape, levels)
            inverse = _haar_loop(u, shape, levels, inverse=True)
            np.testing.assert_allclose(op.apply(u), forward, rtol=0, atol=1e-14)
            np.testing.assert_allclose(op.adjoint_apply(u), inverse, rtol=0,
                                       atol=1e-14)


def test_haar_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        haar_transform(grid1d(12))
    with pytest.raises(ValueError):
        haar_transform(grid1d(8), levels=4)


# -- restriction -------------------------------------------------------------

def test_restriction_preserves_constants():
    op = cell_average_restriction(grid2d(12, 12), grid2d(3, 3))
    np.testing.assert_allclose(op.apply(np.ones(144)), np.ones(9), atol=1e-14)


def test_restriction_arithmetic_means():
    op = cell_average_restriction(grid1d(4), grid1d(2))
    np.testing.assert_allclose(op.apply(np.array([1.0, 3, 5, 7])), [2.0, 6.0])


def test_restriction_linf_contraction():
    op = cell_average_restriction(grid1d(12), grid1d(3))
    for _ in range(10):
        u = RNG.standard_normal(12)
        assert np.abs(op.apply(u)).max() <= np.abs(u).max() + 1e-14


def test_restriction_rejects_non_divisible():
    with pytest.raises(ValueError):
        cell_average_restriction(grid1d(10), grid1d(4))


def test_interval_average_preserves_constants_and_rows_sum():
    op = interval_average_1d(grid1d(13), 5)
    np.testing.assert_allclose(op.apply(np.ones(13)), np.ones(5), atol=1e-14)
    # each row is a mean: weights sum to 1
    a = _dense(op)
    np.testing.assert_allclose(a.sum(axis=1), np.ones(5), atol=1e-13)


def test_interval_average_divisible_matches_block_mean():
    a = interval_average_1d(grid1d(12), 4)
    b = cell_average_restriction(grid1d(12), grid1d(4))
    u = RNG.standard_normal(12)
    np.testing.assert_allclose(a.apply(u), b.apply(u), atol=1e-13)

