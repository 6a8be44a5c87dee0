"""Correctness checks computed by the benchmark's own code.

Nothing here calls into bregbayes: the forward operators the checks need
are assembled from their definitions (the reflective Gaussian blur as a
Kronecker product of 1-D matrices, the pyramid Haar transform from
per-level matrices, the interval-average matrix from cell overlaps), and
the program's files are read with readers written to the documented
formats. Each checker returns a list of failure messages; an empty list
is a pass.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# relative cutoff below which a coefficient counts as zero; the MAP solver
# documents the same cutoff for its own optimality residual
ZERO_RTOL = 1e-6
# largest allowed subdifferential violation, in units of the prior weight
KKT_TOL = 1e-3


# ---------------------------------------------------------------------------
# readers for the program's files
# ---------------------------------------------------------------------------


def read_signal_csv(path) -> np.ndarray:
    """Values of a signal CSV: 'rows,cols' header, dimensions, one value a line."""
    lines = Path(path).read_text().split()
    if not lines or lines[0] != "rows,cols":
        raise ValueError(f"{path}: missing rows,cols header")
    rows, cols = (int(t) for t in lines[1].split(","))
    values = np.array([float(t) for t in lines[2:]])
    if values.size != rows * cols:
        raise ValueError(f"{path}: {values.size} values for {rows}x{cols}")
    return values


_CHAIN_MAGIC = b"BBCHAIN1"
_CHAIN_HEADER = struct.Struct("<IQQ")


def read_bbchain(path) -> tuple[np.ndarray, int]:
    """(samples of shape (count, dim), seed) from a BBCHAIN1 file."""
    raw = Path(path).read_bytes()
    if raw[:8] != _CHAIN_MAGIC:
        raise ValueError(f"{path}: not a BBCHAIN1 file")
    dim, count, seed = _CHAIN_HEADER.unpack_from(raw, 8)
    body = raw[8 + _CHAIN_HEADER.size:]
    if len(body) != 8 * dim * count:
        raise ValueError(f"{path}: {len(body)} payload bytes for "
                         f"{count} x {dim} doubles")
    return np.frombuffer(body, dtype="<f8").reshape(count, dim).copy(), seed


def read_meta(path) -> dict:
    """key = value lines of a chain's .meta sidecar."""
    meta = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            meta[key.strip()] = value.strip()
    return meta


# ---------------------------------------------------------------------------
# independently assembled operators
# ---------------------------------------------------------------------------


def reflective_blur_1d(n: int, sigma: float, h: float) -> sp.csr_matrix:
    """Gaussian smoothing truncated at 4 sigma, renormalised, half-sample
    symmetric (reflective) boundary, as an n x n sparse matrix."""
    radius = max(1, math.ceil(4.0 * sigma / h))
    if radius >= n:
        raise ValueError("kernel wider than the grid")
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 * (offsets * h / sigma) ** 2)
    weights /= weights.sum()
    rows = np.repeat(np.arange(n), offsets.size)
    cols = (np.arange(n)[:, None] + offsets[None, :]).reshape(-1)
    cols = np.where(cols < 0, -cols - 1, cols)
    cols = np.where(cols >= n, 2 * n - cols - 1, cols)
    vals = np.tile(weights, n)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def blur_matrix(rows: int, cols: int, sigma: float) -> sp.csr_matrix:
    """2-D reflective blur on the unit square, row-major pixel order."""
    return sp.kron(reflective_blur_1d(rows, sigma, 1.0 / rows),
                   reflective_blur_1d(cols, sigma, 1.0 / cols)).tocsr()


def _haar_step_matrix(r: int) -> np.ndarray:
    """One level of the 1-D orthonormal Haar transform on r samples:
    pair averages on top, pair differences below."""
    half = r // 2
    step = np.zeros((r, r))
    idx = np.arange(half)
    s = 1.0 / math.sqrt(2.0)
    step[idx, 2 * idx] = s
    step[idx, 2 * idx + 1] = s
    step[half + idx, 2 * idx] = s
    step[half + idx, 2 * idx + 1] = -s
    return step


def haar_levels(side: int) -> int:
    levels = int(round(math.log2(side)))
    if 1 << levels != side:
        raise ValueError(f"side {side} is not a power of two")
    return levels


def haar2d(u: np.ndarray, side: int, inverse: bool = False) -> np.ndarray:
    """Full-depth pyramid 2-D Haar transform of a side x side image.

    Each level transforms the rows and columns of the current
    approximation block; the transform is orthonormal, so the inverse is
    the transpose.
    """
    levels = haar_levels(side)
    img = np.array(u, dtype=np.float64).reshape(side, side)
    sizes = [side >> k for k in range(levels)]
    for r in (reversed(sizes) if inverse else sizes):
        step = _haar_step_matrix(r)
        if inverse:
            img[:r, :r] = step.T @ img[:r, :r] @ step
        else:
            img[:r, :r] = step @ img[:r, :r] @ step.T
    return img.reshape(-1)


def interval_average_matrix(n: int, m: int) -> np.ndarray:
    """Averages of an n-cell signal on [0, 1] over m equal intervals."""
    cell_lo = np.arange(n) / n
    cell_hi = np.arange(1, n + 1) / n
    int_lo = np.arange(m)[:, None] / m
    int_hi = np.arange(1, m + 1)[:, None] / m
    overlap = np.minimum(cell_hi, int_hi) - np.maximum(cell_lo, int_lo)
    return np.clip(overlap, 0.0, None) * m


# ---------------------------------------------------------------------------
# optimality (KKT) conditions
# ---------------------------------------------------------------------------


def box_violation(eta: np.ndarray, coef: np.ndarray, w) -> float:
    """Distance of eta from the weighted sign subdifferential at coef."""
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), coef.shape)
    top = float(np.abs(coef).max(initial=0.0))
    zero = np.abs(coef) <= ZERO_RTOL * max(top, 1e-300)
    viol = np.where(zero, np.maximum(np.abs(eta) - w, 0.0),
                    np.abs(eta - w * np.sign(coef)))
    return float(viol.max(initial=0.0))


def kkt_l1(k_apply, k_adjoint, prec, f, u, lam) -> float:
    """Violation of K^T P (f - K u) in lam * d|u|_1, in units of lam."""
    grad = k_adjoint(prec * (f - k_apply(u)))
    return box_violation(grad / lam, u, 1.0)


def kkt_haar_l1(k_apply, k_adjoint, prec, f, u, lam, weights, side) -> float:
    """Violation of K^T P (f - K u) in lam * d(sum_j w_j |(W u)_j|).

    W is orthonormal, so the condition reads in coefficient space:
    W K^T P (f - K u) / lam lies in the weighted sign set of W u.
    """
    grad = k_adjoint(prec * (f - k_apply(u)))
    return box_violation(haar2d(grad, side) / lam, haar2d(u, side), weights)


def kkt_tv(amat, prec, f, u, lam) -> float:
    """Violation of A^T P (f - A u) in lam * D^T (sign set of D u).

    D^T z = p fixes z_i = -(p_0 + ... + p_i) and needs sum(p) = 0.
    """
    p = amat.T @ (prec * (f - amat @ u)) / lam
    z = -np.cumsum(p)[:-1]
    return max(abs(float(p.sum())), box_violation(z, np.diff(u), 1.0))


def posterior_energy(k_apply, prec, f, lam, prior_energy, u) -> float:
    r = f - k_apply(u)
    return 0.5 * float(r @ (prec * r)) + lam * prior_energy(u)


def energy_order(energy, map_est, others) -> list[str]:
    """The posterior energy at the MAP is no higher than at any other point."""
    e_map = energy(map_est)
    worse = [j for j, v in enumerate(others) if energy(v) < e_map]
    if worse:
        return [f"energy at {len(worse)} point(s) below the MAP's "
                f"(first index {worse[0]})"]
    return []


def tv(u: np.ndarray) -> float:
    return float(np.abs(np.diff(u)).sum())


# ---------------------------------------------------------------------------
# Monte Carlo comparison of Bayes costs
# ---------------------------------------------------------------------------


def batch_means_stderr(x: np.ndarray, n_batches: int = 20) -> float:
    """Standard error of the mean of a correlated series by batch means."""
    if x.size < n_batches:
        raise ValueError(f"need at least {n_batches} values")
    size = x.size // n_batches
    means = x[: n_batches * size].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def l1_bregman_costs(kmat, prec, lam, samples, uhat) -> np.ndarray:
    """||K (uhat - u)||^2_P + 2 lam D(uhat, u) for every sample u (rows),
    with J = |.|_1 and the subgradient sign(u) at the sample."""
    diff = uhat[None, :] - samples
    kd = (kmat @ diff.T).T
    data = np.einsum("ij,ij->i", kd, kd * prec[None, :])
    q = np.sign(samples)
    breg = np.abs(uhat).sum() - np.abs(samples).sum(axis=1) - (diff * q).sum(axis=1)
    return data + 2.0 * lam * breg


def map_cost_not_above_cm(kmat, prec, lam, samples, map_est, cm_est) -> list[str]:
    """The MAP's Bregman Bayes cost is below the CM's within 3 paired
    batch-means standard errors."""
    gap = (l1_bregman_costs(kmat, prec, lam, samples, map_est)
           - l1_bregman_costs(kmat, prec, lam, samples, cm_est))
    se = batch_means_stderr(gap)
    if float(gap.mean()) > 3.0 * se:
        return [f"MAP Bregman cost exceeds the CM's by {gap.mean():.4g} "
                f"(3 stderr = {3 * se:.4g})"]
    return []
