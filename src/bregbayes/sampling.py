"""Posterior sampling for CM estimation and chain diagnostics.

Two samplers are provided:

* :func:`sample_gibbs` -- chromatic single-component Gibbs with exact
  piecewise-Gaussian conditionals. Works for the Gaussian, pixel domain
  l1, and 1D TV priors, whose single-coordinate conditionals have the
  form exp(-(a t^2 + b t) - sum_j c_j |t - d_j|). The coordinates are
  coloured once per posterior so that no two coordinates of one colour
  share a data row or a prior coupling; each sweep visits the colour
  classes in turn and draws all members of a class at once, which is
  exact Gibbs with a colour-by-colour scan order. A pixel-l1 class takes
  the closed-form two-piece draw :func:`_l1_draw` (one kink at 0), a TV
  class the closed-form three-piece draw :func:`_tv_draw` (two kinks, at
  the neighbours' values); the general piece table (:func:`_pg_table` +
  :func:`_pg_draw`) serves only Gaussian classes and
  :class:`PiecewiseGaussian1D`. A pixel-l1 or Gaussian class of one
  coordinate takes the same arithmetic on floats, a TV class of one
  :func:`_tv_draw` at B = 1: every draw is bit for bit the table's.
* :func:`sample_rwm` -- componentwise Gaussian-proposal Metropolis on the
  pixels, for the Besov prior (whose energy it scores on the Haar
  coefficients W u), the pixel l1 prior and the Gaussian prior with
  L = I. It scores a block of consecutive proposals from one state and
  commits the first accepted one, which leaves the chain that of the
  sequential scan.

RNG contract: NumPy PCG64 seeded with SeedSequence([seed, chain_index]),
so chains are bit-reproducible from (seed, method, options) and parallel
chains with distinct indices never share a stream. A chain depends on
nothing else, so ``experiments.sample_posterior`` runs a posterior's
chains in forked workers, one per usable CPU, and they are bit-identical
to a one-CPU run; where ``fork`` is missing they run in process. A Gibbs sweep draws
one ``rng.random((n, 2))`` block and coordinate i uses row i of it,
whatever the scan order. An RWM sweep draws one ``rng.standard_normal(n)``
and one ``rng.random(n)``, and coordinate i uses entry i of each.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .grids import Grid
from .model import Posterior
from .operators import sparse_columns


# ---------------------------------------------------------------------------
# exact piecewise-Gaussian 1D sampling
# ---------------------------------------------------------------------------


def _log_norm_cdf_diff(alpha, beta):
    """log(Phi(beta) - Phi(alpha)) for alpha <= beta, stable in both tails."""
    # work on the side where the CDF is small: flip pairs with a positive
    # sum (written so that (-inf, inf) compares False without a warning)
    flip = alpha > -beta
    a = np.where(flip, -beta, alpha)
    b = np.where(flip, -alpha, beta)
    la = log_ndtr(a)
    lb = log_ndtr(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = lb + np.log1p(-np.exp(np.minimum(la - lb, 0.0)))
    return np.where(np.isneginf(lb), -np.inf, out)


def _truncnorm_std(alpha, beta, u):
    """Standard-normal draw truncated to [alpha, beta] via log-space ppf."""
    flip = alpha > -beta
    a = np.where(flip, -beta, alpha)
    b = np.where(flip, -alpha, beta)
    u = np.where(flip, 1.0 - u, u)
    la = log_ndtr(a)
    lb = log_ndtr(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        span = -np.expm1(np.minimum(la - lb, 0.0))  # 1 - exp(la - lb)
        logp = lb + np.log1p(u * span - span)
    logp = np.minimum(logp, 0.0)
    x = ndtri_exp(np.where(np.isfinite(logp), logp, lb))
    x = np.clip(x, a, b)
    return np.where(flip, -x, x)


class _Pieces(NamedTuple):
    """Piece table of B densities, one row each (see :func:`_pg_table`)."""

    mu: np.ndarray  # (B, P) centre of the Gaussian on each piece
    sigma: np.ndarray  # (B, 1)
    lo: np.ndarray  # (B, P) piece p covers [lo, hi]
    hi: np.ndarray
    alpha: np.ndarray  # (B, P) standardised piece bounds
    beta: np.ndarray
    log_mass: np.ndarray  # (B, P) up to a constant per row


def _pg_table(a, b, c, d) -> _Pieces:
    """Pieces of exp(-(a t^2 + b t) - sum_j c_j |t - d_j|), B rows at once.

    ``a``, ``b`` have shape (B,) with a > 0; ``c``, ``d`` have shape (B, K):
    kink weights >= 0 and locations, sorted by location along each row.
    Rows with fewer kinks are padded with weight-0 kinks at the location
    of a real kink of the row; such a pad adds a piece of zero width and
    zero mass, so it changes no draw. Between kinks the density is a
    scaled Gaussian, which makes sampling exact.
    """
    zero = np.zeros((a.size, 1))
    left_c = np.concatenate([zero, np.cumsum(c, axis=1)], axis=1)
    left_cd = np.concatenate([zero, np.cumsum(c * d, axis=1)], axis=1)
    # on piece p, sum_j c_j |t - d_j| = slope_p * t + offset_p
    slope = 2.0 * left_c - left_c[:, -1:]
    offset = left_cd[:, -1:] - 2.0 * left_cd
    two_a = 2.0 * a[:, None]
    sigma = 1.0 / np.sqrt(two_a)
    mu = -(b[:, None] + slope) / two_a
    inf = np.full_like(zero, np.inf)
    lo = np.concatenate([-inf, d], axis=1)
    hi = np.concatenate([d, inf], axis=1)
    alpha = (lo - mu) / sigma
    beta = (hi - mu) / sigma
    log_mass = a[:, None] * mu * mu - offset + _log_norm_cdf_diff(alpha, beta)
    return _Pieces(mu, sigma, lo, hi, alpha, beta, log_mass)


def _pg_draw(pc: _Pieces, rows: np.ndarray, u1: np.ndarray,
             u2: np.ndarray) -> np.ndarray:
    """One exact draw from row ``rows[k]`` of the table for each k.

    u1 selects the piece by its mass, u2 the position within it.
    """
    w = np.exp(pc.log_mass - pc.log_mass.max(axis=1, keepdims=True))
    cum = np.cumsum(w, axis=1)[rows]
    last = cum.shape[1] - 1
    p = np.minimum((cum <= u1[:, None] * cum[:, -1:]).sum(axis=1), last)
    z = _truncnorm_std(pc.alpha[rows, p], pc.beta[rows, p], u2)
    t = pc.mu[rows, p] + pc.sigma[rows, 0] * z
    return np.clip(t, pc.lo[rows, p], pc.hi[rows, p])


class PiecewiseGaussian1D:
    """Density ~ exp(-(a t^2 + b t) - sum_j c_j |t - d_j|), a > 0.

    Between kinks the density is a scaled Gaussian, so sampling is exact:
    pick a piece by its mass, then draw a truncated normal by inverse
    CDF in log space. The piece table is the batched one with B = 1.
    """

    def __init__(self, a: float, b: float, kinks=()):
        if not np.isfinite(a) or a <= 0:
            raise ValueError(f"quadratic coefficient must be positive, got {a}")
        kinks = sorted(((float(c), float(d)) for c, d in kinks if c != 0.0),
                       key=lambda cd: cd[1])
        if any(c < 0 for c, _ in kinks):
            raise ValueError("kink weights must be nonnegative")
        c = np.array([[c for c, _ in kinks]]).reshape(1, -1)
        self.d = np.array([d for _, d in kinks])
        self.table = _pg_table(np.array([float(a)]), np.array([float(b)]), c,
                               self.d.reshape(1, -1))
        mass = np.exp(self.table.log_mass[0] - self.table.log_mass.max())
        self.cum_prob = np.cumsum(mass / mass.sum())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u1 = rng.random(size)
        u2 = rng.random(size)
        return _pg_draw(self.table, np.zeros(size, dtype=np.intp), u1, u2)

    def cdf(self, t):
        """Exact CDF, vectorized; used by the KS acceptance checks."""
        t = np.asarray(t, dtype=np.float64)
        pc = self.table
        mu, alpha, beta = pc.mu[0], pc.alpha[0], pc.beta[0]
        p = np.searchsorted(self.d, t)
        below = np.where(p > 0, self.cum_prob[np.maximum(p - 1, 0)], 0.0)
        width = self.cum_prob[p] - below
        z = np.clip((t - mu[p]) / pc.sigma[0, 0], alpha[p], beta[p])
        frac_num = _log_norm_cdf_diff(alpha[p], z)
        frac_den = _log_norm_cdf_diff(alpha[p], beta[p])
        with np.errstate(invalid="ignore"):
            frac = np.exp(frac_num - frac_den)
        frac = np.where(np.isfinite(frac), frac, 0.0)
        return np.clip(below + width * frac, 0.0, 1.0)


_SIDES = np.array([[-1.0], [1.0]])  # slope of |t| on t <= 0 and on t >= 0


def _l1_draw(a, b, lam, u1, u2) -> np.ndarray:
    """One exact draw from exp(-(a t^2 + b t) - lam |t|) per entry.

    The closed form of :func:`_pg_table` and :func:`_pg_draw` at a single
    kink at 0: two one-sided truncated Gaussians, t <= 0 and t >= 0. It
    keeps their arithmetic operation for operation, so the draws are
    bit-identical, without building a piece table. ``a``, ``b``, ``u1``
    and ``u2`` have shape (B,); ``lam`` is a scalar or has shape (B,).
    """
    two_a = 2.0 * a
    sigma = 1.0 / np.sqrt(two_a)
    mu = -(b + _SIDES * lam) / two_a  # (2, B) piece centres
    # the finite end of each piece, standardised and flipped where needed
    # so that the piece is (-inf, q] of a standard normal
    q = _SIDES * mu / sigma
    log_cdf = log_ndtr(q)
    log_mass = a * mu * mu + log_cdf
    w = np.exp(log_mass - np.maximum(log_mass[0], log_mass[1]))
    pos = w[0] <= u1 * (w[0] + w[1])  # the piece t >= 0
    lb = np.where(pos, log_cdf[1], log_cdf[0])
    u = np.where(pos, 1.0 - u2, u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.minimum(lb + np.log1p(u - 1.0), 0.0)
    x = ndtri_exp(np.where(np.isfinite(logp), logp, lb))
    # ties take q, then 0.0, explicitly: numpy does not document which of
    # two equal zeros of opposite sign np.minimum returns
    end = np.where(pos, q[1], q[0])
    x = np.where(x < end, x, end)
    t = np.where(pos, mu[1], mu[0]) + sigma * np.where(pos, -x, x)
    return np.where(np.where(pos, t > 0.0, t < 0.0), t, 0.0)


class _TvClass(NamedTuple):
    """Per-class constants of :func:`_tv_draw` (see :func:`_tv_class`)."""

    a: np.ndarray  # (B,)
    two_a: np.ndarray
    sigma: np.ndarray
    c: np.ndarray  # (2, B) weights of the lower and the upper kink
    slope: np.ndarray  # (3, B) slope of the kink terms on each piece
    at: np.ndarray  # (7, B) flat offsets into the piece table, piece 0


# Row groups of the (19, B) table that _tv_draw fills. A group holds one
# row per piece (piece p of group g is row g + p), so one gather at the
# offsets _TvClass.at + p B reads every group of the chosen piece p:
#   _HI, _LO  the piece as [lo, hi] of a standard normal, flipped where
#             _truncnorm_std flips it (lo = -inf on the outer pieces)
#   _LB, _LA  log_ndtr of hi and of lo
#   _MU       the centre of the piece's Gaussian
#   _EDGE     -inf, d1, d2, inf (4 rows): piece p is [edge p, edge p + 1]
_HI, _LO, _LB, _LA, _MU, _EDGE = 0, 3, 6, 9, 12, 15
_TV_GATHER = np.array([_HI, _LO, _LB, _LA, _MU, _EDGE, _EDGE + 1])


def _tv_class(a, c1, c2) -> _TvClass:
    """Constants of one colour class for :func:`_tv_draw`, built once.

    The slopes are those of :func:`_pg_table` at two kinks, computed the
    same way: -T, 2 c1 - T and T with T = c1 + c2.
    """
    total = c1 + c2
    slope = np.stack([0.0 - total, 2.0 * c1 - total, 2.0 * total - total])
    two_a = 2.0 * a
    size = a.size
    at = _TV_GATHER[:, None] * size + np.arange(size)
    return _TvClass(a, two_a, 1.0 / np.sqrt(two_a), np.stack([c1, c2]),
                    slope, at)


def _tv_draw(k: _TvClass, b, nb, u1, u2) -> np.ndarray:
    """One exact draw from exp(-(a t^2 + b t) - c1|t - d1| - c2|t - d2|).

    The closed form of :func:`_pg_table` and :func:`_pg_draw` at two kinks:
    three pieces, (-inf, d1], [d1, d2] and [d2, inf). ``nb`` (2, B) holds
    the two neighbour values in either order, d1 <= d2 the sorted pair; c1
    weights d1 and c2 weights d2 (see :func:`_tv_class`), and a weight of
    0 marks a missing end neighbour, whose pad sits at the other kink.
    ``b``, ``u1`` and ``u2`` have shape (B,). It keeps the table's
    arithmetic operation for operation, so the draws are bit-identical,
    but builds no piece table: the middle piece's flip and log CDFs serve
    both its mass and its truncated normal, and one gather reads the
    chosen piece.
    """
    size = b.size
    tab = np.empty((19, size))
    edge = tab[_EDGE:_EDGE + 4]
    edge[0] = -np.inf
    np.minimum(nb[0], nb[1], out=edge[1])
    np.maximum(nb[0], nb[1], out=edge[2])
    edge[3] = np.inf
    d = edge[1:3]
    mu = tab[_MU:_MU + 3]
    np.divide(-(b + k.slope), k.two_a, out=mu)
    z = (d[:, None] - mu) / k.sigma  # z[i, j] = (d_i - mu_j) / sigma
    # piece 0 is (-inf, beta_0], piece 2 flipped is (-inf, -alpha_2], and
    # the middle piece is flipped where _log_norm_cdf_diff flips it
    flip = z[0, 1] > -z[1, 1]
    tab[_HI] = z[0, 0]
    np.negative(z[1, 2], out=tab[_HI + 2])
    tab[_LO:_LO + 3:2] = -np.inf
    bounds_1 = tab[_LO + 1:_HI:-3]  # rows lo_1, hi_1
    np.copyto(bounds_1, z[:, 1])
    np.negative(z[::-1, 1], out=bounds_1, where=flip)
    with np.errstate(invalid="ignore", divide="ignore"):
        log_ndtr(tab[_HI:_LO + 3], out=tab[_LB:_LA + 3])
        lb_1, la_1 = tab[_LB + 1], tab[_LA + 1]
        cdf_1 = lb_1 + np.log1p(-np.exp(np.minimum(la_1 - lb_1, 0.0)))
        np.copyto(cdf_1, -np.inf, where=np.isneginf(lb_1))
        # offsets Tcd - 2 (0, c1 d1, Tcd) with Tcd = c1 d1 + c2 d2
        left_cd = np.zeros((3, size))
        np.multiply(k.c, d, out=left_cd[1:])
        left_cd[2] += left_cd[1]
        log_mass = k.a * mu * mu - (left_cd[2] - 2.0 * left_cd)
        log_mass[0] += tab[_LB]
        log_mass[1] += cdf_1
        log_mass[2] += tab[_LB + 2]
        w = np.exp(log_mass - log_mass.max(axis=0))
        cum_1 = w[0] + w[1]
        target = u1 * (cum_1 + w[2])
        p = np.add(w[0] <= target, cum_1 <= target, dtype=np.intp)
        flipped = p + flip >= 2  # piece 0 never flips, piece 2 always
        hi, lo, lb, la, mu_p, t_lo, t_hi = tab.ravel()[p * size + k.at]
        # _truncnorm_std on the chosen piece
        u = np.where(flipped, 1.0 - u2, u2)
        span = -np.expm1(np.minimum(la - lb, 0.0))
        logp = np.minimum(lb + np.log1p(u * span - span), 0.0)
        x = ndtri_exp(np.where(np.isfinite(logp), logp, lb))
    x = np.minimum(np.maximum(x, lo), hi)
    t = mu_p + k.sigma * np.where(flipped, -x, x)
    return np.minimum(np.maximum(t, t_lo), t_hi)


def _l1_draw_scalar(a: float, b: float, lam: float, u1: float,
                    u2: float) -> float:
    """:func:`_l1_draw` on Python floats, for a colour class of one
    coordinate: the same ufuncs on the same operands in the same order,
    and the same ties, so the draw is bit for bit ``_l1_draw``'s at B = 1.
    (A tie of the two log masses leaves the weights 1.0 whichever wins.)"""
    two_a = 2.0 * a
    sigma = 1.0 / math.sqrt(two_a)
    mu0, mu1 = -(b - lam) / two_a, -(b + lam) / two_a
    q0, q1 = -mu0 / sigma, mu1 / sigma
    cdf0, cdf1 = float(log_ndtr(q0)), float(log_ndtr(q1))
    m0, m1 = a * mu0 * mu0 + cdf0, a * mu1 * mu1 + cdf1
    top = m0 if m0 > m1 else m1
    w0, w1 = float(np.exp(m0 - top)), float(np.exp(m1 - top))
    pos = w0 <= u1 * (w0 + w1)  # the piece t >= 0
    lb, q, mu = (cdf1, q1, mu1) if pos else (cdf0, q0, mu0)
    v = (1.0 - u2 if pos else u2) - 1.0
    # log1p(-1) is -inf, and _l1_draw then takes ndtri_exp(lb)
    logp = lb + float(np.log1p(v)) if v > -1.0 else lb
    x = float(ndtri_exp(logp if logp < 0.0 else 0.0))
    x = x if x < q else q
    t = mu + sigma * (-x if pos else x)
    if pos:
        return t if t > 0.0 else 0.0
    return t if t < 0.0 else 0.0


def _gauss_draw_scalar(a: float, b: float, u2: float) -> float:
    """One exact draw from exp(-(a t^2 + b t)) on Python floats, for a
    colour class of one coordinate: the arithmetic of :func:`_pg_table`
    and :func:`_pg_draw` at no kink (b + 0.0 adds the table's slope), so
    bit for bit the table's draw."""
    two_a = 2.0 * a
    v = u2 - 1.0
    # log1p(-1) is -inf, and the table then takes ndtri_exp(0)
    x = float(ndtri_exp(float(np.log1p(v)) if v > -1.0 else 0.0))
    return -(b + 0.0) / two_a + 1.0 / math.sqrt(two_a) * x


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """Stored posterior samples (post burn-in, thinned) plus provenance."""

    samples: np.ndarray = field(repr=False)  # (n_samples, dim)
    seed: int
    burn_in: int
    thinning: int
    method: str
    grid: Optional[Grid] = None
    acceptance_rate: Optional[float] = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError("chain needs at least one sample")
        if not np.all(np.isfinite(s)):
            raise ValueError("chain contains non-finite samples")
        acc = self.acceptance_rate
        if (self.burn_in < 0 or self.thinning < 1
                or not (acc is None or 0.0 <= acc <= 1.0)):
            raise ValueError(f"chain needs burn_in >= 0, thinning >= 1 and "
                             f"an acceptance rate in [0, 1], got "
                             f"{self.burn_in}, {self.thinning}, {acc}")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ChainSummary:
    mean: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)  # componentwise, batch means
    n_samples: int


def batch_means_stderr(values: np.ndarray, n_batches: int = 20) -> np.ndarray:
    """Componentwise Monte Carlo standard error of the mean by batch means.

    ``values`` has one row per (correlated) sample; requires at least
    ``n_batches`` rows.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    m = values.shape[0]
    if m < n_batches:
        raise ValueError(f"need at least {n_batches} samples, got {m}")
    batch_len = m // n_batches
    used = values[: n_batches * batch_len]
    means = used.reshape(n_batches, batch_len, -1).mean(axis=1)
    return means.std(axis=0, ddof=1) / np.sqrt(n_batches)


def summarize(chain: Chain, n_batches: int = 20) -> ChainSummary:
    """CM estimate and its componentwise batch-means stderr."""
    if len(chain) < n_batches:
        raise ValueError(f"need at least {n_batches} samples to summarize")
    return ChainSummary(mean=chain.samples.mean(axis=0),
                        stderr=batch_means_stderr(chain.samples, n_batches),
                        n_samples=len(chain))


@dataclass(frozen=True)
class ChainDiscrepancy:
    sup: float
    rel_l2: float


def two_chain_discrepancy(a: Chain, b: Chain) -> ChainDiscrepancy:
    """Sup and relative l2 distance between two chains' mean estimates."""
    if a.dim != b.dim:
        raise ValueError("chains live on different grids")
    if a.grid is not None and b.grid is not None and a.grid != b.grid:
        raise ValueError("chains live on different grids")
    ma, mb = a.samples.mean(axis=0), b.samples.mean(axis=0)
    diff = ma - mb
    scale = max(np.linalg.norm(ma), np.linalg.norm(mb), 1e-300)
    return ChainDiscrepancy(float(np.abs(diff).max()),
                            float(np.linalg.norm(diff) / scale))


def _chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed),
                                                         int(chain_index)]))


# ---------------------------------------------------------------------------
# chromatic Gibbs
# ---------------------------------------------------------------------------


_GIBBS_PRIORS = ("gaussian", "l1", "tv1d")


@dataclass(frozen=True)
class GibbsLayout:
    """Colour classes of a posterior and its columns of K in scan order.

    Built once per posterior by :func:`gibbs_layout` and shared by its
    chains. Row j of the padded arrays holds column ``order[j]`` of K's
    CSC matrix (``sparse_columns``), and colour class k is
    ``order[bounds[k]:bounds[k + 1]]``, in index order. Columns are padded
    with value 0 at row ``out_dim``, a spare residual slot that stays 0.
    """

    order: np.ndarray = field(repr=False)  # (n,) coordinates in scan order
    bounds: np.ndarray = field(repr=False)  # (n_classes + 1,)
    rows: np.ndarray = field(repr=False)  # (n, width) data rows
    vals: np.ndarray = field(repr=False)  # (n, width) column values
    pvals: np.ndarray = field(repr=False)  # values weighted by the precision
    colnorm: np.ndarray = field(repr=False)  # (n,) ||K e_i||_P^2


def _greedy_colouring(csc, neighbours) -> np.ndarray:
    """Smallest free colour per coordinate, coordinates taken in index order.

    Two coordinates conflict when their columns share a data row, or when
    ``neighbours(i)`` lists the earlier one (a coupling through the prior).
    ``used[r]`` is the bitmask of colours whose columns touch data row r.
    """
    used = [0] * csc.shape[0]
    ptr = csc.indptr.tolist()
    colour: list[int] = []
    for i in range(csc.shape[1]):
        rows = csc.indices[ptr[i]:ptr[i + 1]].tolist()
        taken = reduce(or_, map(used.__getitem__, rows), 0)
        for j in neighbours(i):
            taken |= 1 << colour[j]
        k = (~taken & (taken + 1)).bit_length() - 1
        colour.append(k)
        bit = 1 << k
        for r in rows:
            used[r] |= bit
    return np.array(colour, dtype=np.intp)


def gibbs_layout(post: Posterior) -> GibbsLayout:
    """Colour the coordinates of ``post`` and pad the columns of K.

    Coordinates of one colour share no data row, no TV edge and no entry
    of L^T L, so their conditionals are independent given the rest.
    """
    prior = post.prior
    kind = prior.kind
    if kind not in _GIBBS_PRIORS:
        raise ValueError(f"sample_gibbs: unsupported prior structure "
                         f"'{kind}'")
    op = post.operator
    csc = sparse_columns(op)
    if kind == "tv1d":
        neighbours = lambda i: (i - 1,) if i > 0 else ()
    elif kind == "gaussian" and prior.l_matrix is not None:
        coupled = (prior.l_matrix.T @ prior.l_matrix) != 0.0
        neighbours = lambda i: np.flatnonzero(coupled[i, :i]).tolist()
    else:
        neighbours = lambda i: ()
    colour = _greedy_colouring(csc, neighbours)
    order = np.argsort(colour, kind="stable")
    bounds = np.searchsorted(colour[order], np.arange(colour.max() + 2))
    scan = csc[:, order]
    del csc  # a blur builds its matrix afresh: free it before padding
    ptr, r, v = scan.indptr, scan.indices, scan.data
    pv = v * post.noise.precision_diag[r]
    # one dot product per column, over its entries only: a padded row
    # would change the summation order
    colnorm = np.array([float(v[p0:p1] @ pv[p0:p1])
                        for p0, p1 in zip(ptr[:-1], ptr[1:])])
    counts = np.diff(ptr)
    mask = np.arange(counts.max()) < counts[:, None]
    rows = np.full(mask.shape, op.out_dim, dtype=np.intp)
    vals, pvals = np.zeros(mask.shape), np.zeros(mask.shape)
    rows[mask], vals[mask], pvals[mask] = r, v, pv
    if np.any(colnorm <= 0.0) and kind != "gaussian":
        raise ValueError("non-normalizable conditional: operator has a zero "
                         "column and the prior adds no curvature")
    return GibbsLayout(order, bounds, rows, vals, pvals, colnorm)


def sample_gibbs(post: Posterior, n_samples: int, burn_in: int = 0,
                 thinning: int = 1, seed: int = 0, chain_index: int = 0,
                 initial: Optional[np.ndarray] = None,
                 layout: Optional[GibbsLayout] = None) -> Chain:
    """Chromatic Gibbs with exact piecewise-Gaussian conditionals.

    Each sweep visits the colour classes of ``layout`` (built from
    ``post`` when not given) in turn and draws all members of a class from
    their exact conditionals at once; a pixel-l1 or Gaussian class of one
    coordinate takes the closed form on floats. One recorded sample per
    ``thinning`` sweeps after ``burn_in`` sweeps. Supported priors:
    Gaussian, pixel-domain l1, and 1D TV.
    """
    if n_samples < 1 or thinning < 1 or burn_in < 0:
        raise ValueError("bad chain sizing")
    if layout is None:
        layout = gibbs_layout(post)
    prior = post.prior
    kind = prior.kind
    lam = prior.lam
    rng = _chain_rng(seed, chain_index)
    n = post.dim
    op = post.operator
    f = post.data.values
    u = initial.copy() if initial is not None else np.zeros(n)
    rho = np.zeros(op.out_dim + 1)  # the last slot is the padding target
    rho[:-1] = f - op.apply(u)
    order = layout.order
    a_all = 0.5 * layout.colnorm
    l_mat = None
    if kind == "gaussian":
        # J = beta / (2 lam) ||L u||^2; with L = I it adds beta/2 to a only
        lc = lam * (prior.beta / (2.0 * lam))
        l_mat = prior.l_matrix
        if l_mat is None:
            a_all = a_all + lc
        else:
            lnorm = np.einsum("ij,ij->j", l_mat, l_mat)
            lw = l_mat @ u
            a_all = a_all + lc * lnorm[order]
    blocks = []
    for k0, k1 in zip(layout.bounds[:-1], layout.bounds[1:]):
        if k1 - k0 == 1 and kind != "tv1d":
            # a class of one coordinate: the closed form on floats
            blocks.append((True, int(order[k0]), k0, layout.rows[k0],
                           layout.vals[k0], layout.pvals[k0],
                           float(layout.colnorm[k0]), float(a_all[k0]), None))
            continue
        members = order[k0:k1]
        size = k1 - k0
        if kind == "l1":
            kinks = None  # the closed-form two-piece draw needs no table
        elif kind == "tv1d":
            # a coordinate at an end has one neighbour; its other kink is a
            # weight-0 pad at the same location
            neighbours = np.stack([
                np.where(members > 0, members - 1, members + 1),
                np.where(members < n - 1, members + 1, members - 1)])
            kinks = (_tv_class(a_all[k0:k1], np.where(members > 0, lam, 0.0),
                               np.where(members < n - 1, lam, 0.0)),
                     neighbours)
        else:
            kinks = (np.zeros((size, 0)), np.zeros((size, 0)))
        blocks.append((False, members, slice(k0, k1), layout.rows[k0:k1],
                       layout.vals[k0:k1], layout.pvals[k0:k1],
                       layout.colnorm[k0:k1], a_all[k0:k1], kinks))
    total_sweeps = burn_in + n_samples * thinning
    out = np.empty((n_samples, n))
    for sweep in range(total_sweeps):
        # row j holds the uniforms of coordinate order[j], so each class
        # reads a slice; coordinate i still takes row i of the drawn block
        uu = rng.random((n, 2))[order]
        u1_all, u2_all = uu[:, 0], uu[:, 1]
        for scalar, members, scan, idx, vals, pv, cn, a, kinks in blocks:
            if scalar:
                i = members
                ui = float(u[i])
                b = -(ui * cn + float(pv @ rho[idx]))
                if kind == "l1":
                    t = _l1_draw_scalar(a, b, lam, float(u1_all[scan]),
                                        float(u2_all[scan]))
                else:
                    if l_mat is not None:
                        b += 2.0 * lc * (float(l_mat[:, i] @ lw)
                                         - ui * lnorm[i])
                    t = _gauss_draw_scalar(a, b, float(u2_all[scan]))
                delta = t - ui
                if delta != 0.0:
                    rho[idx] -= delta * vals
                    if l_mat is not None:
                        lw += delta * l_mat[:, i]
                    u[i] = t
                continue
            ui = u[members]
            r = rho[idx]
            b = -(ui * cn + np.einsum("ij,ij->i", pv, r))
            if l_mat is not None:
                l_cols = l_mat[:, members]
                b += 2.0 * lc * (l_cols.T @ lw - ui * lnorm[members])
            u1, u2 = u1_all[scan], u2_all[scan]
            if kind == "l1":
                t = _l1_draw(a, b, lam, u1, u2)
            elif kind == "tv1d":
                tv, neighbours = kinks
                t = _tv_draw(tv, b, u[neighbours], u1, u2)
            else:
                t = _pg_draw(_pg_table(a, b, *kinks), np.arange(b.size), u1,
                             u2)
            delta = t - ui
            # members share no data row, so this indexed update is exact
            rho[idx] = r - delta[:, None] * vals
            if l_mat is not None:
                lw += l_cols @ delta
            u[members] = t
        if (sweep + 1) % 256 == 0:
            # recompute the cached residuals from scratch (guards float drift)
            rho[:-1] = f - op.apply(u)
            if l_mat is not None:
                lw = l_mat @ u
        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            out[(sweep - burn_in) // thinning] = u
    return Chain(out, seed=seed, burn_in=burn_in, thinning=thinning,
                 method="gibbs", grid=post.grid)


# ---------------------------------------------------------------------------
# random-walk Metropolis
# ---------------------------------------------------------------------------


# Proposals scored per block of the RWM scan (see :func:`sample_rwm`).
_RWM_BLOCK = 32


def _flat_columns(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of ``op`` as flat CSC arrays (ptr, rows, values).

    Each column ends in one zero entry at row 0, so no column is empty:
    ``np.add.reduceat`` returns the next element, not 0, for an empty
    segment, and raises when a segment starts at the end of its input.
    """
    csc = sparse_columns(op)
    ends = csc.indptr[1:]
    return (csc.indptr + np.arange(ends.size + 1),
            np.insert(csc.indices.astype(np.intp), ends, 0),
            np.insert(csc.data, ends, 0.0))


@dataclass(frozen=True)
class RwmLayout:
    """Columns of K (and of W for Besov) as flat CSC arrays, shared by chains.

    Column i of K is ``k_rows[k_ptr[i]:k_ptr[i + 1]]`` with values
    ``k_vals`` and precision-weighted values ``k_pvals``, its last entry a
    zero pad (see :func:`_flat_columns`). The ``w_*`` arrays hold the
    columns of the Besov transform the same way, and ``w_weights`` the
    prior weight of each entry's coefficient (None for other priors).
    """

    k_ptr: np.ndarray = field(repr=False)
    k_rows: np.ndarray = field(repr=False)
    k_vals: np.ndarray = field(repr=False)
    k_pvals: np.ndarray = field(repr=False)
    colnorm: np.ndarray = field(repr=False)  # (n,) ||K e_i||_P^2
    w_ptr: Optional[np.ndarray] = field(default=None, repr=False)
    w_rows: Optional[np.ndarray] = field(default=None, repr=False)
    w_vals: Optional[np.ndarray] = field(default=None, repr=False)
    w_weights: Optional[np.ndarray] = field(default=None, repr=False)


def rwm_layout(post: Posterior) -> RwmLayout:
    """Flat column arrays of ``post`` for :func:`sample_rwm`.

    RWM serves the Besov prior, the pixel l1 prior and the Gaussian prior
    with L = I; every other prior is refused.
    """
    prior = post.prior
    kind = prior.kind
    if not (kind in ("besov", "l1")
            or (kind == "gaussian" and prior.l_matrix is None)):
        raise ValueError(f"sample_rwm: unsupported prior '{kind}' (RWM serves "
                         f"Besov, pixel l1 and Gaussian with L = I)")
    ptr, rows, vals = _flat_columns(post.operator)
    pvals = vals * post.noise.precision_diag[rows]
    colnorm = np.array([float(vals[p0:p1] @ pvals[p0:p1])
                        for p0, p1 in zip(ptr[:-1], ptr[1:] - 1)])
    if kind != "besov":
        return RwmLayout(ptr, rows, vals, pvals, colnorm)
    w_ptr, w_rows, w_vals = _flat_columns(prior.transform)
    return RwmLayout(ptr, rows, vals, pvals, colnorm, w_ptr, w_rows, w_vals,
                     prior.weights[w_rows])


def sample_rwm(post: Posterior, n_samples: int, burn_in: int = 0,
               thinning: int = 1, step: float = 1.0, seed: int = 0,
               chain_index: int = 0,
               initial: Optional[np.ndarray] = None,
               layout: Optional[RwmLayout] = None) -> Chain:
    """Componentwise random-walk Metropolis targeting the posterior.

    Proposal for coordinate i is Gaussian with std ``step / sqrt(2 a_i)``
    where a_i is the coordinate's quadratic likelihood coefficient (falls
    back to ``step`` for columns K e_i = 0). Acceptance is recorded;
    pathological steps show up as acceptance near 0 or 1.

    The scan in index order is evaluated in blocks: up to ``_RWM_BLOCK``
    consecutive proposals are scored from one state, the first accepted
    one is committed, and the next block starts after it. A rejection
    changes no state, so every proposal scored before the first acceptance
    sees the state the sequential scan gives it: the chain is that scan's.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if n_samples < 1 or thinning < 1 or burn_in < 0:
        raise ValueError("bad chain sizing")
    lay = layout if layout is not None else rwm_layout(post)
    prior, lam, n = post.prior, post.prior.lam, post.dim
    besov = prior.kind == "besov"
    rng = _chain_rng(seed, chain_index)
    u = initial.copy() if initial is not None else np.zeros(n)
    kp, k_rows, k_pvals = lay.k_ptr, lay.k_rows, lay.k_pvals
    wp, w_rows, w_weights = lay.w_ptr, lay.w_rows, lay.w_weights
    colnorm = lay.colnorm
    scale = np.where(colnorm > 0, step / np.sqrt(np.maximum(colnorm, 1e-300)),
                     step)
    total_sweeps = burn_in + n_samples * thinning
    out = np.empty((n_samples, n))
    accepted = 0
    for sweep in range(total_sweeps):
        if sweep % 256 == 0:
            # the cached residuals, from scratch (guards float drift)
            rho = post.data.values - post.operator.apply(u)
            if besov:
                coef = prior.transform.apply(u)
        xi = rng.standard_normal(n)
        us = rng.random(n)
        # terms of u_i alone, which no earlier coordinate of the sweep changes
        t_all = u + scale * xi
        d_all = t_all - u
        quad = 0.5 * colnorm * (t_all * t_all - u * u)
        uc = u * colnorm
        if besov:
            # (t - u_i) W e_i, entry by entry
            shift = np.repeat(d_all, np.diff(wp)) * lay.w_vals
        elif prior.kind == "l1":
            prior_de = lam * (np.abs(t_all) - np.abs(u))
        else:  # J = beta / (2 lam) ||u||^2
            lc = lam * (prior.beta / (2.0 * lam))
            prior_de = lc * (t_all * t_all - u * u)
        s = 0
        while s < n:
            # lr = E(u_i) - E(t) = b (u_i - t) - a (t^2 - u_i^2) - prior term,
            # b = -(u_i ||K e_i||_P^2 + <K e_i, rho>_P), for s <= i < e
            e = min(s + _RWM_BLOCK, n)
            p0, p1 = kp[s], kp[e]
            dot = np.add.reduceat(k_pvals[p0:p1] * rho[k_rows[p0:p1]],
                                  kp[s:e] - p0)
            lr = (uc[s:e] + dot) * d_all[s:e] - quad[s:e]
            if besov:
                p0, p1 = wp[s], wp[e]
                c = coef[w_rows[p0:p1]]
                change = w_weights[p0:p1] * (np.abs(c + shift[p0:p1])
                                             - np.abs(c))
                lr -= lam * np.add.reduceat(change, wp[s:e] - p0)
            else:
                lr -= prior_de[s:e]
            # accept when us < exp(lr), always when lr >= 0 since us < 1
            ok = us[s:e] < np.exp(np.minimum(lr, 0.0))
            k = int(ok.argmax())
            if not ok[k]:
                s = e
                continue
            i = s + k
            accepted += 1
            if d_all[i] != 0.0:  # commit, skipping each column's pad
                col = slice(kp[i], kp[i + 1] - 1)
                rho[k_rows[col]] -= d_all[i] * lay.k_vals[col]
                if besov:
                    col = slice(wp[i], wp[i + 1] - 1)
                    coef[w_rows[col]] += d_all[i] * lay.w_vals[col]
                u[i] = t_all[i]
            s = i + 1
        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            out[(sweep - burn_in) // thinning] = u
    return Chain(out, seed=seed, burn_in=burn_in, thinning=thinning,
                 method="rwm", grid=post.grid,
                 acceptance_rate=accepted / (total_sweeps * n))


# ---------------------------------------------------------------------------
# chain persistence (BBCHAIN1)
# ---------------------------------------------------------------------------

_MAGIC = b"BBCHAIN1"


def save_chain(chain: Chain, path) -> None:
    """Binary chain file: magic, u32 dim, u64 count, u64 seed, f64 samples.

    All integers and floats little-endian; a plain-text sidecar
    ``<path>.meta`` records method, burn_in, thinning, acceptance_rate.
    """
    path = Path(path)
    n = chain.dim
    count = len(chain)
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQ", n, count, chain.seed))
        fh.write(chain.samples.astype("<f8").tobytes())
    acc = "" if chain.acceptance_rate is None else repr(chain.acceptance_rate)
    meta = [f"method = {chain.method}",
            f"burn_in = {chain.burn_in}",
            f"thinning = {chain.thinning}",
            f"acceptance_rate = {acc}"]
    path.with_suffix(path.suffix + ".meta").write_text("\n".join(meta) + "\n")


def load_chain(path) -> Chain:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError(f"{path}: bad magic, not a chain file")
    if len(raw) < 28:
        raise ValueError(f"{path}: truncated header")
    n, count, seed = struct.unpack("<IQQ", raw[8:28])
    expected = 28 + 8 * count * n
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, header says {count} x "
                         f"{n} samples ({expected} bytes)")
    samples = np.frombuffer(raw[28:], dtype="<f8").reshape(count, n).copy()
    meta = {}
    meta_path = path.with_suffix(path.suffix + ".meta")
    if meta_path.exists():
        for line in meta_path.read_text().splitlines():
            if "=" in line:
                key, _, val = line.partition("=")
                meta[key.strip()] = val.strip()
    acc = meta.get("acceptance_rate", "")
    try:
        return Chain(samples, seed=seed,
                     burn_in=int(meta.get("burn_in", 0)),
                     thinning=int(meta.get("thinning", 1)),
                     method=meta.get("method", "unknown"),
                     acceptance_rate=float(acc) if acc else None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
