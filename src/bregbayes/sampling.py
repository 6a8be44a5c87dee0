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
  the closed-form two-piece draw :func:`_l1_draw` (one kink at 0); TV
  and Gaussian classes go through the general piece table
  (:func:`_pg_table` + :func:`_pg_draw`), and a class of one coordinate
  takes the scalar draw :func:`_pg_draw_scalar`.
* :func:`sample_rwm` -- componentwise Gaussian-proposal Metropolis for
  everything else (notably the Besov prior in its wavelet domain).

RNG contract: NumPy PCG64 seeded with SeedSequence([seed, chain_index]),
so chains are bit-reproducible from (seed, method, options) and parallel
chains with distinct indices never share a stream. A Gibbs sweep draws
one ``rng.random((n, 2))`` block and coordinate i uses row i of it,
whatever the scan order.
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
from .priors import Prior


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

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        scalar = size is None
        m = 1 if scalar else int(size)
        u1 = rng.random(m)
        u2 = rng.random(m)
        t = _pg_draw(self.table, np.zeros(m, dtype=np.intp), u1, u2)
        return float(t[0]) if scalar else t

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
    x = np.minimum(ndtri_exp(np.where(np.isfinite(logp), logp, lb)),
                   np.where(pos, q[1], q[0]))
    t = np.where(pos, mu[1], mu[0]) + sigma * np.where(pos, -x, x)
    return np.where(pos, np.maximum(t, 0.0), np.minimum(t, 0.0))


# ---------------------------------------------------------------------------
# scalar draw for colour classes of one coordinate (same math as the
# batched kernel in plain floats, which avoids its array overhead at B = 1;
# a test pins the two to identical draws)
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


def _log_ndtr_scalar(x: float) -> float:
    if x > -1.0:
        return math.log(0.5 * math.erfc(-x * _INV_SQRT2))
    if x > -36.0:
        return math.log(0.5) + math.log(math.erfc(-x * _INV_SQRT2))
    x2 = x * x
    return (-0.5 * x2 - math.log(-x) - 0.5 * _LOG_2PI
            + math.log1p(-1.0 / x2 + 3.0 / (x2 * x2)))


def _log_norm_cdf_diff_scalar(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)), a <= b, plain floats."""
    if a == _NEG_INF and b == math.inf:
        return 0.0
    s = a + b
    if s == s and s > 0:  # flip to the accurate tail; NaN (inf-inf) stays
        a, b = -b, -a
    la = _log_ndtr_scalar(a) if a > _NEG_INF else _NEG_INF
    lb = _log_ndtr_scalar(b)
    diff = la - lb
    if diff >= 0.0:
        return _NEG_INF
    return lb + math.log1p(-math.exp(diff))


def _truncnorm_std_scalar(a: float, b: float, u: float) -> float:
    s = a + b
    flip = s == s and s > 0
    if flip:
        a, b, u = -b, -a, 1.0 - u
    la = _log_ndtr_scalar(a) if a > _NEG_INF else _NEG_INF
    lb = _log_ndtr_scalar(b) if b < math.inf else 0.0
    span = -math.expm1(min(la - lb, 0.0))
    arg = u * span - span
    logp = lb + (math.log1p(arg) if arg > -1.0 else _NEG_INF)
    if logp == _NEG_INF:
        x = a
    else:
        x = float(ndtri_exp(min(logp, 0.0)))
    x = min(max(x, a), b)
    return -x if flip else x


def _pg_draw_scalar(a: float, b: float, kinks, u1: float, u2: float) -> float:
    """One exact draw from exp(-(a t^2 + b t) - sum_j c_j |t - d_j|).

    ``kinks`` is a short sequence of (weight, location) pairs sorted by
    location; u1 selects the piece, u2 the position within it.
    """
    sigma = 1.0 / math.sqrt(2.0 * a)
    n_kinks = len(kinks)
    total_c = 0.0
    total_cd = 0.0
    for c, d in kinks:
        total_c += c
        total_cd += c * d
    left_c = 0.0
    left_cd = 0.0
    logms = []
    pieces = []
    best = _NEG_INF
    for p in range(n_kinks + 1):
        slope = 2.0 * left_c - total_c
        offset = total_cd - 2.0 * left_cd
        mu = -(b + slope) / (2.0 * a)
        lo = kinks[p - 1][1] if p > 0 else _NEG_INF
        hi = kinks[p][1] if p < n_kinks else math.inf
        alpha = (lo - mu) / sigma if lo > _NEG_INF else _NEG_INF
        beta_ = (hi - mu) / sigma if hi < math.inf else math.inf
        logm = a * mu * mu - offset + _log_norm_cdf_diff_scalar(alpha, beta_)
        logms.append(logm)
        pieces.append((mu, lo, hi, alpha, beta_))
        if logm > best:
            best = logm
        if p < n_kinks:
            left_c += kinks[p][0]
            left_cd += kinks[p][0] * kinks[p][1]
    total = 0.0
    weights = []
    for lm in logms:
        w = math.exp(lm - best) if lm > _NEG_INF else 0.0
        weights.append(w)
        total += w
    target = u1 * total
    acc = 0.0
    p = n_kinks
    for j, w in enumerate(weights):
        acc += w
        if target < acc:
            p = j
            break
    mu, lo, hi, alpha, beta_ = pieces[p]
    t = mu + sigma * _truncnorm_std_scalar(alpha, beta_, u2)
    return min(max(t, lo), hi)


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
    subgradient_mean: np.ndarray = field(repr=False)
    subgradient_stderr: np.ndarray = field(repr=False)
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


def summarize(chain: Chain, prior: Prior, n_batches: int = 20) -> ChainSummary:
    """CM estimate, its batch-means stderr, and the mean prior subgradient."""
    if len(chain) < n_batches:
        raise ValueError(f"need at least {n_batches} samples to summarize")
    subgrads = np.vstack([prior.subgradient(s) for s in chain.samples])
    return ChainSummary(
        mean=chain.samples.mean(axis=0),
        stderr=batch_means_stderr(chain.samples, n_batches),
        subgradient_mean=subgrads.mean(axis=0),
        subgradient_stderr=batch_means_stderr(subgrads, n_batches),
        n_samples=len(chain),
    )


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
    chains. Row j of the packed arrays belongs to coordinate ``order[j]``,
    and colour class k is ``order[bounds[k]:bounds[k + 1]]``, in index
    order. Columns are padded to a common length with value 0 at row
    ``out_dim``, a spare residual slot that stays 0.
    """

    order: np.ndarray = field(repr=False)  # (n,) coordinates in scan order
    bounds: np.ndarray = field(repr=False)  # (n_classes + 1,)
    rows: np.ndarray = field(repr=False)  # (n, width) data rows
    vals: np.ndarray = field(repr=False)  # (n, width) column values
    pvals: np.ndarray = field(repr=False)  # values weighted by the precision
    colnorm: np.ndarray = field(repr=False)  # (n,) ||K e_i||_P^2


def _greedy_colouring(cols, n_rows: int, neighbours) -> np.ndarray:
    """Smallest free colour per coordinate, coordinates taken in index order.

    Two coordinates conflict when their columns share a data row, or when
    ``neighbours(i)`` lists the earlier one (a coupling through the prior).
    ``used[r]`` is the bitmask of colours whose columns touch data row r.
    """
    used = [0] * n_rows
    colour: list[int] = []
    for i, (rows, _) in enumerate(cols):
        rows = rows.tolist()
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
    """Colour the coordinates of ``post`` and pack the columns of K.

    Coordinates of one colour share no data row, no TV edge and no entry
    of L^T L, so their conditionals are independent given the rest.
    """
    prior = post.prior
    kind = prior.kind
    if kind not in _GIBBS_PRIORS or (kind == "l1"
                                     and prior.transform is not None):
        raise ValueError(f"sample_gibbs: unsupported prior structure "
                         f"'{kind}'")
    op = post.operator
    cols = sparse_columns(op)
    if kind == "tv1d":
        neighbours = lambda i: (i - 1,) if i > 0 else ()
    elif kind == "gaussian" and prior.l_matrix is not None:
        coupled = (prior.l_matrix.T @ prior.l_matrix) != 0.0
        neighbours = lambda i: np.flatnonzero(coupled[i, :i]).tolist()
    else:
        neighbours = lambda i: ()
    colour = _greedy_colouring(cols, op.out_dim, neighbours)
    order = np.argsort(colour, kind="stable")
    bounds = np.searchsorted(colour[order], np.arange(colour.max() + 2))
    n = len(cols)
    width = max(r.size for r, _ in cols)
    rows = np.full((n, width), op.out_dim, dtype=np.intp)
    vals = np.zeros((n, width))
    pvals = np.zeros((n, width))
    colnorm = np.empty(n)
    prec = post.noise.precision_diag
    for j, i in enumerate(order):
        r, v = cols[i]
        pv = v * prec[r]
        rows[j, :r.size] = r
        vals[j, :r.size] = v
        pvals[j, :r.size] = pv
        colnorm[j] = float(v @ pv)
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
    their exact conditionals at once; a class of one coordinate takes the
    scalar draw. One recorded sample per ``thinning`` sweeps after
    ``burn_in`` sweeps. Supported priors: Gaussian, pixel-domain l1, and
    1D TV.
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
        if k1 - k0 == 1:
            blocks.append((True, order[k0], k0, layout.rows[k0],
                           layout.vals[k0], layout.pvals[k0],
                           layout.colnorm[k0], a_all[k0], None))
            continue
        members = order[k0:k1]
        size = k1 - k0
        if kind == "l1":
            kinks = None  # the closed-form two-piece draw needs no table
        elif kind == "tv1d":
            # a coordinate at an end has one neighbour; its other kink is a
            # weight-0 pad at the same location
            left = np.where(members > 0, members - 1, members + 1)
            right = np.where(members < n - 1, members + 1, members - 1)
            weights = np.column_stack([np.where(members > 0, lam, 0.0),
                                       np.where(members < n - 1, lam, 0.0)])
            kinks = (weights, left, right)
        else:
            kinks = (np.zeros((size, 0)), np.zeros((size, 0)))
        blocks.append((False, members, slice(k0, k1), layout.rows[k0:k1],
                       layout.vals[k0:k1], layout.pvals[k0:k1],
                       layout.colnorm[k0:k1], a_all[k0:k1], kinks))
    total_sweeps = burn_in + n_samples * thinning
    out = np.empty((n_samples, n))
    rec = 0
    last = n - 1
    for sweep in range(total_sweeps):
        # row j holds the uniforms of coordinate order[j], so each class
        # reads a slice; coordinate i still takes row i of the drawn block
        uu = rng.random((n, 2))[order]
        u1_all, u2_all = uu[:, 0], uu[:, 1]
        for scalar, members, scan, idx, vals, pv, cn, a, kinks in blocks:
            if scalar:
                # scalar draw, with the arithmetic of a sequential sweep
                i = members
                ui = u[i]
                b = -(ui * cn + float(pv @ rho[idx]))
                if kind == "gaussian":
                    if l_mat is not None:
                        b += 2.0 * lc * (float(l_mat[:, i] @ lw)
                                         - ui * lnorm[i])
                    ks = ()
                elif kind == "l1":
                    ks = ((lam, 0.0),)
                elif i == 0:
                    ks = ((lam, u[1]),)
                elif i == last:
                    ks = ((lam, u[last - 1]),)
                else:
                    dl, dr = u[i - 1], u[i + 1]
                    ks = (((lam, dl), (lam, dr)) if dl <= dr
                          else ((lam, dr), (lam, dl)))
                t = _pg_draw_scalar(a, b, ks, u1_all[scan], u2_all[scan])
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
            if kinks is None:
                t = _l1_draw(a, b, lam, u1, u2)
            else:
                if kind == "tv1d":
                    c, left, right = kinks
                    dl, dr = u[left], u[right]
                    d = np.column_stack([np.minimum(dl, dr),
                                         np.maximum(dl, dr)])
                else:
                    c, d = kinks
                t = _pg_draw(_pg_table(a, b, c, d), np.arange(b.size), u1,
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
            out[rec] = u
            rec += 1
    return Chain(out[:rec], seed=seed, burn_in=burn_in, thinning=thinning,
                 method="gibbs", grid=post.grid)


# ---------------------------------------------------------------------------
# random-walk Metropolis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RwmLayout:
    """Column structure of a posterior for RWM, shared by its chains.

    ``pcols`` holds, per coordinate, the rows and values of K e_i and the
    values weighted by the noise precision; ``w_cols`` the columns of the
    Besov transform (None for other priors).
    """

    pcols: list = field(repr=False)
    colnorm: np.ndarray = field(repr=False)
    w_cols: Optional[list] = field(repr=False)


def rwm_layout(post: Posterior) -> RwmLayout:
    prec = post.noise.precision_diag
    pcols = [(idx, vals, vals * prec[idx])
             for idx, vals in sparse_columns(post.operator)]
    colnorm = np.array([float(v @ pv) for _, v, pv in pcols])
    w_cols = (sparse_columns(post.prior.transform)
              if post.prior.kind == "besov" else None)
    return RwmLayout(pcols, colnorm, w_cols)


class _CoordinateState:
    """Incremental per-coordinate view of the posterior energy for RWM.

    Maintains the data residual rho = f - K u (and L u or W u where the
    prior needs it) so that single-coordinate energy differences cost
    O(column support) instead of O(n).
    """

    def __init__(self, post: Posterior, u0: np.ndarray, layout: RwmLayout):
        self.post = post
        prior = post.prior
        self.lam = prior.lam
        self.u = u0.copy()
        self.pcols = layout.pcols
        self.colnorm = layout.colnorm
        self.w_cols = layout.w_cols
        self.l_mat = prior.l_matrix if prior.kind == "gaussian" else None
        if self.l_mat is not None:
            self.lnorm = np.einsum("ij,ij->j", self.l_mat, self.l_mat)
        self.refresh()

    # likelihood part: E_lik(t) = a t^2 + b t + const for coordinate i
    def quad_terms(self, i: int) -> tuple[float, float]:
        idx, _, pv = self.pcols[i]
        a = 0.5 * self.colnorm[i]
        b = -(self.u[i] * self.colnorm[i] + float(pv @ self.rho[idx]))
        return a, b

    def prior_delta(self, i: int, t: float) -> float:
        """lam * (J(u with u_i = t) - J(u)) for the RWM acceptance ratio."""
        prior = self.post.prior
        kind = prior.kind
        ui = self.u[i]
        if kind == "besov":
            jdx, wvals = self.w_cols[i]
            new = np.abs(self.coef[jdx] + (t - ui) * wvals)
            old = np.abs(self.coef[jdx])
            return self.lam * float(prior.weights[jdx] @ (new - old))
        if kind == "l1" and prior.transform is None:
            return self.lam * (abs(t) - abs(ui))
        if kind == "tv1d":
            delta = 0.0
            if i > 0:
                delta += abs(t - self.u[i - 1]) - abs(ui - self.u[i - 1])
            if i < self.u.size - 1:
                delta += abs(self.u[i + 1] - t) - abs(self.u[i + 1] - ui)
            return self.lam * delta
        if kind == "gaussian":
            # J = beta / (2 lam) ||L u||^2 along coordinate i: a t^2 + b t
            lc = self.lam * (prior.beta / (2.0 * self.lam))
            if self.l_mat is None:
                a, b = lc, 0.0
            else:
                ln = self.lnorm[i]
                a = lc * ln
                b = 2.0 * lc * (float(self.l_mat[:, i] @ self.lw) - ui * ln)
            return a * (t**2 - ui**2) + b * (t - ui)
        # generic fallback: full energy difference
        u_new = self.u.copy()
        u_new[i] = t
        return self.lam * (prior.energy(u_new) - prior.energy(self.u))

    def commit(self, i: int, t: float) -> None:
        delta = t - self.u[i]
        if delta == 0.0:
            return
        idx, vals, _ = self.pcols[i]
        self.rho[idx] -= delta * vals
        if self.l_mat is not None:
            self.lw += delta * self.l_mat[:, i]
        elif self.w_cols is not None:
            jdx, wvals = self.w_cols[i]
            self.coef[jdx] += delta * wvals
        self.u[i] = t

    def refresh(self) -> None:
        """Recompute cached residuals from scratch (guards float drift)."""
        self.rho = self.post.data.values - self.post.operator.apply(self.u)
        if self.l_mat is not None:
            self.lw = self.l_mat @ self.u
        elif self.w_cols is not None:
            self.coef = self.post.prior.transform.apply(self.u)


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
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if n_samples < 1 or thinning < 1 or burn_in < 0:
        raise ValueError("bad chain sizing")
    rng = _chain_rng(seed, chain_index)
    n = post.dim
    state = _CoordinateState(post, initial.copy() if initial is not None
                             else np.zeros(n),
                             layout if layout is not None else rwm_layout(post))
    scale = np.where(state.colnorm > 0, step / np.sqrt(np.maximum(state.colnorm,
                                                                  1e-300)),
                     step)
    total_sweeps = burn_in + n_samples * thinning
    out = np.empty((n_samples, n))
    rec = 0
    accepted = 0
    proposed = 0
    for sweep in range(total_sweeps):
        xi = rng.standard_normal(n)
        us = rng.random(n)
        for i in range(n):
            ui = state.u[i]
            t = ui + scale[i] * xi[i]
            a, b = state.quad_terms(i)
            delta_e = a * (t * t - ui * ui) + b * (t - ui) + state.prior_delta(i, t)
            proposed += 1
            if delta_e <= 0.0 or us[i] < np.exp(-delta_e):
                state.commit(i, t)
                accepted += 1
        if (sweep + 1) % 256 == 0:
            state.refresh()
        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            out[rec] = state.u
            rec += 1
    return Chain(out[:rec], seed=seed, burn_in=burn_in, thinning=thinning,
                 method="rwm", grid=post.grid,
                 acceptance_rate=accepted / max(proposed, 1))


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
    return Chain(samples, seed=seed,
                 burn_in=int(meta.get("burn_in", 0)),
                 thinning=int(meta.get("thinning", 1)),
                 method=meta.get("method", "unknown"),
                 acceptance_rate=float(acc) if acc else None)
