"""Posterior sampling for CM estimation and chain diagnostics.

Two samplers are provided:

* :func:`sample_gibbs` -- systematic-sweep single-component Gibbs with
  exact piecewise-Gaussian conditionals. Works for the Gaussian, pixel
  domain l1, and 1D TV priors, whose single-coordinate conditionals have
  the form exp(-(a t^2 + b t) - sum_j c_j |t - d_j|).
* :func:`sample_rwm` -- componentwise Gaussian-proposal Metropolis for
  everything else (notably the Besov prior in its wavelet domain).

RNG contract: NumPy PCG64 seeded with SeedSequence([seed, chain_index]),
so chains are bit-reproducible from (seed, method, options) and parallel
chains with distinct indices never share a stream.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .grids import Grid
from .model import Posterior
from .operators import sparse_columns
from .priors import Prior

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# exact piecewise-Gaussian 1D sampling
# ---------------------------------------------------------------------------


def _log_norm_cdf_diff(alpha, beta):
    """log(Phi(beta) - Phi(alpha)) for alpha <= beta, stable in both tails."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    # work on the side where the CDF is small: flip positive pairs
    with np.errstate(invalid="ignore"):
        flip = alpha + beta > 0  # False for (-inf, inf), which is what we want
    a = np.where(flip, -beta, alpha)
    b = np.where(flip, -alpha, beta)
    la = log_ndtr(a)
    lb = log_ndtr(b)
    with np.errstate(invalid="ignore"):
        out = lb + np.log1p(-np.exp(np.minimum(la - lb, 0.0)))
    return np.where(np.isneginf(lb), -np.inf, out)


class PiecewiseGaussian1D:
    """Density ~ exp(-(a t^2 + b t) - sum_j c_j |t - d_j|), a > 0.

    Between kinks the density is a scaled Gaussian, so sampling is exact:
    pick a piece by its log mass, then draw a truncated normal by inverse
    CDF in log space.
    """

    def __init__(self, a: float, b: float, kinks=()):
        if not np.isfinite(a) or a <= 0:
            raise ValueError(f"quadratic coefficient must be positive, got {a}")
        self.a = float(a)
        self.b = float(b)
        kinks = [(float(c), float(d)) for c, d in kinks if c != 0.0]
        kinks.sort(key=lambda cd: cd[1])
        # merge kinks at identical locations
        merged: list[list[float]] = []
        for c, d in kinks:
            if c < 0:
                raise ValueError("kink weights must be nonnegative")
            if merged and merged[-1][1] == d:
                merged[-1][0] += c
            else:
                merged.append([c, d])
        c_arr = np.array([c for c, _ in merged])
        d_arr = np.array([d for _, d in merged])
        n_pieces = d_arr.size + 1
        # on piece p, sum_j c_j |t - d_j| = slope_p * t + offset_p
        left_c = np.concatenate([[0.0], np.cumsum(c_arr)])
        left_cd = np.concatenate([[0.0], np.cumsum(c_arr * d_arr)])
        slope = 2.0 * left_c - c_arr.sum()
        offset = (c_arr * d_arr).sum() - 2.0 * left_cd
        # piece p covers [lo_p, hi_p]
        lo = np.concatenate([[-np.inf], d_arr])
        hi = np.concatenate([d_arr, [np.inf]])

        sigma = 1.0 / np.sqrt(2.0 * self.a)
        mu = -(self.b + slope) / (2.0 * self.a)
        alpha = (lo - mu) / sigma
        beta_ = (hi - mu) / sigma
        log_mass = (self.a * mu**2 - offset + _LOG_SQRT_2PI + np.log(sigma)
                    + _log_norm_cdf_diff(alpha, beta_))
        self.d = d_arr
        self.mu = mu
        self.sigma = sigma
        self.lo = lo
        self.hi = hi
        self.alpha = alpha
        self.beta = beta_
        shift = log_mass.max()
        mass = np.exp(log_mass - shift)
        self.log_norm = shift + np.log(mass.sum())
        self.cum_prob = np.cumsum(mass / mass.sum())
        self.n_pieces = n_pieces

    def _draw_piece(self, u_piece):
        return np.minimum(np.searchsorted(self.cum_prob, u_piece),
                          self.n_pieces - 1)

    def _truncnorm_std(self, alpha, beta, u):
        """Standard-normal draw truncated to [alpha, beta] via log-space ppf."""
        with np.errstate(invalid="ignore"):
            flip = alpha + beta > 0
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

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        scalar = size is None
        m = 1 if scalar else int(size)
        u1 = rng.random(m)
        u2 = rng.random(m)
        p = self._draw_piece(u1)
        z = self._truncnorm_std(self.alpha[p], self.beta[p], u2)
        t = self.mu[p] + self.sigma * z
        t = np.clip(t, self.lo[p], self.hi[p])
        return float(t[0]) if scalar else t

    def cdf(self, t):
        """Exact CDF, vectorized; used by the KS acceptance checks."""
        t = np.asarray(t, dtype=np.float64)
        p = np.searchsorted(self.d, t)
        below = np.where(p > 0, self.cum_prob[np.maximum(p - 1, 0)], 0.0)
        width = self.cum_prob[p] - below
        z = np.clip((t - self.mu[p]) / self.sigma, self.alpha[p], self.beta[p])
        frac_num = _log_norm_cdf_diff(self.alpha[p], z)
        frac_den = _log_norm_cdf_diff(self.alpha[p], self.beta[p])
        with np.errstate(invalid="ignore"):
            frac = np.exp(frac_num - frac_den)
        frac = np.where(np.isfinite(frac), frac, 0.0)
        return np.clip(below + width * frac, 0.0, 1.0)


# ---------------------------------------------------------------------------
# scalar fast path for the Gibbs sweep (same math as PiecewiseGaussian1D,
# plain floats to avoid tiny-array numpy overhead; a test pins the two
# implementations to identical draws)
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
# coordinate models shared by the samplers
# ---------------------------------------------------------------------------


class _CoordinateState:
    """Incremental per-coordinate view of the posterior energy.

    Maintains the data residual rho = f - K u (and L u or W u where the
    prior needs it) so that single-coordinate conditionals and energy
    differences cost O(column support) instead of O(n).
    """

    def __init__(self, post: Posterior, u0: np.ndarray):
        self.post = post
        prior = post.prior
        self.lam = prior.lam
        self.u = u0.copy()
        op = post.operator
        self.cols = sparse_columns(op)
        prec = post.noise.precision_diag
        if post.noise.precision_apply is not None:
            raise ValueError("samplers support diagonal noise precision only")
        self.pcols = [(idx, vals, vals * prec[idx]) for idx, vals in self.cols]
        self.colnorm = np.array([float(v @ pv) for _, v, pv in self.pcols])
        self.rho = post.data.values - op.apply(self.u)
        kind = prior.kind
        if kind == "gaussian":
            n = op.in_dim
            self.l_mat = prior.l_matrix if prior.l_matrix is not None else np.eye(n)
            self.beta = prior.beta
            self.lw = self.l_mat @ self.u
            self.lnorm = np.einsum("ij,ij->j", self.l_mat, self.l_mat)
        elif kind == "besov":
            self.w_cols = sparse_columns(prior.transform)
            self.coef = prior.transform.apply(self.u)
            self.weights = prior.weights
        # other prior kinds fall back to full energy differences

    # likelihood part: E_lik(t) = a t^2 + b t + const for coordinate i
    def quad_terms(self, i: int) -> tuple[float, float]:
        idx, _, pv = self.pcols[i]
        a = 0.5 * self.colnorm[i]
        b = -(self.u[i] * self.colnorm[i] + float(pv @ self.rho[idx]))
        return a, b

    def prior_conditional(self, i: int):
        """(quad_a, lin_b, kinks) contributed by lam * J along coordinate i."""
        prior = self.post.prior
        kind = prior.kind
        lam = self.lam
        if kind == "gaussian":
            c = self.beta / (2.0 * prior.lam)  # J = c ||L u||^2
            li = self.l_mat[:, i]
            ln = self.lnorm[i]
            a = lam * c * ln
            b = 2.0 * lam * c * (float(li @ self.lw) - self.u[i] * ln)
            return a, b, []
        if kind == "l1":
            return 0.0, 0.0, [(lam, 0.0)]
        if kind == "tv1d":
            kinks = []
            if i > 0:
                kinks.append((lam, self.u[i - 1]))
            if i < self.u.size - 1:
                kinks.append((lam, self.u[i + 1]))
            return 0.0, 0.0, kinks
        raise ValueError(f"no exact conditional for prior '{kind}'")

    def prior_delta(self, i: int, t: float) -> float:
        """lam * (J(u with u_i = t) - J(u)) for the RWM acceptance ratio."""
        prior = self.post.prior
        kind = prior.kind
        ui = self.u[i]
        if kind == "besov":
            jdx, wvals = self.w_cols[i]
            new = np.abs(self.coef[jdx] + (t - ui) * wvals)
            old = np.abs(self.coef[jdx])
            return self.lam * float(self.weights[jdx] @ (new - old))
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
            a, b, _ = self.prior_conditional(i)
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
        kind = self.post.prior.kind
        if kind == "gaussian":
            self.lw += delta * self.l_mat[:, i]
        elif kind == "besov":
            jdx, wvals = self.w_cols[i]
            self.coef[jdx] += delta * wvals
        self.u[i] = t

    def refresh(self) -> None:
        """Recompute cached residuals from scratch (guards float drift)."""
        self.rho = self.post.data.values - self.post.operator.apply(self.u)
        kind = self.post.prior.kind
        if kind == "gaussian":
            self.lw = self.l_mat @ self.u
        elif kind == "besov":
            self.coef = self.post.prior.transform.apply(self.u)


_GIBBS_PRIORS = ("gaussian", "l1", "tv1d")


def sample_gibbs(post: Posterior, n_samples: int, burn_in: int = 0,
                 thinning: int = 1, seed: int = 0, chain_index: int = 0,
                 initial: Optional[np.ndarray] = None) -> Chain:
    """Systematic-sweep Gibbs with exact piecewise-Gaussian conditionals.

    One recorded sample per ``thinning`` sweeps after ``burn_in`` sweeps.
    Supported priors: Gaussian, pixel-domain l1, and 1D TV.
    """
    prior = post.prior
    kind = prior.kind
    if kind not in _GIBBS_PRIORS or (kind == "l1"
                                     and prior.transform is not None):
        raise ValueError(f"sample_gibbs: unsupported prior structure "
                         f"'{kind}'")
    if n_samples < 1 or thinning < 1 or burn_in < 0:
        raise ValueError("bad chain sizing")
    rng = _chain_rng(seed, chain_index)
    n = post.dim
    state = _CoordinateState(post, initial.copy() if initial is not None
                             else np.zeros(n))
    if np.any(state.colnorm <= 0.0) and kind != "gaussian":
        raise ValueError("non-normalizable conditional: operator has a zero "
                         "column and the prior adds no curvature")
    total_sweeps = burn_in + n_samples * thinning
    out = np.empty((n_samples, n))
    rec = 0
    # hot loop: plain floats and preextracted columns
    u = state.u
    rho = state.rho
    pcols = state.pcols
    colnorm = state.colnorm
    lam = prior.lam
    if kind == "gaussian":
        c_g = prior.beta / (2.0 * lam)
        l_mat = state.l_mat
        lnorm = state.lnorm
        lw = state.lw
    last = n - 1
    for sweep in range(total_sweeps):
        uu = rng.random((n, 2))
        for i in range(n):
            idx, vals, pv = pcols[i]
            ui = u[i]
            a = 0.5 * colnorm[i]
            b = -(ui * colnorm[i] + float(pv @ rho[idx]))
            if kind == "gaussian":
                ln = lnorm[i]
                a += lam * c_g * ln
                b += 2.0 * lam * c_g * (float(l_mat[:, i] @ lw) - ui * ln)
                t = _pg_draw_scalar(a, b, (), uu[i, 0], uu[i, 1])
            elif kind == "l1":
                t = _pg_draw_scalar(a, b, ((lam, 0.0),), uu[i, 0], uu[i, 1])
            else:  # tv1d
                if i == 0:
                    kinks = ((lam, u[1]),)
                elif i == last:
                    kinks = ((lam, u[last - 1]),)
                else:
                    dl, dr = u[i - 1], u[i + 1]
                    kinks = (((lam, dl), (lam, dr)) if dl <= dr
                             else ((lam, dr), (lam, dl)))
                t = _pg_draw_scalar(a, b, kinks, uu[i, 0], uu[i, 1])
            delta = t - ui
            if delta != 0.0:
                rho[idx] -= delta * vals
                if kind == "gaussian":
                    lw += delta * l_mat[:, i]
                u[i] = t
        if (sweep + 1) % 256 == 0:
            state.refresh()
            rho = state.rho
            if kind == "gaussian":
                lw = state.lw
        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            out[rec] = u
            rec += 1
    return Chain(out[:rec], seed=seed, burn_in=burn_in, thinning=thinning,
                 method="gibbs", grid=post.grid)


def sample_rwm(post: Posterior, n_samples: int, burn_in: int = 0,
               thinning: int = 1, step: float = 1.0, seed: int = 0,
               chain_index: int = 0,
               initial: Optional[np.ndarray] = None) -> Chain:
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
                             else np.zeros(n))
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
