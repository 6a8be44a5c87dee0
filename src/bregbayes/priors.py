"""Log-concave Gibbs prior energies.

Each prior bundles its energy J, a canonical subgradient selection
(sign(0) := 0 throughout), a proximal map, and the induced Bregman
distance D_J^q(u, v) = J(u) - J(v) - <q, u - v>.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import as_vector
from .operators import LinearOperator

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Prior:
    """Convex Gibbs energy with weight ``lam`` (prior ~ exp(-lam * J))."""

    kind: str
    lam: float
    energy_fn: Callable[[np.ndarray], float] = field(repr=False)
    subgradient_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    prox_fn: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    transform: Optional[LinearOperator] = None
    weights: Optional[np.ndarray] = None
    beta: Optional[float] = None
    l_matrix: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    def energy(self, u) -> float:
        return float(self.energy_fn(as_vector(u)))

    def subgradient(self, u) -> np.ndarray:
        return self.subgradient_fn(as_vector(u))

    def prox(self, v, t: float) -> np.ndarray:
        """argmin_x 1/2 ||x - v||^2 + t * J(x)."""
        if t < 0:
            raise ValueError("prox step must be nonnegative")
        return self.prox_fn(as_vector(v), float(t))

    def bregman(self, u, v, q=None) -> float:
        """D_J^q(u, v), with q the canonical subgradient at v by default."""
        u = as_vector(u)
        v = as_vector(v)
        q = self.subgradient_fn(v) if q is None else as_vector(q)
        return float(self.energy_fn(u) - self.energy_fn(v) - float(q @ (u - v)))


def _soft_threshold(v: np.ndarray, t) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


# ---------------------------------------------------------------------------
# Gaussian
# ---------------------------------------------------------------------------


def make_gaussian_prior(lam: float, beta: float,
                        l_matrix: Optional[np.ndarray] = None) -> Prior:
    """J(u) = beta/(2 lam) ||L u||^2 with L regular (None means identity).

    The induced Bregman distance is beta/(2 lam) ||L (u - v)||^2.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if l_matrix is not None:
        l_matrix = np.asarray(l_matrix, dtype=np.float64)
        if l_matrix.ndim != 2 or l_matrix.shape[0] != l_matrix.shape[1]:
            raise ValueError("L must be a square matrix")
    c = beta / (2.0 * lam)

    if l_matrix is None:
        energy = lambda u: c * float(u @ u)
        subgrad = lambda u: 2.0 * c * u

        def prox(v, t):
            return v / (1.0 + 2.0 * c * t)
    else:
        lt_l = l_matrix.T @ l_matrix

        def energy(u):
            lu = l_matrix @ u
            return c * float(lu @ lu)

        def subgrad(u):
            return 2.0 * c * (lt_l @ u)

        def prox(v, t):
            a = np.eye(v.size) + (2.0 * c * t) * lt_l
            return np.linalg.solve(a, v)

    return Prior("gaussian", lam, energy, subgrad, prox,
                 beta=beta, l_matrix=l_matrix)


# ---------------------------------------------------------------------------
# l1 (pixel domain)
# ---------------------------------------------------------------------------


def make_l1_prior(lam: float) -> Prior:
    """J(u) = |u|_1, with the canonical subgradient sign(u), sign(0) = 0.

    The prox is soft-thresholding. An l1 prior on orthonormal transform
    coefficients is the Besov prior with unit weights.
    """
    energy = lambda u: float(np.abs(u).sum())
    subgrad = lambda u: np.sign(u)
    prox = lambda v, t: _soft_threshold(v, t)
    return Prior("l1", lam, energy, subgrad, prox)


# ---------------------------------------------------------------------------
# 1D total variation
# ---------------------------------------------------------------------------


def forward_differences(n: int) -> LinearOperator:
    """D: R^n -> R^(n-1), (Du)_i = u_{i+1} - u_i."""
    if n < 2:
        raise ValueError("need n >= 2 for differences")

    def apply(u):
        return np.diff(u)

    def adjoint_apply(z):
        out = np.zeros(z.size + 1)
        out[:-1] -= z
        out[1:] += z
        return out

    return LinearOperator(n, n - 1, apply, adjoint_apply, "diff")


def _tv1d_prox(v: np.ndarray, t: float, tol: float = 1e-13,
               max_iters: int = 20000) -> np.ndarray:
    """Prox of t * TV via accelerated projected gradient on the dual.

    Solves max_{|z|_inf <= t} -1/2 ||v - D^T z||^2; the primal solution is
    v - D^T z*. Step 1/4 since ||D D^T|| <= 4. Stops when the duality gap
    t ||D x||_1 - <z, D x> of x = v - D^T z, which bounds the excess of
    the prox objective at x, is at most tol (1 + ||v||^2).
    """
    if t == 0 or v.size < 2:
        return v.copy()
    z = np.zeros(v.size - 1)
    y = z.copy()
    s_prev = 1.0
    stop = tol * (1.0 + float(v @ v))
    for _ in range(max_iters):
        # w = v - D^T y; ascent direction for the dual is D w
        w = v.copy()
        w[:-1] += y
        w[1:] -= y
        z_new = np.clip(y + 0.25 * np.diff(w), -t, t)
        s = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s_prev**2))
        y = z_new + ((s_prev - 1.0) / s) * (z_new - z)
        z, s_prev = z_new, s
        x = v.copy()
        x[:-1] += z
        x[1:] -= z
        dx = np.diff(x)
        # each term is >= 0 since |z| <= t
        gap = float(np.sum(t * np.abs(dx) - z * dx))
        if gap <= stop:
            return x
    _log.warning("TV prox: no convergence within %d iterations (duality gap "
                 "%.3e)", max_iters, gap)
    return x


def make_tv1d_prior(lam: float) -> Prior:
    """Anisotropic 1D total variation J(u) = sum_i |u_{i+1} - u_i|."""

    def energy(u):
        if u.size < 2:
            raise ValueError("TV prior needs at least 2 samples")
        return float(np.abs(np.diff(u)).sum())

    def subgrad(u):
        if u.size < 2:
            raise ValueError("TV prior needs at least 2 samples")
        z = np.sign(np.diff(u))
        out = np.zeros_like(u)
        out[:-1] -= z
        out[1:] += z
        return out

    return Prior("tv1d", lam, energy, subgrad, _tv1d_prox)


# ---------------------------------------------------------------------------
# Besov (weighted l1 on orthonormal wavelet coefficients)
# ---------------------------------------------------------------------------


def load_weights_csv(path) -> np.ndarray:
    """Read a per-coefficient weight vector from the signal CSV format."""
    from .grids import load_signal_csv

    return load_signal_csv(path).values.copy()


def _probe_orthonormal(phi: LinearOperator, n_probes: int = 3) -> bool:
    rng = np.random.default_rng(12345)
    for _ in range(n_probes):
        u = rng.standard_normal(phi.in_dim)
        if not np.allclose(phi.adjoint_apply(phi.apply(u)), u, atol=1e-10):
            return False
    return True


def make_besov_prior(lam: float, weights, wavelet: LinearOperator) -> Prior:
    """J(u) = sum_j w_j |(W u)_j| for an orthonormal wavelet transform W."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size != wavelet.out_dim:
        raise ValueError(
            f"weight length {w.size} != coefficient count {wavelet.out_dim}")
    if np.any(w <= 0):
        raise ValueError("all weights must be positive")
    if not _probe_orthonormal(wavelet):
        raise ValueError("wavelet transform must be orthonormal")

    energy = lambda u: float(w @ np.abs(wavelet.apply(u)))
    subgrad = lambda u: wavelet.adjoint_apply(w * np.sign(wavelet.apply(u)))
    prox = lambda v, t: wavelet.adjoint_apply(
        _soft_threshold(wavelet.apply(v), t * w))
    return Prior("besov", lam, energy, subgrad, prox,
                 transform=wavelet, weights=w)
