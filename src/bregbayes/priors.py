"""Log-concave Gibbs prior energies.

Each prior bundles its energy J, a canonical subgradient selection
(sign(0) := 0 throughout), a proximal map, and the induced Bregman
distance D_J^q(u, v) = J(u) - J(v) - <q, u - v>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import as_vector
from .operators import LinearOperator


@dataclass(frozen=True)
class Prior:
    """Convex Gibbs energy with weight ``lam`` (prior ~ exp(-lam * J))."""

    kind: str
    lam: float
    energy_fn: Callable[[np.ndarray], float] = field(repr=False)
    subgradient_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    prox_fn: Optional[Callable[[np.ndarray, float], np.ndarray]] = field(
        default=None, repr=False)
    transform: Optional[LinearOperator] = None
    weights: Optional[np.ndarray] = None
    beta: Optional[float] = None
    l_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    power: Optional[float] = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    def energy(self, u) -> float:
        return float(self.energy_fn(as_vector(u)))

    def subgradient(self, u) -> np.ndarray:
        return self.subgradient_fn(as_vector(u))

    def prox(self, v, t: float) -> np.ndarray:
        """argmin_x 1/2 ||x - v||^2 + t * J(x)."""
        if self.prox_fn is None:
            raise NotImplementedError(f"prox not available for {self.kind} prior")
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
# l1 (pixel domain or orthonormal transform domain)
# ---------------------------------------------------------------------------


def _probe_orthonormal(phi: LinearOperator, n_probes: int = 3) -> bool:
    rng = np.random.default_rng(12345)
    for _ in range(n_probes):
        u = rng.standard_normal(phi.in_dim)
        if not np.allclose(phi.adjoint_apply(phi.apply(u)), u, atol=1e-10):
            return False
    return True


def make_l1_prior(lam: float, transform: Optional[LinearOperator] = None) -> Prior:
    """J(u) = |Phi u|_1 (Phi = identity by default).

    Canonical subgradient uses sign with sign(0) = 0. The prox is
    soft-thresholding in the Phi domain and requires Phi orthonormal.
    """
    if transform is None:
        energy = lambda u: float(np.abs(u).sum())
        subgrad = lambda u: np.sign(u)
        prox = lambda v, t: _soft_threshold(v, t)
    else:
        phi = transform
        orthonormal = _probe_orthonormal(phi)
        energy = lambda u: float(np.abs(phi.apply(u)).sum())
        subgrad = lambda u: phi.adjoint_apply(np.sign(phi.apply(u)))
        if orthonormal:
            prox = lambda v, t: phi.adjoint_apply(_soft_threshold(phi.apply(v), t))
        else:
            prox = None
    return Prior("l1", lam, energy, subgrad, prox, transform=transform)


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
    v - D^T z*. Step 1/4 since ||D D^T|| <= 4.
    """
    if t == 0 or v.size < 2:
        return v.copy()
    z = np.zeros(v.size - 1)
    y = z.copy()
    s_prev = 1.0
    x = v.copy()
    for _ in range(max_iters):
        # w = v - D^T y; ascent direction for the dual is D w
        w = v.copy()
        w[:-1] += y
        w[1:] -= y
        z_new = np.clip(y + 0.25 * np.diff(w), -t, t)
        s = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s_prev**2))
        y = z_new + ((s_prev - 1.0) / s) * (z_new - z)
        z, s_prev = z_new, s
        x_new = v.copy()
        x_new[:-1] += z
        x_new[1:] -= z
        if np.max(np.abs(x_new - x)) <= tol * (1.0 + np.max(np.abs(v))):
            return x_new
        x = x_new
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


# ---------------------------------------------------------------------------
# scalar-separable |u|^p and entropy (completeness of the distance table)
# ---------------------------------------------------------------------------


def make_power_prior(lam: float, p: float) -> Prior:
    """J(u) = sum_i |u_i|^p for 1 < p < infinity, applied componentwise."""
    if not 1.0 < p < np.inf:
        raise ValueError(f"power must satisfy 1 < p < inf, got {p}")

    energy = lambda u: float(np.sum(np.abs(u) ** p))
    subgrad = lambda u: p * np.sign(u) * np.abs(u) ** (p - 1.0)

    def prox(v, t):
        # solve x + t p sign(x) |x|^(p-1) = v per component; x shares v's sign
        av = np.abs(v)
        lo = np.zeros_like(av)
        hi = av.copy()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = mid + t * p * mid ** (p - 1.0)
            too_big = g > av
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        return np.sign(v) * 0.5 * (lo + hi)

    return Prior("power", lam, energy, subgrad, prox, power=p)


def make_entropy_prior(lam: float) -> Prior:
    """J(u) = sum_i (u_i log u_i - u_i) on u >= 0; Bregman distance is KL."""

    def energy(u):
        if np.any(u < 0):
            return np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(u > 0, u * np.log(u) - u, 0.0)
        return float(terms.sum())

    def subgrad(u):
        if np.any(u <= 0):
            raise ValueError("entropy subgradient requires u > 0")
        return np.log(u)

    def prox(v, t):
        # solve x + t log x = v, x > 0 (g is increasing, -inf at 0+)
        hi = np.maximum(np.exp(np.minimum(v / max(t, 1e-300), 700.0)), v) + 1.0
        lo = np.full_like(np.asarray(v, dtype=float), 1e-300)
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            g = mid + t * np.log(mid)
            too_big = g > v
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        return 0.5 * (lo + hi)

    return Prior("entropy", lam, energy, subgrad, prox)
