"""Noise model, posterior assembly, and the precision-weighted norm.

The noise model stores only its diagonal precision P; ``from_sigma`` sets
P = sigma^-2 I.

The negative log posterior used everywhere is

    E(u) = 1/2 ||f - K u||^2_P + lam * J(u),      P = noise precision,

with no normalizing constant; identities involving E are checked as
energy differences. The functions below take one vector or a block of
vectors, one per row; row i of a block's result is the result for row i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import Grid, Signal, as_vector, row_dot
from .operators import LinearOperator
from .priors import Prior


@dataclass(frozen=True)
class GaussianNoiseModel:
    """Zero-mean Gaussian noise with diagonal precision (default sigma^-2 I).

    The precision is diagonal only: the samplers' conditionals, the exact
    MAP u-steps and the cached Bayes costs all rely on it.
    """

    precision_diag: np.ndarray = field(repr=False)

    def __post_init__(self):
        diag = np.asarray(self.precision_diag, dtype=np.float64).reshape(-1).copy()
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            raise ValueError("precision diagonal must be strictly positive and finite")
        diag.setflags(write=False)
        object.__setattr__(self, "precision_diag", diag)

    @classmethod
    def from_sigma(cls, sigma: float, dim: int) -> "GaussianNoiseModel":
        sigma = float(sigma)
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        return cls(np.full(dim, sigma**-2))

    @property
    def dim(self) -> int:
        return self.precision_diag.size

    def apply_precision(self, y: np.ndarray) -> np.ndarray:
        return self.precision_diag * y


def weighted_sq_norm(y, noise: GaussianNoiseModel):
    """y^T P y for the noise precision P (>= 0, 0 iff y = 0); per row."""
    y = as_vector(y)
    if y.shape[-1] != noise.dim:
        raise ValueError(f"vector length {y.shape[-1]} != noise dimension {noise.dim}")
    return row_dot(y, noise.apply_precision(y))


@dataclass(frozen=True)
class Posterior:
    """Bundle of forward operator, data, noise model, and prior."""

    operator: LinearOperator
    data: Signal
    noise: GaussianNoiseModel
    prior: Prior
    grid: Optional[Grid] = None  # reconstruction grid, if known

    def __post_init__(self):
        if self.operator.out_dim != self.data.grid.size:
            raise ValueError(
                f"operator output {self.operator.out_dim} != data length "
                f"{self.data.grid.size}"
            )
        if self.noise.dim != self.data.grid.size:
            raise ValueError("noise dimension must match data length")
        if self.prior.lam <= 0:
            raise ValueError("prior weight lambda must be positive")

    @property
    def dim(self) -> int:
        return self.operator.in_dim


def neg_log_posterior(post: Posterior, u):
    """1/2 ||f - K u||^2_P + lam J(u), exactly, per row; no normalizing
    constant."""
    u = as_vector(u)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite input values")
    r = post.data.values - post.operator.apply(u)
    return 0.5 * weighted_sq_norm(r, post.noise) + post.prior.lam * post.prior.energy(u)


def neg_log_posterior_gradient(post: Posterior, u) -> np.ndarray:
    """K^T P (K u - f) + lam q with q the prior's canonical subgradient.

    Equal to the true gradient wherever the prior energy is differentiable.
    """
    return (data_misfit_gradient(post, u)
            + post.prior.lam * post.prior.subgradient(u))


def data_misfit_gradient(post: Posterior, u) -> np.ndarray:
    """K^T P (K u - f), the smooth part of the posterior gradient."""
    u = as_vector(u)
    r = post.operator.apply(u) - post.data.values
    return post.operator.adjoint_apply(post.noise.apply_precision(r))
