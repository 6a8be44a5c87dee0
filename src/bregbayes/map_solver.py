"""MAP estimation by Split-Bregman splitting.

The estimate minimizes 1/2 ||f - K u||^2_P + lam J(u). The splitting
variable is d = Phi u, Phi the identity (pixel l1), forward differences D
(TV) or the orthonormal wavelet (Besov), so the shrinkage step is always a
plain soft-threshold; a Gaussian prior is solved directly from its normal
equations by CG. The u-step matrix K^T P K + mu Phi^T Phi (Phi^T Phi = I
but for TV) is the same in every outer iteration; TV factors it once per
solve (banded Cholesky), as does the reflective blur (a DCT
diagonalisation), and elsewhere each u-step runs CG. The CG u-step of
outer iteration k stops at relative tolerance max(cg_tol, c / k^3): the
errors are summable, which relaxed ADMM needs to keep its fixed point
(Eckstein & Bertsekas, Math. Programming 55, 1992, Thm. 8), and a
continued solve counts k on from its start's iterations.
The d- and b-updates are over-relaxed with alpha = 1.5 (Boyd et al.,
"Distributed optimization and statistical learning via ADMM", 2011, sec.
3.4.3); the fixed point is unchanged. Each iterate's energy takes its
prior term from the Phi u of the shrink step and its data term from one
K apply, and equals neg_log_posterior bit for bit. Every result carries
the subgradient certificate

    p_hat = -(1/lam) K^T P (K u_hat - f),

which must lie in the subdifferential of J at the estimate. The one
stopping rule is the distance of p_hat from that subdifferential, the
KKT residual (Boyd et al. 2011, sec. 3.3): a result has converged
exactly when it is at most ``tol_residual``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import model as _model
from .grids import format_positional
from .model import Posterior
from .operators import sparse_columns
from .priors import Prior, forward_differences

_log = logging.getLogger(__name__)

# relative cutoff separating zero from active coefficients in the
# subdifferential test; coarser than machine-level so solver ripple on
# truly-zero coefficients is not misread as an active sign constraint
_ZERO_COEF_RTOL = 1e-6

# over-relaxation alpha: the d- and b-updates read
# alpha Phi u + (1 - alpha) d_prev in place of Phi u
_RELAXATION = 1.5

# c of the CG u-step tolerance schedule max(cg_tol, c / k^3), k the outer
# iteration
_CG_TOL_SCALE = 1e-2

# CG iteration cap of a u-step; the Gaussian solve allows max(this, 10 n)
_CG_MAX_ITERS = 500


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_map`; the defaults suit the desk-scale runs."""

    penalty: Optional[float] = None  # splitting weight mu; default: lam
    max_iters: int = 2000
    tol_residual: float = 1e-6
    cg_tol: float = 1e-10
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.penalty is not None and self.penalty <= 0:
            raise ValueError("penalty must be positive")
        for name in ("tol_residual", "cg_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class MapResult:
    estimate: np.ndarray = field(repr=False)
    subgradient_cert: np.ndarray = field(repr=False)
    iterations: int
    final_energy: float
    residual_norm: float
    converged: bool
    energy_trace: np.ndarray = field(repr=False, default=None)  # type: ignore
    # terminal splitting variable (Phi domain); exactly sparse for l1-type
    # priors, which makes it the right object for sparsity counting
    split_coefficients: Optional[np.ndarray] = field(repr=False, default=None)
    # CG iterations of all u-steps of the solve; 0 when every u-step is exact
    cg_iterations: int = 0
    # terminal scaled dual times the penalty, mu b, so no penalty is baked in
    dual: Optional[np.ndarray] = field(repr=False, default=None)


def _cg(apply_a: Callable, rhs: np.ndarray, x0: np.ndarray, tol: float,
        max_iters: int) -> tuple[np.ndarray, int]:
    """Conjugate gradients for SPD apply_a.

    Logs a warning on near-singular curvature, which signals a large
    null-space component in the normal operator.
    """
    x = x0.copy()
    r = rhs - apply_a(x)
    stop = (tol * np.linalg.norm(rhs)) ** 2
    rr = float(r @ r)
    if rr <= stop:
        return x, 0
    p = r.copy()
    for it in range(1, max_iters + 1):
        ap = apply_a(p)
        curv = float(p @ ap)
        if curv <= 1e-14 * float(p @ p):
            _log.warning("CG detected near-singular curvature; the "
                         "minimizer may have a large null-space component")
            return x, it
        alpha = rr / curv
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        if rr_new <= stop:
            return x, it
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, max_iters


def subgradient_certificate(post: Posterior, estimate: np.ndarray) -> np.ndarray:
    """-(1/lam) K^T P (K u - f) for the given point."""
    return -_model.data_misfit_gradient(post, estimate) / post.prior.lam


def _banded_tv_solver(post: Posterior, mu: float) -> Callable:
    """Exact solve with A = K^T P K + mu D^T D, factored once.

    A is assembled sparse from the CSC matrix of K; its band is as wide as
    the widest coupling of two cells through one data row (about n/m + 1
    for interval averages), and only that band is stored and factored.
    A is singular exactly when K maps constants to zero; the TV MAP
    estimate is then not unique, and the solve is refused.
    """
    import scipy.sparse as sp
    from scipy.linalg import cholesky_banded, get_lapack_funcs

    kmat = sparse_columns(post.operator)
    n = kmat.shape[1]
    if not np.any(kmat @ np.ones(n)):
        raise ValueError("TV prior with an operator that maps constants to "
                         "zero: the MAP estimate is not unique")
    dtd = sp.diags_array([np.r_[1.0, np.full(n - 2, 2.0), 1.0], -np.ones(n - 1)],
                         offsets=[0, 1], shape=(n, n))
    kt_p_k = kmat.T @ (sp.diags_array(post.noise.precision_diag) @ kmat)
    upper = sp.triu(kt_p_k + mu * dtd, format="coo")
    band = int((upper.col - upper.row).max())
    ab = np.zeros((band + 1, n))
    ab[band + upper.row - upper.col, upper.col] = upper.data
    factor = cholesky_banded(ab)
    # LAPACK directly: cho_solve_banded re-checks the fixed factor for
    # non-finite values on every call
    pbtrs, = get_lapack_funcs(("pbtrs",), (factor,))

    def solve(rhs):
        u, info = pbtrs(factor, rhs)
        if info != 0:
            raise ValueError(f"pbtrs: illegal value in argument {-info}")
        return u
    return solve


def _exact_u_step(post: Posterior, mu: float) -> Optional[Callable]:
    """Direct solver of the u-step system where its structure is known.

    TV: a banded Cholesky factor. A blur with DCT eigenvalues s and P = p I
    (Phi^T Phi = I for the other priors): A = C^T (p s^2 + mu) C, a
    pointwise division in DCT space, with the DCT applied as dense matrices
    along each axis. None otherwise (the u-step then runs CG).
    """
    if post.prior.kind == "tv1d":
        return _banded_tv_solver(post, mu)
    s = post.operator.dct_eigenvalues
    p = post.noise.precision_diag
    if s is None or np.any(p != p[0]):
        return None
    # a 1-D grid as one column: the DCT of length 1 is the identity
    shape = s.shape if s.ndim == 2 else (s.size, 1)
    denom = (p[0] * s * s + mu).reshape(shape)
    c_r, c_s = (_dct_matrix(m) for m in shape)
    return lambda rhs: (c_r.T @ ((c_r @ rhs.reshape(shape) @ c_s.T) / denom)
                        @ c_s).reshape(-1)


def _dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II, C[k, i] ~ cos(pi k (i + 1/2) / n)."""
    k = np.arange(n)[:, None]
    return (np.sqrt((2.0 - (k == 0)) / n)
            * np.cos(np.pi / n * k * (np.arange(n) + 0.5)))


def _split_structure(prior: Prior, n: int):
    """(phi, threshold weights): the identity (None) for pixel l1, forward
    differences for TV, the orthonormal wavelet for Besov."""
    if prior.kind == "l1":
        return None, np.ones(n)
    if prior.kind == "tv1d":
        return forward_differences(n), np.ones(n - 1)
    if prior.kind == "besov":
        return prior.transform, prior.weights
    raise ValueError(f"no splitting for prior '{prior.kind}'")


def solve_map(post: Posterior, opts: Optional[SolverOptions] = None,
              start: Optional[MapResult] = None) -> MapResult:
    """Minimize the negative log posterior; deterministic given inputs.

    Gaussian priors go through a single CG solve of the normal equations;
    all other priors run the alternating splitting scheme, with an exact
    u-step where :func:`_exact_u_step` finds one. The solve has converged
    exactly when the KKT residual of the returned estimate is at most
    ``tol_residual``; otherwise ``converged=False`` and a warning is
    logged, with the best finite iterate still returned. ``start``, an
    earlier result of the same posterior, is continued from its estimate
    and, for the splitting, its terminal d and dual; the continued solve
    obeys ``opts`` and counts only its own iterations, none when ``start``
    already meets ``tol_residual``.
    """
    opts = opts or SolverOptions()
    if post.prior.kind == "gaussian":
        u, cg_iterations = _gaussian_solve(post, opts, start)
        energy = _model.neg_log_posterior(post, u)
        iterations, energies, residuals = cg_iterations, [energy], [np.nan]
        split = dual = None
    else:
        (u, energy, iterations, energies, residuals, split, dual,
         cg_iterations) = _split_bregman(post, opts, start)
    residual = _residual_norm(post, u)
    converged = residual <= opts.tol_residual
    if not converged:
        _log.warning("solve_map: no convergence within %d iterations "
                     "(residual %.3e)", iterations, residual)
    if residuals:
        residuals[-1] = residual
    _write_trace(opts.trace_path, energies, residuals)
    return MapResult(u, subgradient_certificate(post, u), iterations, energy,
                     residual, converged, np.asarray(energies),
                     split_coefficients=split, cg_iterations=cg_iterations,
                     dual=dual)


def _gaussian_solve(post: Posterior, opts: SolverOptions,
                    start: Optional[MapResult]):
    """(estimate, CG iterations) from the normal equations."""
    k, prec, prior = post.operator, post.noise.apply_precision, post.prior
    l_mat = prior.l_matrix
    lt_l = None if l_mat is None else l_mat.T @ l_mat
    apply_a = lambda u: (k.adjoint_apply(prec(k.apply(u)))
                         + prior.beta * (u if lt_l is None else lt_l @ u))
    x0 = np.zeros(k.in_dim) if start is None else start.estimate
    return _cg(apply_a, k.adjoint_apply(prec(post.data.values)), x0,
               opts.cg_tol, max(_CG_MAX_ITERS, 10 * k.in_dim))


def _split_bregman(post: Posterior, opts: SolverOptions,
                   start: Optional[MapResult]):
    """The over-relaxed splitting loop, up to its raw outputs.

    Stops at max_iters, at a non-finite iterate, or when the best
    iterate's KKT residual, tested every 10 iterations, meets tol_residual.
    """
    k = post.operator
    prior = post.prior
    lam = prior.lam
    n = k.in_dim
    f = post.data.values
    prec = post.noise.apply_precision
    # The splitting iterates are not energy-monotone in general; the solver
    # therefore reports the lowest-energy iterate visited, and the recorded
    # energy trace is that running best.
    rhs_data = k.adjoint_apply(prec(f))
    phi, weights = _split_structure(prior, n)
    mu = opts.penalty if opts.penalty is not None else lam
    thresh = (lam / mu) * weights

    if phi is None:
        phi_apply = phi_adj = lambda u: u
        m_split = n
    else:
        phi_apply, phi_adj, m_split = phi.apply, phi.adjoint_apply, phi.out_dim

    # CG serves only the priors with Phi^T Phi = I; TV takes the banded step
    apply_a = lambda u: k.adjoint_apply(prec(k.apply(u))) + mu * u

    # the prior term of the energy from pu = Phi u, which the shrink step
    # needs anyway; the same arithmetic as prior.energy(u)
    if prior.weights is not None:
        prior_energy = lambda pu: float(np.abs(pu) @ prior.weights)
    else:
        prior_energy = lambda pu: float(np.abs(pu).sum())

    exact = _exact_u_step(post, mu)
    cg_iterations = 0

    if start is None:
        u, d, b = np.zeros(n), np.zeros(m_split), np.zeros(m_split)
        k0 = 0
    else:
        u, d, b = start.estimate, start.split_coefficients, start.dual / mu
        k0 = start.iterations
    u_best = u.copy()
    e_best = _model.neg_log_posterior(post, u)
    if start is not None and _residual_norm(post, u) <= opts.tol_residual:
        return u_best, e_best, 0, [], [], d.copy(), start.dual, 0
    energies, residuals, it = [], [], 0
    for it in range(1, opts.max_iters + 1):
        rhs = rhs_data + mu * phi_adj(d - b)
        if exact is not None:
            u = exact(rhs)
        else:
            cg_tol = max(opts.cg_tol, _CG_TOL_SCALE / (k0 + it) ** 3)
            u, its = _cg(apply_a, rhs, u, cg_tol, _CG_MAX_ITERS)
            cg_iterations += its
        pu = phi_apply(u)
        relaxed = _RELAXATION * pu + (1.0 - _RELAXATION) * d
        v = relaxed + b
        d = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        b = b + relaxed - d
        # neg_log_posterior(post, u), term for term
        energy = (0.5 * _model.weighted_sq_norm(f - k.apply(u), post.noise)
                  + lam * prior_energy(pu))
        if not np.isfinite(energy):
            _log.warning("solve_map: non-finite iterate at iteration %d", it)
            break
        if energy < e_best:
            e_best = energy
            u_best = u.copy()
        energies.append(e_best)
        residuals.append(np.nan)
        if it % 10 == 0:
            residuals[-1] = _residual_norm(post, u_best)
            if residuals[-1] <= opts.tol_residual:
                break
    return (u_best, e_best, it, energies, residuals, d.copy(), mu * b,
            cg_iterations)


def _box_violation(eta: np.ndarray, coef: np.ndarray, w: np.ndarray) -> float:
    """Distance of eta from the weighted sign subdifferential at coef."""
    scale = np.abs(coef).max()
    zero = np.abs(coef) <= _ZERO_COEF_RTOL * max(scale, 1e-300)
    viol_zero = np.maximum(np.abs(eta) - w, 0.0)
    viol_active = np.abs(eta - w * np.sign(coef))
    return float(np.max(np.where(zero, viol_zero, viol_active), initial=0.0))


def _residual_norm(post: Posterior, estimate: np.ndarray) -> float:
    prior = post.prior
    p_hat = subgradient_certificate(post, estimate)
    lam = prior.lam

    if prior.kind == "gaussian":
        grad = _model.data_misfit_gradient(post, estimate)
        return float(np.abs(grad + lam * prior.subgradient(estimate)).max())
    if prior.kind in ("l1", "besov"):
        # Phi = I or W, orthonormal: p_hat = Phi^T eta gives eta = Phi p_hat
        phi, weights = _split_structure(prior, estimate.size)
        if phi is not None:
            p_hat, estimate = phi.apply(p_hat), phi.apply(estimate)
        return _box_violation(p_hat, estimate, weights)
    if prior.kind == "tv1d":
        # p_hat = D^T eta determines eta by cumulative sums and forces
        # the components of p_hat to sum to zero
        eta = -np.cumsum(p_hat)[:-1]
        mismatch = abs(float(p_hat.sum()))
        d = np.diff(estimate)
        return max(mismatch, _box_violation(eta, d, np.ones_like(d)))
    raise ValueError(f"no subdifferential characterization for prior "
                     f"'{prior.kind}'")


def optimality_residual(post: Posterior, result: MapResult) -> float:
    """Distance of the certificate from the subdifferential at the estimate.

    Zero (up to solver tolerance) certifies that the estimate satisfies the
    MAP optimality condition.
    """
    return _residual_norm(post, result.estimate)


def _write_trace(path, energies, residuals) -> None:
    """Convergence trace CSV, CRLF line ends; residual empty between checks."""
    if path is None:
        return
    rows = zip(format_positional(energies), format_positional(residuals))
    lines = ["iteration,energy,residual"] + [
        f"{i},{e},{'' if r == 'nan' else r}"
        for i, (e, r) in enumerate(rows, start=1)]
    Path(path).write_text("\n".join(lines) + "\n", newline="\r\n")
