"""Scenario builders, data generation, lambda selection, and experiment runs.

Three bundled scenarios at desk scale:

* ``deblur2d`` -- spots phantom, Gaussian blur (sigma 0.015), pixel l1 prior;
* ``tv1d``     -- indicator of [1/3, 2/3], interval-averaged measurements,
                  1D TV prior, with the lambda-scaling sweep;
* ``ct2d``     -- Shepp-Logan phantom, parallel-beam Radon, Besov (Haar) prior
                  with the sparsity-matching lambda rule.

Synthetic data is always generated on a finer grid than the
reconstruction (``truth_factor`` times per axis) with a separate forward
operator, so reconstruction never inverts the operator that produced the
data.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, NoReturn, Optional

import numpy as np

from .bayescost import (CheckReport, CostSpec, centered_energy_check,
                        cm_optimality_check, theorem_ineq_check,
                        verify_bayes_optimality)
from .grids import Grid, Signal, grid1d, grid2d
from .map_solver import MapResult, SolverOptions, solve_map
from .model import GaussianNoiseModel, Posterior, weighted_sq_norm
from .operators import (LinearOperator, adjoint_probe_error,
                        cell_average_restriction, gaussian_blur, haar_transform,
                        identity, interval_average_1d, radon)
from .priors import (Prior, make_besov_prior, make_l1_prior,
                     make_tv1d_prior)
from .sampling import (Chain, ChainSummary, gibbs_layout, rwm_layout,
                       sample_gibbs, sample_rwm, summarize,
                       two_chain_discrepancy)

_log = logging.getLogger(__name__)

# each scenario's run defaults, which ScenarioConfig fills into the fields
# left None (lam under the fixed rule, and tv1d's under every rule); a
# scenario without a step samples by Gibbs
_SCENARIO_DEFAULTS = {
    "deblur2d": {"recon_shape": (64, 64), "noise_fraction": 0.1, "lam": 6.0,
                 "lambda_rule": "fixed", "s_curve_bracket": (1e-3, 1e2)},
    "tv1d": {"recon_shape": (63,), "noise_fraction": 0.1, "lam": 2.0,
             "lambda_rule": "fixed", "s_curve_bracket": (1e-3, 1e2)},
    "ct2d": {"recon_shape": (64, 64), "noise_fraction": 0.01, "lam": None,
             "lambda_rule": "s_curve", "s_curve_bracket": (0.5, 5000.0),
             "rwm_step": 2.4},
}
SCENARIOS = tuple(_SCENARIO_DEFAULTS)
SCENARIO_SOLVER = SolverOptions(max_iters=3000, tol_residual=1e-4)


class Refused(ValueError):
    """A run stopped because a MAP solve it rests on did not converge."""


class UsageError(ValueError):
    """A run stopped before any work: its config asks for too few draws,
    or for the dilemma sweep on a scenario other than tv1d."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment bit for bit."""

    name: str
    seed: int = 0
    recon_shape: Optional[tuple[int, ...]] = None  # scenario default
    truth_factor: int = 4
    noise_fraction: Optional[float] = None  # scenario default
    # lambda rule
    lam: Optional[float] = None  # scenario default under the fixed rule
    lambda_rule: Optional[str] = None  # scenario default; fixed | sqrt_n | s_curve
    rule_constant: float = 1.0
    s_curve_target: Optional[float] = None  # None: truth coefficient sparsity
    s_curve_bracket: Optional[tuple[float, float]] = None  # scenario default
    s_curve_tol: float = 0.02
    # solver / sampler
    solver: SolverOptions = SCENARIO_SOLVER
    n_samples: int = 600
    burn_in: Optional[int] = None  # None: 10% of n_samples
    thinning: int = 1
    rwm_step: Optional[float] = None  # scenario default; RWM only
    n_chains: int = 2
    # scenario specifics
    spots: int = 14
    spot_radius_range: tuple[float, float] = (0.01, 0.02)
    spot_intensity_range: tuple[float, float] = (0.7, 1.3)
    kernel_sigma: float = 0.015
    data_size: int = 30
    sweep: tuple[int, ...] = (63, 255, 1023, 4095)
    angles: int = 15
    bins: int = 95
    wavelet_levels: Optional[int] = None
    weights_csv: Optional[str] = None  # per-coefficient Besov weights

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}")
        defaults = _SCENARIO_DEFAULTS[self.name]
        if self.rwm_step is not None and "rwm_step" not in defaults:
            raise ValueError(f"[sampler] step: {self.name} samples by Gibbs, "
                             f"which takes no step")
        for key, value in defaults.items():
            if getattr(self, key) is None and key != "lam":
                object.__setattr__(self, key, value)
        if self.lambda_rule not in ("fixed", "sqrt_n", "s_curve"):
            raise ValueError(f"unknown lambda rule {self.lambda_rule!r}")
        if self.name == "tv1d" and self.lambda_rule == "s_curve":
            raise ValueError("[prior] rule = s_curve: tv1d's target would "
                             "count nonzero pixels, its MAP's differences")
        # the dilemma sweep reads tv1d's lam under every rule
        if self.lam is None and (self.lambda_rule == "fixed"
                                 or self.name == "tv1d"):
            object.__setattr__(self, "lam", defaults["lam"])
        if (self.lam is not None and self.lambda_rule != "fixed"
                and self.name != "tv1d"):
            raise ValueError(f"[prior] lambda: {self.name} reads it only "
                             f"under the fixed rule, not {self.lambda_rule}")
        shape = tuple(self.recon_shape)
        object.__setattr__(self, "recon_shape", shape)
        if (len(shape) != len(defaults["recon_shape"])
                or len(set(shape)) != 1 or min(shape) < 1):
            raise ValueError(f"[grid] shape = {' '.join(map(str, shape))}: "
                             f"{self.name} needs one side, or two equal ones")
        if (self.n_samples < 1 or self.thinning < 1 or self.n_chains < 2
                or (self.burn_in or 0) < 0
                or (self.rwm_step is not None and self.rwm_step <= 0)):
            raise ValueError(f"[sampler] needs samples, thinning >= 1, "
                             f"chains >= 2 (two chains are compared), "
                             f"burn_in >= 0, step > 0; got {self.n_samples}, "
                             f"{self.thinning}, {self.n_chains}, "
                             f"{self.burn_in}, {self.rwm_step}")
        if self.noise_fraction <= 0:
            raise ValueError("noise fraction must be positive")
        if self.truth_factor < 1 or int(self.truth_factor) != self.truth_factor:
            raise ValueError("truth grid factor must be a positive integer")
        if self.lambda_rule == "fixed" and self.lam is None:
            raise ValueError("fixed lambda rule needs a lambda value")
        lo, hi = self.s_curve_bracket
        if not 0 < lo < hi:
            raise ValueError(f"[prior] s_curve_bracket needs 0 < lo < hi, "
                             f"got {lo} {hi}")
        if self.kernel_sigma <= 0:
            raise ValueError(f"[deblur2d] kernel_sigma must be positive, got "
                             f"{self.kernel_sigma}")
        side = shape[0]
        if self.name == "ct2d" and (
                side & (side - 1) or min(self.angles, self.bins) < 1
                or not 1 <= (self.wavelet_levels or 1) < side.bit_length()):
            raise ValueError(f"[ct2d] needs a power-of-two side >= 2 (Haar), "
                             f"wavelet_levels in [1, log2 side], angles and "
                             f"bins >= 1; got {side}, {self.wavelet_levels}, "
                             f"{self.angles}, {self.bins}")


# ---------------------------------------------------------------------------
# phantoms
# ---------------------------------------------------------------------------


def build_spots_phantom(grid: Grid, n_spots: int, seed: int = 0,
                        radius_range=(0.05, 0.09),
                        intensity_range=(0.7, 1.3),
                        max_retries: int = 2000) -> Signal:
    """Non-overlapping constant-intensity disks with varying radii/intensity.

    Deterministic for a given seed. Raises when ``n_spots`` cannot be
    placed without overlap within ``max_retries`` draws.
    """
    if grid.dim != 2:
        raise ValueError("spots phantom needs a 2D grid")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 101]))
    centers: list[tuple[float, float, float]] = []
    tries = 0
    while len(centers) < n_spots:
        if tries >= max_retries:
            raise RuntimeError(f"could not place {n_spots} spots "
                               f"without overlap after {max_retries} tries")
        tries += 1
        r = rng.uniform(*radius_range)
        cx = rng.uniform(r + 0.02, 1.0 - r - 0.02)
        cy = rng.uniform(r + 0.02, 1.0 - r - 0.02)
        if all((cx - ox) ** 2 + (cy - oy) ** 2 > (r + orr + 0.01) ** 2
               for ox, oy, orr in centers):
            centers.append((cx, cy, r))
    ys = grid.cell_centers(0)
    xs = grid.cell_centers(1)
    xg, yg = np.meshgrid(xs, ys)
    img = np.zeros(grid.shape)
    for cx, cy, r in centers:
        inten = rng.uniform(*intensity_range)
        img[(xg - cx) ** 2 + (yg - cy) ** 2 <= r * r] = inten
    return Signal(grid, img.reshape(-1))


def build_indicator_1d(grid: Grid) -> Signal:
    """Indicator of [1/3, 2/3] sampled at cell centers."""
    if grid.dim != 1:
        raise ValueError("indicator phantom needs a 1D grid")
    x = grid.cell_centers(0)
    return Signal(grid, ((x >= 1.0 / 3.0) & (x <= 2.0 / 3.0)).astype(float))


# standard intensity table: (value, half-axis a, half-axis b, x0, y0, phi_deg)
_SHEPP_LOGAN = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6050, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)


def build_shepp_logan(grid: Grid) -> Signal:
    """Ten-ellipse head phantom with the standard (low contrast) intensities.

    Ellipse values compose additively and the image is clamped to [0, 1];
    evaluated at cell centers of the unit square mapped to [-1, 1]^2.
    """
    if grid.dim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError("phantom needs a square 2D grid")
    ys = 1.0 - 2.0 * grid.cell_centers(0)  # row 0 at the top
    xs = 2.0 * grid.cell_centers(1) - 1.0
    xg, yg = np.meshgrid(xs, ys)
    img = np.zeros(grid.shape)
    for val, a, b, x0, y0, phi_deg in _SHEPP_LOGAN:
        phi = math.radians(phi_deg)
        ct, st = math.cos(phi), math.sin(phi)
        dx = xg - x0
        dy = yg - y0
        xr = dx * ct + dy * st
        yr = -dx * st + dy * ct
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
    return Signal(grid, np.clip(img, 0.0, 1.0).reshape(-1))


# ---------------------------------------------------------------------------
# data generation and lambda rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedData:
    data: Signal
    sigma: float
    noiseless: Signal


def generate_data(truth: Signal, k_fine: LinearOperator,
                  restrict: LinearOperator, noise_fraction: float,
                  seed: int, data_grid: Grid) -> GeneratedData:
    """f = restrict(K_fine u) + eps with sigma = fraction * sup|noiseless|."""
    clean = restrict.apply(k_fine.apply(truth.values))
    sup = float(np.abs(clean).max())
    if sup == 0.0:
        raise ValueError("forward image is identically zero; sigma undefined")
    sigma = noise_fraction * sup
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 917]))
    noisy = clean + sigma * rng.standard_normal(clean.size)
    return GeneratedData(Signal(data_grid, noisy), sigma, Signal(data_grid, clean))


def lambda_sqrt_rule(n: int, c: float) -> float:
    """lambda_n = c sqrt(n + 1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if c <= 0:
        raise ValueError("constant must be positive")
    return c * math.sqrt(n + 1.0)


def coefficient_sparsity(prior: Prior, u: np.ndarray,
                         rtol: float = 1e-8) -> float:
    """Fraction of transform coefficients of u above rtol * max |coef|."""
    coef = u if prior.transform is None else prior.transform.apply(u)
    return _nonzero_fraction(coef, rtol)


def _nonzero_fraction(coef: np.ndarray, rtol: float = 1e-8) -> float:
    top = np.abs(coef).max()
    if top == 0.0:
        return 0.0
    return float(np.mean(np.abs(coef) > rtol * top))


def map_sparsity(post: Posterior, result: MapResult) -> float:
    """Coefficient sparsity of a MAP estimate.

    Prefers the terminal splitting variable, whose entries are exactly
    zero where the shrinkage killed them; CG ripple on the primal iterate
    would otherwise read as spurious nonzeros.
    """
    if result.split_coefficients is not None and post.prior.kind != "gaussian":
        return _nonzero_fraction(result.split_coefficients)
    return coefficient_sparsity(post.prior, result.estimate)


def s_curve_select_lambda(posterior_factory: Callable[[float], Posterior],
                          target_sparsity: float,
                          bracket: tuple[float, float],
                          tol: float = 0.02,
                          solver: Optional[SolverOptions] = None,
                          max_steps: int = 40,
                          on_solve: Callable[[float, MapResult], None]
                          = lambda lam, res: None) -> tuple[float, list[dict]]:
    """Bisection on lambda until the MAP coefficient sparsity hits the target.

    Returns lambda and the evaluated solves ``{lambda, sparsity,
    iterations, cg_iterations, residual, converged}`` in evaluation order;
    ``on_solve(lambda, result)`` sees each accepted solve. The midpoints
    depend only on how each midpoint's sparsity compares with the target,
    so the bracket ends are solved only when no midpoint comes within
    ``tol``; raises when they do not straddle the target, when the
    evaluated sparsities are not non-increasing in lambda, or when a
    solve does not converge.
    """
    if not 0.0 < target_sparsity < 1.0:
        raise ValueError("target sparsity must be in (0, 1)")
    lo, hi = bracket  # 0 < lo < hi, checked by ScenarioConfig
    solver = solver or SolverOptions(max_iters=400)
    evaluated: list[dict] = []

    def sparsity_at(lam: float) -> float:
        post = posterior_factory(lam)
        res = solve_map(post, solver)
        if not res.converged:
            raise Refused(f"s-curve solve at lambda {lam:.6g} did not "
                          f"converge within {res.iterations} iterations "
                          f"(residual {res.residual_norm:.3e})")
        s = map_sparsity(post, res)
        evaluated.append({"lambda": lam, "sparsity": s,
                          "iterations": res.iterations,
                          "cg_iterations": res.cg_iterations,
                          "residual": res.residual_norm,
                          "converged": res.converged})
        curve = sorted((e["lambda"], e["sparsity"]) for e in evaluated)
        if any(s2 > s1 for (_, s1), (_, s2) in zip(curve, curve[1:])):
            pairs = ", ".join(f"{x:.6g} -> {y:.4f}" for x, y in curve)
            raise ValueError(f"sparsity is not non-increasing in lambda: "
                             f"{pairs}")
        on_solve(lam, res)
        return s

    for _ in range(max_steps):
        mid = math.sqrt(lo * hi)  # bisection in log lambda
        s_mid = sparsity_at(mid)
        if abs(s_mid - target_sparsity) <= tol:
            return mid, evaluated
        if s_mid > target_sparsity:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-3:
            break
    s_lo = sparsity_at(bracket[0])
    s_hi = sparsity_at(bracket[1])
    if not (s_hi <= target_sparsity <= s_lo):
        raise ValueError(
            f"bracket sparsities [{s_hi:.3f}, {s_lo:.3f}] do not straddle "
            f"target {target_sparsity:.3f}")
    return math.sqrt(lo * hi), evaluated


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioParts:
    """One scenario's operators, grids, truth, and prior factory."""

    config: ScenarioConfig
    recon_grid: Grid
    data_grid: Grid
    truth_fine: Signal
    truth_on_recon: Signal
    forward_fine: LinearOperator
    restrict: LinearOperator
    recon_operator: LinearOperator
    make_prior: Callable[[float], Prior]
    sampler_method: str  # gibbs | rwm


def _check_operators(*ops: LinearOperator) -> None:
    rng = np.random.default_rng(711)
    for op in ops:
        err = adjoint_probe_error(op, rng, n_probes=5)
        if err > 1e-9:
            raise AssertionError(f"{op.name}: adjoint defect {err:.2e}")


def build_deblur2d(cfg: ScenarioConfig) -> ScenarioParts:
    side = cfg.recon_shape[0]
    recon = grid2d(side, side)
    fine = grid2d(side * cfg.truth_factor, side * cfg.truth_factor)
    truth = build_spots_phantom(fine, cfg.spots, cfg.seed,
                                radius_range=cfg.spot_radius_range,
                                intensity_range=cfg.spot_intensity_range)
    k_fine = gaussian_blur(fine, cfg.kernel_sigma)
    restrict = cell_average_restriction(fine, recon)
    k_recon = gaussian_blur(recon, cfg.kernel_sigma)
    _check_operators(k_fine, restrict, k_recon)
    truth_recon = Signal(recon, restrict.apply(truth.values))
    return ScenarioParts(cfg, recon, recon, truth, truth_recon, k_fine,
                         restrict, k_recon, lambda lam: make_l1_prior(lam),
                         "gibbs")


def build_tv1d(cfg: ScenarioConfig, n: Optional[int] = None) -> ScenarioParts:
    n = n if n is not None else cfg.recon_shape[0]
    recon = grid1d(n)
    m = cfg.data_size
    fine_n = cfg.truth_factor * max(max(cfg.sweep), n)
    fine = grid1d(fine_n)
    truth = build_indicator_1d(fine)
    k_fine = interval_average_1d(fine, m)
    k_recon = interval_average_1d(recon, m)
    _check_operators(k_fine, k_recon)
    data_grid = grid1d(m)
    restrict = identity(m)
    truth_recon = Signal(recon, build_indicator_1d(recon).values)
    return ScenarioParts(cfg, recon, data_grid, truth, truth_recon, k_fine,
                         restrict, k_recon, lambda lam: make_tv1d_prior(lam),
                         "gibbs")


def build_ct2d(cfg: ScenarioConfig) -> ScenarioParts:
    side = cfg.recon_shape[0]
    recon = grid2d(side, side)
    fine = grid2d(side * cfg.truth_factor, side * cfg.truth_factor)
    truth = build_shepp_logan(fine)
    k_fine = radon(fine, cfg.angles, cfg.bins)
    k_recon = radon(recon, cfg.angles, cfg.bins)
    _check_operators(k_fine, k_recon)
    data_grid = grid2d(cfg.angles, cfg.bins)
    restrict = identity(cfg.angles * cfg.bins)
    truth_recon = Signal(recon,
                         cell_average_restriction(fine, recon).apply(truth.values))
    levels = cfg.wavelet_levels
    wavelet = haar_transform(recon, levels)
    if cfg.weights_csv is not None:
        from .priors import load_weights_csv

        weights = load_weights_csv(cfg.weights_csv)
    else:
        weights = np.ones(recon.size)

    def make_prior(lam: float) -> Prior:
        return make_besov_prior(lam, weights, wavelet)

    return ScenarioParts(cfg, recon, data_grid, truth, truth_recon, k_fine,
                         restrict, k_recon, make_prior, "rwm")


def build_scenario(cfg: ScenarioConfig) -> ScenarioParts:
    if cfg.name == "deblur2d":
        return build_deblur2d(cfg)
    if cfg.name == "tv1d":
        return build_tv1d(cfg)
    return build_ct2d(cfg)


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    config: ScenarioConfig
    parts: ScenarioParts
    data: GeneratedData
    lam: float
    posterior: Posterior
    map_result: MapResult
    chains: list[Chain]  # empty when run without CM
    cm: Optional[ChainSummary]
    metrics: dict
    reports: list


def resolve_lambda(cfg: ScenarioConfig, parts: ScenarioParts,
                   data: GeneratedData
                   ) -> tuple[float, list[dict], Optional[MapResult]]:
    """lambda under the config's rule, the s-curve search's solves, and
    the search's solve at that lambda (empty and None for the fixed and
    sqrt rules, and None when the search settles between bracket ends)."""
    if cfg.lambda_rule == "fixed":
        return float(cfg.lam), [], None
    if cfg.lambda_rule == "sqrt_n":
        lam = lambda_sqrt_rule(parts.recon_grid.size, cfg.rule_constant)
        return lam, [], None
    # s_curve: match the truth's coefficient sparsity
    def factory(lam: float) -> Posterior:
        return assemble_posterior(parts, data, lam)

    probe_prior = parts.make_prior(1.0)
    target = cfg.s_curve_target
    if target is None:
        target = coefficient_sparsity(probe_prior, parts.truth_on_recon.values)
    # sparsity counting needs only moderate accuracy per solve, so its
    # u-steps run CG to 10x cg_tol; the KKT residual still certifies each
    base = scenario_solver_options(cfg, 1.0, factory(1.0))
    search_solver = replace(base, max_iters=400, tol_residual=1e-3,
                            cg_tol=10.0 * base.cg_tol, trace_path=None)
    solves: dict[float, MapResult] = {}
    lam, search = s_curve_select_lambda(factory, target, cfg.s_curve_bracket,
                                        cfg.s_curve_tol, solver=search_solver,
                                        on_solve=solves.__setitem__)
    return lam, search, solves.get(lam)


def assemble_posterior(parts: ScenarioParts, data: GeneratedData,
                       lam: float) -> Posterior:
    noise = GaussianNoiseModel.from_sigma(data.sigma, parts.data_grid.size)
    return Posterior(parts.recon_operator, data.data, noise,
                     parts.make_prior(lam), grid=parts.recon_grid)


def normal_matrix_diag_mean(post: Posterior, n_probes: int = 3) -> float:
    """Hutchinson estimate of trace(K^T P K)/n, the data curvature scale."""
    rng = np.random.default_rng(131)
    op = post.operator
    ku = op.apply(rng.choice([-1.0, 1.0], size=(n_probes, op.in_dim)))
    return float(np.mean(weighted_sq_norm(ku, post.noise) / op.in_dim))


def scenario_solver_options(cfg: ScenarioConfig, lam: float,
                            post: Posterior) -> SolverOptions:
    """Scenario-tuned splitting penalty when the config leaves it free.

    The TV splitting runs at 10x lambda (the shrink threshold then sits
    well under typical jump sizes); the image scenarios match the penalty
    to the mean data curvature so the inner least-squares stays balanced.
    """
    if cfg.solver.penalty is not None:
        return cfg.solver
    if cfg.name == "tv1d":
        penalty = 10.0 * lam
    else:
        penalty = max(normal_matrix_diag_mean(post), 1e-10)
    return replace(cfg.solver, penalty=penalty)


def chain_workers(n_chains: int) -> int:
    """Processes that sample a posterior's chains: one per usable CPU."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(n_chains, len(os.sched_getaffinity(0))))


def _send_and_exit(pipe_fd: int, work: Callable[[], list]) -> NoReturn:
    """Pickle ("ok", work()) or ("error", exc) to the pipe and end this forked
    child, running none of the parent's exit hooks nor flushing its buffers."""
    try:
        with os.fdopen(pipe_fd, "wb") as pipe:
            try:
                message = ("ok", work())
            except BaseException as exc:
                message = ("error", exc)
            pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def sample_posterior(post: Posterior, cfg: ScenarioConfig, method: str,
                     initial: Optional[np.ndarray] = None) -> list[Chain]:
    """The chains of ``post`` in index order, sharing one column structure.

    With W = ``chain_workers``, this process samples chains c = 0 (mod W)
    and W - 1 forked children sample the others. A chain depends only on
    ``(seed, chain_index)``, so the chains are bit-identical to a one-CPU
    run. A child's exception is raised again here, a child that dies
    without a result raises ``RuntimeError``, and every child is reaped.
    """
    burn = cfg.burn_in if cfg.burn_in is not None else max(1, cfg.n_samples // 10)
    if method == "gibbs":
        layout, sample, options = gibbs_layout(post), sample_gibbs, {}
    else:
        layout, sample = rwm_layout(post), sample_rwm
        options = {"step": cfg.rwm_step}

    def run(indices) -> list[Chain]:
        return [sample(post, cfg.n_samples, burn, cfg.thinning, seed=cfg.seed,
                       chain_index=c, initial=initial, layout=layout,
                       **options) for c in indices]

    workers = chain_workers(cfg.n_chains)
    shares = [range(w, cfg.n_chains, workers) for w in range(workers)]
    children = []  # (pid, pipe, chain indices) per forked worker
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _send_and_exit(write_fd, lambda: run(share))
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), share))
        chains = dict(zip(shares[0], run(shares[0])))
        for _, pipe, share in children:
            try:
                status, result = pickle.load(pipe)
            except Exception as exc:
                raise RuntimeError(f"the worker sampling chains {list(share)} "
                                   f"died without a result") from exc
            if status == "error":
                raise result
            chains.update(zip(share, result))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a no-op for a child that is done
            os.waitpid(pid, 0)
    return [chains[c] for c in range(cfg.n_chains)]


def _rel_l2(u: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(u - ref) / max(np.linalg.norm(ref), 1e-300))


def _merged_chain(chains: list[Chain]) -> Chain:
    return Chain(np.vstack([c.samples for c in chains]), seed=chains[0].seed,
                 burn_in=chains[0].burn_in, thinning=chains[0].thinning,
                 method=chains[0].method, grid=chains[0].grid)


def run_experiment(cfg: ScenarioConfig, verify: bool = False,
                   n_probes: int = 12, with_cm: bool = True) -> ExperimentRecord:
    """Build the scenario, generate data, estimate MAP and CM, compute metrics.

    With ``verify=True`` the full check suite runs on the merged chain:
    both optimality probes, the two expected-error inequalities, the
    MAP-centered energy identity, and the averaged CM optimality residual.
    It is refused when the MAP solve did not converge, since the Bregman
    checks rest on its certificate. With ``with_cm=False`` no chain is
    sampled and the record carries the MAP metrics only; verification
    needs the chains, so it is refused.
    """
    if verify and not with_cm:
        raise ValueError("verification needs the CM chains")
    if with_cm and cfg.n_samples * cfg.n_chains < 20:  # summarize's batches
        raise UsageError(f"the CM estimate needs at least 20 draws: [sampler] "
                         f"samples = {cfg.n_samples} times chains = "
                         f"{cfg.n_chains} gives {cfg.n_samples * cfg.n_chains}")
    parts = build_scenario(cfg)
    if cfg.truth_factor > 1:
        # inverse-crime guard
        if parts.forward_fine is parts.recon_operator:
            raise AssertionError("data and reconstruction share an operator")
        if parts.truth_fine.grid == parts.recon_grid:
            raise AssertionError("data and reconstruction share a grid")
    data = generate_data(parts.truth_fine, parts.forward_fine, parts.restrict,
                         cfg.noise_fraction, cfg.seed, parts.data_grid)
    lam, search, start = resolve_lambda(cfg, parts, data)
    post = assemble_posterior(parts, data, lam)
    # the final MAP continues the search's solve at lambda, to its own options
    map_result = solve_map(post, scenario_solver_options(cfg, lam, post),
                           start)
    if verify and not map_result.converged:
        raise Refused(f"verification needs a converged MAP: the solve "
                      f"stopped after {map_result.iterations} iterations "
                      f"(residual {map_result.residual_norm:.3e})")
    truth = parts.truth_on_recon.values
    prior = post.prior
    metrics = {
        "lambda": lam,
        "sigma": data.sigma,
        "rel_l2_map": _rel_l2(map_result.estimate, truth),
        "sup_range_map": float(map_result.estimate.max()
                               - map_result.estimate.min()),
        "prior_energy_map": prior.energy(map_result.estimate),
        "map_iterations": map_result.iterations,
        "map_cg_iterations": map_result.cg_iterations,
        "map_optimality_residual": map_result.residual_norm,
        "map_converged": map_result.converged,
        "map_continued_from_search": start is not None,
        "lambda_search": search,
    }
    if not with_cm:
        return ExperimentRecord(cfg, parts, data, lam, post, map_result, [],
                                None, metrics, [])
    start = time.perf_counter()
    chains = sample_posterior(post, cfg, parts.sampler_method)
    sample_s = time.perf_counter() - start
    updates = sum((c.burn_in + len(c) * c.thinning) * c.dim for c in chains)
    # Wall times stay out of metrics.json, so its bytes repeat between runs.
    _log.info("sampling: sample_s=%.4f coord_updates_per_s=%.6g workers=%d",
              sample_s, updates / sample_s, chain_workers(cfg.n_chains))
    merged = _merged_chain(chains)
    cm = summarize(merged)
    disc = two_chain_discrepancy(chains[0], chains[-1])
    metrics.update({
        "rel_l2_cm": _rel_l2(cm.mean, truth),
        "prior_energy_cm": prior.energy(cm.mean),
        "two_chain_sup": disc.sup,
        "two_chain_rel_l2": disc.rel_l2,
    })
    if chains[0].acceptance_rate is not None:
        metrics["acceptance_rate"] = chains[0].acceptance_rate
        metrics["acceptance_rates"] = [c.acceptance_rate for c in chains]
    reports = []
    if verify:
        reports = run_verification(post, map_result, merged, cm,
                                   n_probes=n_probes, seed=cfg.seed)
    return ExperimentRecord(cfg, parts, data, lam, post, map_result, chains,
                            cm, metrics, reports)


def run_verification(post: Posterior, map_result: MapResult, chain: Chain,
                     cm: ChainSummary, n_probes: int = 12,
                     seed: int = 0) -> list:
    """The full Bayes-cost check suite for one posterior."""
    prior = post.prior
    scale = max(float(np.abs(map_result.estimate).max()), 0.1)
    spec_brg = CostSpec.bregman(prior, post.operator, post.noise)
    spec_ls = CostSpec.ls(post.operator, post.noise)
    reports = [
        verify_bayes_optimality(chain, map_result.estimate, spec_brg,
                                n_probes=n_probes, probe_scale=scale,
                                seed=seed),
        verify_bayes_optimality(chain, cm.mean, spec_ls, n_probes=n_probes,
                                probe_scale=scale, seed=seed + 1),
        theorem_ineq_check(chain, map_result.estimate, cm.mean, None, prior),
        centered_energy_check(post, map_result, n_points=100, seed=seed),
        cm_optimality_check(post, chain),
    ]
    return reports


# ---------------------------------------------------------------------------
# the TV discretization-dilemma sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DilemmaLevel:
    n: int
    lam: float
    sup_range_map: float
    tv_map: float
    tv_cm: float
    rel_l2_map: float
    rel_l2_cm: float
    two_chain_sup: float
    two_chain_rel_l2: float
    map_converged: bool
    map_iterations: int


@dataclass(frozen=True)
class DilemmaReport(CheckReport):
    check: ClassVar[str] = "tv_dilemma"
    rule: str  # sqrt_n | fixed
    levels: list[DilemmaLevel]


def run_dilemma_sweep(cfg: ScenarioConfig, rule: str,
                      with_cm: bool = True) -> DilemmaReport:
    """MAP (and optionally CM) across the resolution sweep under one rule.

    ``rule='sqrt_n'`` scales lambda with c sqrt(n+1); ``rule='fixed'``
    keeps cfg.lam. Data is generated once on the fine grid and shared by
    every reconstruction level. Raises when a level's MAP solve does not
    converge.
    """
    if cfg.name != "tv1d":
        raise UsageError("the dilemma sweep needs a tv1d config")
    if rule not in ("sqrt_n", "fixed"):
        raise ValueError(f"unknown rule {rule!r}")
    base = build_tv1d(cfg, n=max(cfg.sweep))
    data = generate_data(base.truth_fine, base.forward_fine, base.restrict,
                         cfg.noise_fraction, cfg.seed, base.data_grid)
    levels = []
    tv_energy = make_tv1d_prior(1.0).energy
    for n in cfg.sweep:
        parts = build_tv1d(cfg, n=n)
        lam = (lambda_sqrt_rule(n, cfg.rule_constant) if rule == "sqrt_n"
               else float(cfg.lam))
        post = assemble_posterior(parts, data, lam)
        map_result = solve_map(post, scenario_solver_options(cfg, lam, post))
        if not map_result.converged:
            raise Refused(f"dilemma sweep, rule {rule}, n = {n}: MAP solve "
                          f"did not converge within "
                          f"{map_result.iterations} iterations (residual "
                          f"{map_result.residual_norm:.3e})")
        truth = parts.truth_on_recon.values
        if with_cm:
            chains = sample_posterior(post, cfg, "gibbs",
                                      initial=map_result.estimate)
            cm_mean = _merged_chain(chains).samples.mean(axis=0)
            disc = two_chain_discrepancy(chains[0], chains[-1])
            tv_cm = tv_energy(cm_mean)
            rel_cm = _rel_l2(cm_mean, truth)
            d_sup, d_rel = disc.sup, disc.rel_l2
        else:
            tv_cm = float("nan")
            rel_cm = float("nan")
            d_sup = d_rel = float("nan")
        est = map_result.estimate
        levels.append(DilemmaLevel(
            n=n, lam=lam,
            sup_range_map=float(est.max() - est.min()),
            tv_map=tv_energy(est),
            tv_cm=tv_cm,
            rel_l2_map=_rel_l2(est, truth),
            rel_l2_cm=rel_cm,
            two_chain_sup=d_sup,
            two_chain_rel_l2=d_rel,
            map_converged=map_result.converged,
            map_iterations=map_result.iterations,
        ))
    return DilemmaReport(rule, levels)
