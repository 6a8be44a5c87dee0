"""Bayes cost functions and executable checks of the estimator theory.

Two cost kinds, both evaluated by one block evaluator (``_CachedCost``):

    ls(u, uhat)      = ||K (uhat - u)||^2_P + beta ||L (uhat - u)||^2
    bregman(u, uhat) = ||K (uhat - u)||^2_P + 2 lam D_J(uhat, u)

The CM estimate minimizes the posterior expectation of the first, the MAP
estimate of the second; the checks below probe these optimality claims by
Monte Carlo with common random numbers, verify the two expected-error
inequalities between the estimates, certify the MAP-centered rewriting of
the posterior energy, and test the averaged optimality condition of the
CM estimate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import model as _model
from .grids import as_vector, row_dot
from .model import GaussianNoiseModel, Posterior, weighted_sq_norm
from .map_solver import MapResult
from .operators import LinearOperator
from .priors import Prior
from .sampling import Chain, batch_means_stderr


@dataclass(frozen=True)
class CostSpec:
    """Which cost to evaluate, with exactly the fields its kind demands."""

    kind: str  # ls | bregman
    operator: Optional[LinearOperator] = None
    noise: Optional[GaussianNoiseModel] = None
    l_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    beta: float = 1.0
    prior: Optional[Prior] = None

    def __post_init__(self):
        if self.kind == "ls":
            if self.beta < 0:
                raise ValueError("beta must be nonnegative")
            if (self.operator is None) != (self.noise is None):
                raise ValueError("operator and noise go together")
            if self.prior is not None:
                raise ValueError("ls cost takes no prior")
        elif self.kind == "bregman":
            if self.prior is None:
                raise ValueError("bregman cost needs a prior")
            if (self.operator is None) != (self.noise is None):
                raise ValueError("operator and noise go together")
        else:
            raise ValueError(f"unknown cost kind {self.kind!r}")

    @classmethod
    def ls(cls, operator: Optional[LinearOperator] = None,
           noise: Optional[GaussianNoiseModel] = None,
           l_matrix: Optional[np.ndarray] = None, beta: float = 1.0):
        return cls("ls", operator=operator, noise=noise, l_matrix=l_matrix,
                   beta=beta)

    @classmethod
    def bregman(cls, prior: Prior, operator: Optional[LinearOperator] = None,
                noise: Optional[GaussianNoiseModel] = None):
        return cls("bregman", operator=operator, noise=noise, prior=prior)

    def evaluate(self, u, uhat) -> float:
        """The cost of estimating u by uhat (the Bregman subgradient is
        taken at u)."""
        return float(_CachedCost(as_vector(u)[None], self)
                     .costs_at(as_vector(uhat))[0])


class _CachedCost:
    """The costs of any point c against every row of a block of samples.

    The pieces that depend on the samples alone are computed once, so the
    probes of one block share them (common random numbers).
    """

    def __init__(self, samples: np.ndarray, spec: CostSpec):
        self.spec = spec
        self.samples = samples
        self.k_samples = (None if spec.operator is None
                          else spec.operator.apply(samples))
        if spec.kind == "ls":
            l_mat = spec.l_matrix
            self.l_samples = samples if l_mat is None else samples @ l_mat.T
        elif spec.kind == "bregman":
            self.j_samples = spec.prior.energy(samples)
            self.q_samples = spec.prior.subgradient(samples)
            self.qu_samples = np.einsum("ij,ij->i", self.q_samples, samples)

    def costs_at(self, c: np.ndarray) -> np.ndarray:
        spec = self.spec
        out = np.zeros(self.samples.shape[0])
        if self.k_samples is not None:
            dk = self.k_samples - spec.operator.apply(c)
            out += np.einsum("ij,ij->i", dk,
                             dk * spec.noise.precision_diag)
        if spec.kind == "ls":
            lc = c if spec.l_matrix is None else spec.l_matrix @ c
            d = self.l_samples - lc
            return out + spec.beta * np.einsum("ij,ij->i", d, d)
        prior = spec.prior
        breg = (prior.energy(c) - self.j_samples
                - (self.q_samples @ c - self.qu_samples))
        return out + 2.0 * prior.lam * breg


@dataclass(frozen=True)
class CostReport:
    estimate_cost: float
    stderr: float
    n_samples: int

    def to_dict(self):
        return asdict(self)


def _cost_report(costs: np.ndarray, n_batches: int) -> CostReport:
    """Mean of per-sample costs (or cost differences), with its batch-means
    stderr; NaN stderr when there are fewer samples than batches."""
    stderr = (float(batch_means_stderr(costs[:, None], n_batches)[0])
              if costs.size >= n_batches else float("nan"))
    return CostReport(float(costs.mean()), stderr, costs.size)


def mc_bayes_cost(chain: Chain, uhat, spec: CostSpec,
                  n_batches: int = 20) -> CostReport:
    """Posterior-expected cost at uhat by Monte Carlo over the chain."""
    costs = _CachedCost(chain.samples, spec).costs_at(as_vector(uhat))
    return _cost_report(costs, n_batches)


# ---------------------------------------------------------------------------
# optimality probing (Theorem on Bayes estimators)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    scale: float
    margin: float  # mean cost(perturbed) - cost(candidate); >= 0 when optimal
    stderr: float
    beaten: bool  # perturbation significantly cheaper

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class OptimalityReport:
    cost_kind: str
    candidate_cost: CostReport
    probes: list[ProbeResult]
    n_beaten: int
    passed: bool

    def to_dict(self):
        return {"check": "bayes_optimality", "cost_kind": self.cost_kind,
                "candidate_cost": self.candidate_cost.to_dict(),
                "probes": [p.to_dict() for p in self.probes],
                "n_beaten": self.n_beaten, "passed": self.passed}


_PROBE_SCALES = (0.1, 0.5, 1.0)


def verify_bayes_optimality(chain: Chain, candidate, spec: CostSpec,
                            n_probes: int = 50, probe_scale: float = 1.0,
                            seed: int = 0, n_batches: int = 20) -> OptimalityReport:
    """Probe whether any nearby point beats the candidate's Bayes cost.

    Perturbations are random directions at scales {0.1, 0.5, 1.0} times
    ``probe_scale`` (cycled). Costs are paired over the same chain, so a
    probe flags the candidate only when the cost drop clears 3 stderr of
    the paired difference. Deterministic per-probe seeds. A chain shorter
    than ``n_batches`` has no stderr, so it is refused.
    """
    if len(chain) < n_batches:
        raise ValueError("chain too short for batch means")
    candidate = as_vector(candidate)
    cache = _CachedCost(chain.samples, spec)
    base = cache.costs_at(candidate)
    probes = []
    n_beaten = 0
    for j in range(n_probes):
        scale = _PROBE_SCALES[j % len(_PROBE_SCALES)] * probe_scale
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), j]))
        direction = rng.standard_normal(candidate.size)
        direction /= max(np.linalg.norm(direction), 1e-300)
        diff = _cost_report(cache.costs_at(candidate + scale * direction)
                            - base, n_batches)
        beaten = diff.estimate_cost < -3.0 * diff.stderr
        n_beaten += int(beaten)
        probes.append(ProbeResult(scale, diff.estimate_cost, diff.stderr,
                                  beaten))
    return OptimalityReport(spec.kind, _cost_report(base, n_batches),
                            probes, n_beaten, n_beaten == 0)


# ---------------------------------------------------------------------------
# expected-error inequalities between MAP and CM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    quadratic_margin: float  # E||L(map-u)||^2 - E||L(cm-u)||^2, >= 0 expected
    quadratic_stderr: float
    quadratic_passed: bool
    bregman_margin: float  # E D(cm,u) - E D(map,u), >= 0 expected
    bregman_stderr: float
    bregman_passed: bool
    passed: bool

    def to_dict(self):
        d = asdict(self)
        d["check"] = "map_cm_inequalities"
        return d


def theorem_ineq_check(chain: Chain, map_est, cm_est,
                       l_matrix: Optional[np.ndarray], prior: Prior,
                       n_batches: int = 20) -> InequalityReport:
    """Paired Monte Carlo test of the two expected-error inequalities.

    The CM estimate must win in the quadratic metric ||L (. - u)||^2 and
    the MAP estimate in the Bregman distance D_J(., u); each margin must
    clear -3 stderr. Both margins are costs of the one evaluator: the
    Bregman cost without output term is 2 lam D_J.
    """
    if len(chain) < n_batches:
        raise ValueError("chain too short for batch means")
    map_est = as_vector(map_est)
    cm_est = as_vector(cm_est)
    quad = _CachedCost(chain.samples, CostSpec.ls(l_matrix=l_matrix))
    breg = _CachedCost(chain.samples, CostSpec.bregman(prior))
    g = _cost_report(quad.costs_at(map_est) - quad.costs_at(cm_est), n_batches)
    h = _cost_report((breg.costs_at(cm_est) - breg.costs_at(map_est))
                     / (2.0 * prior.lam), n_batches)
    g_ok = g.estimate_cost >= -3.0 * g.stderr
    h_ok = h.estimate_cost >= -3.0 * h.stderr
    return InequalityReport(g.estimate_cost, g.stderr, g_ok, h.estimate_cost,
                            h.stderr, h_ok, g_ok and h_ok)


# ---------------------------------------------------------------------------
# MAP-centered posterior energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CenteredEnergyReport:
    spread: float
    tolerance: float
    constant: float  # the common value of Delta(u)
    n_points: int
    passed: bool

    def to_dict(self):
        d = asdict(self)
        d["check"] = "map_centered_energy"
        return d


# points per block: one block of all 101 points raised the deblur peak RSS
_POINT_BLOCK = 16


def centered_energy_check(post: Posterior, map_result: MapResult,
                          n_points: int = 100,
                          seed: int = 0) -> CenteredEnergyReport:
    """Verify E(u) - [1/2 ||K(u - map)||^2_P + lam D^p(u, map)] is constant.

    Evaluated at the MAP estimate and n_points random points around it,
    using the stored subgradient certificate p, in blocks of
    ``_POINT_BLOCK`` points; the spread must stay below
    1e-8 * (1 + |constant|).
    """
    uhat = map_result.estimate
    p_hat = map_result.subgradient_cert
    if p_hat is None:
        raise ValueError("map result carries no subgradient certificate")
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.abs(uhat).max()
    prior = post.prior
    j_hat = prior.energy(uhat)
    deltas = np.empty(n_points + 1)
    for start in range(0, n_points + 1, _POINT_BLOCK):
        rows = min(_POINT_BLOCK, n_points + 1 - start)
        first = int(start == 0)  # the point at index 0 is uhat itself
        u = np.tile(uhat, (rows, 1))
        u[first:] += scale * rng.standard_normal((rows - first, uhat.size))
        d = u - uhat
        breg = prior.energy(u) - j_hat - row_dot(d, p_hat)
        centered = (0.5 * weighted_sq_norm(post.operator.apply(d), post.noise)
                    + prior.lam * breg)
        deltas[start:start + rows] = (_model.neg_log_posterior(post, u)
                                      - centered)
    spread = float(deltas.max() - deltas.min())
    constant = float(deltas.mean())
    tol = 1e-8 * (1.0 + abs(constant))
    return CenteredEnergyReport(spread, tol, constant, n_points, spread <= tol)


# ---------------------------------------------------------------------------
# averaged optimality of the CM estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CmOptimalityReport:
    sup_residual: float
    threshold: float
    max_stderr: float
    passed: bool

    def to_dict(self):
        d = asdict(self)
        d["check"] = "cm_average_optimality"
        return d


def cm_optimality_check(post: Posterior, chain: Chain,
                        n_batches: int = 20) -> CmOptimalityReport:
    """Check ||K^T P (K u_cm - f) + lam p_cm||_inf against its Monte Carlo noise.

    The residual equals the chain mean of the posterior energy gradient, so
    componentwise batch-means stderrs propagate to the sup norm by
    simulating the null maximum of |N(0, stderr_j)|; the threshold is
    null_mean + 3 null_sd, never tighter than 3 max_j stderr_j.
    """
    if len(chain) < n_batches:
        raise ValueError("chain too short for batch means")
    grads = _model.neg_log_posterior_gradient(post, chain.samples)
    residual = grads.mean(axis=0)
    stderr = batch_means_stderr(grads, n_batches)
    sup = float(np.abs(residual).max())
    rng = np.random.default_rng(20240817)
    # 400 null draws from one stream, 50 rows at a time: no (400, n) block
    null_max = np.empty(400)
    for start in range(0, 400, 50):
        null = rng.standard_normal((50, stderr.size))
        null *= stderr
        np.abs(null, out=null).max(axis=1, out=null_max[start:start + 50])
    threshold = max(3.0 * float(stderr.max()),
                    float(null_max.mean() + 3.0 * null_max.std(ddof=1)))
    return CmOptimalityReport(sup, threshold, float(stderr.max()),
                              sup <= threshold)


# ---------------------------------------------------------------------------
# uniform-cost asymptotics (diagnostic only)
# ---------------------------------------------------------------------------


def uniform_cost_map_limit(post: Posterior, center, half_width: float = 2.0,
                           lattice: int = 41,
                           deltas=(0.5, 0.2, 0.1)) -> dict:
    """Brute-force the uniform-cost Bayes estimator on a 2D lattice.

    Returns, per delta, the sup-distance of the expected-0-1-loss
    minimizer from the lattice density maximizer. Diagnostic output for
    the delta -> 0 story; nothing is asserted here.
    """
    if post.dim != 2:
        raise ValueError("diagnostic runs on 2-dimensional posteriors only")
    center = as_vector(center)
    xs = np.linspace(center[0] - half_width, center[0] + half_width, lattice)
    ys = np.linspace(center[1] - half_width, center[1] + half_width, lattice)
    points = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    energy = _model.neg_log_posterior(post, points.reshape(-1, 2))
    w = np.exp(-(energy - energy.min()))
    w = w.reshape(lattice, lattice) / w.sum()
    imax, jmax = np.unravel_index(np.argmax(w), w.shape)
    density_max = np.array([xs[imax], ys[jmax]])
    step = xs[1] - xs[0]
    out = {"density_maximizer": density_max.tolist(), "deltas": []}
    cum = np.zeros((lattice + 1, lattice + 1))
    cum[1:, 1:] = w.cumsum(axis=0).cumsum(axis=1)
    index = np.arange(lattice)
    for delta in deltas:
        r = int(np.floor(delta / step + 1e-12))
        # expected uniform cost at lattice point = 1 - windowed mass; the
        # first minimizer in row-major order
        lo = np.maximum(index - r, 0)
        hi = np.minimum(index + r + 1, lattice)
        mass = (cum[hi[:, None], hi] - cum[lo[:, None], hi]
                - cum[hi[:, None], lo] + cum[lo[:, None], lo])
        best = np.unravel_index(np.argmin(1.0 - mass), mass.shape)
        minimizer = np.array([xs[best[0]], ys[best[1]]])
        out["deltas"].append({
            "delta": delta,
            "minimizer": minimizer.tolist(),
            "sup_distance_to_max": float(np.abs(minimizer - density_max).max()),
        })
    return out


def format_report_text(report) -> str:
    """One human-readable line per check."""
    d = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    name = d.pop("check", type(report).__name__)
    passed = d.pop("passed", None)
    status = "" if passed is None else ("PASS" if passed else "FAIL")
    body = ", ".join(f"{k}={_fmt(v)}" for k, v in d.items()
                     if not isinstance(v, (list, dict)))
    return f"{name}: {status} ({body})"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
