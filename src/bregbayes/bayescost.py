"""Bayes cost functions and executable checks of the estimator theory.

Two convex cost families are implemented next to the classical MSE and
0-1 losses:

    cost_ls(u, uhat)      = ||K (uhat - u)||^2_P + beta ||L (uhat - u)||^2
    cost_bregman(u, uhat) = ||K (uhat - u)||^2_P + 2 lam D_J(uhat, u)

The CM estimate minimizes the posterior expectation of the first, the MAP
estimate of the second; the checks below probe these optimality claims by
Monte Carlo with common random numbers, verify the two expected-error
inequalities between the estimates, certify the MAP-centered rewriting of
the posterior energy, and test the averaged optimality condition of the
CM estimate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import model as _model
from .grids import as_vector
from .model import GaussianNoiseModel, Posterior, weighted_sq_norm
from .map_solver import MapResult
from .operators import LinearOperator
from .priors import Prior
from .sampling import Chain, batch_means_stderr


@dataclass(frozen=True)
class CostSpec:
    """Which cost to evaluate, with exactly the fields its kind demands."""

    kind: str  # ls | bregman | mse | uniform
    operator: Optional[LinearOperator] = None
    noise: Optional[GaussianNoiseModel] = None
    l_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    beta: float = 1.0
    prior: Optional[Prior] = None
    delta: Optional[float] = None

    def __post_init__(self):
        if self.kind == "ls":
            if self.beta < 0:
                raise ValueError("beta must be nonnegative")
            if (self.operator is None) != (self.noise is None):
                raise ValueError("operator and noise go together")
            if self.prior is not None or self.delta is not None:
                raise ValueError("ls cost takes no prior or delta")
        elif self.kind == "bregman":
            if self.prior is None:
                raise ValueError("bregman cost needs a prior")
            if (self.operator is None) != (self.noise is None):
                raise ValueError("operator and noise go together")
            if self.delta is not None:
                raise ValueError("bregman cost takes no delta")
        elif self.kind == "mse":
            if any(x is not None for x in (self.operator, self.noise,
                                           self.l_matrix, self.prior,
                                           self.delta)):
                raise ValueError("mse cost takes no extra fields")
        elif self.kind == "uniform":
            if self.delta is None or self.delta <= 0:
                raise ValueError("uniform cost needs delta > 0")
            if any(x is not None for x in (self.operator, self.noise,
                                           self.l_matrix, self.prior)):
                raise ValueError("uniform cost takes only delta")
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

    @classmethod
    def mse(cls):
        return cls("mse")

    @classmethod
    def uniform(cls, delta: float):
        return cls("uniform", delta=delta)

    def evaluate(self, u, uhat) -> float:
        if self.kind in ("ls", "mse"):
            return cost_ls(u, uhat, self)
        if self.kind == "bregman":
            return cost_bregman(u, uhat, self)
        return cost_uniform(u, uhat, self.delta)


def _output_term(diff: np.ndarray, spec: CostSpec) -> float:
    if spec.operator is None:
        return 0.0
    return weighted_sq_norm(spec.operator.apply(diff), spec.noise)


def cost_ls(u, uhat, spec: CostSpec) -> float:
    """||K (uhat - u)||^2_P + beta ||L (uhat - u)||^2 (the mse kind drops K)."""
    diff = as_vector(uhat) - as_vector(u)
    if spec.kind == "mse":
        return float(diff @ diff)
    quad = diff if spec.l_matrix is None else spec.l_matrix @ diff
    return _output_term(diff, spec) + spec.beta * float(quad @ quad)


def cost_bregman(u, uhat, spec: CostSpec) -> float:
    """||K (uhat - u)||^2_P + 2 lam D_J(uhat, u), subgradient taken at u."""
    u = as_vector(u)
    uhat = as_vector(uhat)
    prior = spec.prior
    breg = prior.bregman(uhat, u)
    return _output_term(uhat - u, spec) + 2.0 * prior.lam * breg


def cost_uniform(u, uhat, delta: float) -> float:
    """0-1 loss: 0 when ||u - uhat||_inf <= delta (boundary included)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return 0.0 if np.abs(as_vector(u) - as_vector(uhat)).max() <= delta else 1.0


@dataclass(frozen=True)
class CostReport:
    estimate_cost: float
    stderr: float
    n_samples: int

    def to_dict(self):
        return asdict(self)


def mc_bayes_cost(chain: Chain, uhat, spec: CostSpec,
                  n_batches: int = 20) -> CostReport:
    """Posterior-expected cost at uhat by Monte Carlo over the chain."""
    if len(chain) < 1:
        raise ValueError("empty chain")
    uhat = as_vector(uhat)
    costs = _CachedCost(chain, spec).costs_at(uhat)
    stderr = (float(batch_means_stderr(costs[:, None], n_batches)[0])
              if len(chain) >= n_batches else float("nan"))
    return CostReport(float(costs.mean()), stderr, len(chain))


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


class _CachedCost:
    """Per-sample cost pieces reused across probes (common random numbers)."""

    def __init__(self, chain: Chain, spec: CostSpec):
        self.spec = spec
        self.samples = chain.samples
        k = spec.operator
        self.k_samples = (np.vstack([k.apply(u) for u in self.samples])
                          if k is not None else None)
        if spec.kind in ("ls", "mse"):
            l_mat = spec.l_matrix
            self.l_samples = (self.samples if l_mat is None
                              else self.samples @ l_mat.T)
        elif spec.kind == "bregman":
            prior = spec.prior
            self.j_samples = np.array([prior.energy(u) for u in self.samples])
            self.q_samples = np.vstack([prior.subgradient(u)
                                        for u in self.samples])
            self.qu_samples = np.einsum("ij,ij->i", self.q_samples,
                                        self.samples)

    def costs_at(self, c: np.ndarray) -> np.ndarray:
        spec = self.spec
        if spec.kind == "uniform":
            return (np.abs(self.samples - c).max(axis=1)
                    > spec.delta).astype(float)
        out = np.zeros(self.samples.shape[0])
        if self.k_samples is not None:
            dk = self.k_samples - spec.operator.apply(c)
            out += np.einsum("ij,ij->i", dk,
                             dk * spec.noise.precision_diag)
        if spec.kind == "mse":
            d = self.samples - c
            return out + np.einsum("ij,ij->i", d, d)
        if spec.kind == "ls":
            lc = c if spec.l_matrix is None else spec.l_matrix @ c
            d = self.l_samples - lc
            return out + spec.beta * np.einsum("ij,ij->i", d, d)
        prior = spec.prior
        breg = (prior.energy(c) - self.j_samples
                - (self.q_samples @ c - self.qu_samples))
        return out + 2.0 * prior.lam * breg


_PROBE_SCALES = (0.1, 0.5, 1.0)


def verify_bayes_optimality(chain: Chain, candidate, spec: CostSpec,
                            n_probes: int = 50, probe_scale: float = 1.0,
                            seed: int = 0, n_batches: int = 20) -> OptimalityReport:
    """Probe whether any nearby point beats the candidate's Bayes cost.

    Perturbations are random directions at scales {0.1, 0.5, 1.0} times
    ``probe_scale`` (cycled). Costs are paired over the same chain, so a
    probe flags the candidate only when the cost drop clears 3 stderr of
    the paired difference. Deterministic per-probe seeds.
    """
    if len(chain) < 1:
        raise ValueError("empty chain")
    candidate = as_vector(candidate)
    cache = _CachedCost(chain, spec)
    base = cache.costs_at(candidate)
    base_stderr = (float(batch_means_stderr(base[:, None], n_batches)[0])
                   if len(chain) >= n_batches else float("nan"))
    probes = []
    n_beaten = 0
    for j in range(n_probes):
        scale = _PROBE_SCALES[j % len(_PROBE_SCALES)] * probe_scale
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), j]))
        direction = rng.standard_normal(candidate.size)
        direction /= max(np.linalg.norm(direction), 1e-300)
        diffs = cache.costs_at(candidate + scale * direction) - base
        margin = float(diffs.mean())
        stderr = (float(batch_means_stderr(diffs[:, None], n_batches)[0])
                  if len(chain) >= n_batches else float("nan"))
        beaten = margin < -3.0 * stderr
        n_beaten += int(beaten)
        probes.append(ProbeResult(scale, margin, stderr, beaten))
    return OptimalityReport(spec.kind,
                            CostReport(float(base.mean()), base_stderr,
                                       len(chain)),
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
    clear -3 stderr.
    """
    if len(chain) < n_batches:
        raise ValueError("chain too short for batch means")
    map_est = as_vector(map_est)
    cm_est = as_vector(cm_est)
    samples = chain.samples
    d_map = map_est[None, :] - samples
    d_cm = cm_est[None, :] - samples
    if l_matrix is not None:
        d_map = d_map @ l_matrix.T
        d_cm = d_cm @ l_matrix.T
    g = (np.einsum("ij,ij->i", d_map, d_map)
         - np.einsum("ij,ij->i", d_cm, d_cm))
    # D(cm, u_k) - D(map, u_k): the J(u_k) terms cancel
    j_gap = prior.energy(cm_est) - prior.energy(map_est)
    step = cm_est - map_est
    h = np.array([j_gap - float(prior.subgradient(u) @ step) for u in samples])
    g_margin = float(g.mean())
    h_margin = float(h.mean())
    g_stderr = float(batch_means_stderr(g[:, None], n_batches)[0])
    h_stderr = float(batch_means_stderr(h[:, None], n_batches)[0])
    g_ok = g_margin >= -3.0 * g_stderr
    h_ok = h_margin >= -3.0 * h_stderr
    return InequalityReport(g_margin, g_stderr, g_ok, h_margin, h_stderr, h_ok,
                            g_ok and h_ok)


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


def centered_energy_check(post: Posterior, map_result: MapResult,
                          n_points: int = 100, seed: int = 0,
                          point_scale: Optional[float] = None) -> CenteredEnergyReport:
    """Verify E(u) - [1/2 ||K(u - map)||^2_P + lam D^p(u, map)] is constant.

    Evaluated at random points around the MAP estimate using the stored
    subgradient certificate p; the spread must stay below
    1e-8 * (1 + |constant|).
    """
    uhat = map_result.estimate
    p_hat = map_result.subgradient_cert
    if p_hat is None:
        raise ValueError("map result carries no subgradient certificate")
    rng = np.random.default_rng(seed)
    scale = point_scale if point_scale is not None else 1.0 + np.abs(uhat).max()
    prior = post.prior
    deltas = np.empty(n_points + 1)
    for j in range(n_points + 1):
        u = uhat if j == 0 else uhat + scale * rng.standard_normal(uhat.size)
        centered = (0.5 * weighted_sq_norm(post.operator.apply(u - uhat),
                                           post.noise)
                    + prior.lam * prior.bregman(u, uhat, q=p_hat))
        deltas[j] = _model.neg_log_posterior(post, u) - centered
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
    grads = np.vstack([_model.neg_log_posterior_gradient(post, u)
                       for u in chain.samples])
    residual = grads.mean(axis=0)
    stderr = batch_means_stderr(grads, n_batches)
    sup = float(np.abs(residual).max())
    rng = np.random.default_rng(20240817)
    null_max = np.abs(rng.standard_normal((400, stderr.size))
                      * stderr[None, :]).max(axis=1)
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
    energy = np.empty((lattice, lattice))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            energy[i, j] = _model.neg_log_posterior(post, np.array([x, y]))
    w = np.exp(-(energy - energy.min()))
    w /= w.sum()
    imax, jmax = np.unravel_index(np.argmax(w), w.shape)
    density_max = np.array([xs[imax], ys[jmax]])
    step = xs[1] - xs[0]
    out = {"density_maximizer": density_max.tolist(), "deltas": []}
    for delta in deltas:
        r = int(np.floor(delta / step + 1e-12))
        # expected uniform cost at lattice point = 1 - windowed mass
        cum = np.zeros((lattice + 1, lattice + 1))
        cum[1:, 1:] = w.cumsum(axis=0).cumsum(axis=1)
        best, best_cost = None, np.inf
        for i in range(lattice):
            for j in range(lattice):
                i0, i1 = max(i - r, 0), min(i + r + 1, lattice)
                j0, j1 = max(j - r, 0), min(j + r + 1, lattice)
                mass = (cum[i1, j1] - cum[i0, j1] - cum[i1, j0] + cum[i0, j0])
                cost = 1.0 - mass
                if cost < best_cost:
                    best, best_cost = (i, j), cost
        minimizer = np.array([xs[best[0]], ys[best[1]]])
        out["deltas"].append({
            "delta": delta,
            "minimizer": minimizer.tolist(),
            "sup_distance_to_max": float(np.abs(minimizer - density_max).max()),
        })
    return out


def report_to_json(report, path=None) -> str:
    """Serialize any check report (or a list of them) to JSON."""
    if isinstance(report, (list, tuple)):
        payload = [r.to_dict() if hasattr(r, "to_dict") else r for r in report]
    else:
        payload = report.to_dict() if hasattr(report, "to_dict") else report
    text = json.dumps(payload, indent=2)
    if path is not None:
        from pathlib import Path
        Path(path).write_text(text + "\n")
    return text


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
