import json

import numpy as np
import pytest
from scipy.integrate import quad

from bregbayes.bayescost import (CostSpec, centered_energy_check,
                                 cm_optimality_check, format_report_text,
                                 mc_bayes_cost, theorem_ineq_check,
                                 verify_bayes_optimality, _CachedCost)
from bregbayes.experiments import (DilemmaLevel, DilemmaReport,
                                   run_verification)
from bregbayes.grids import Signal, grid1d, grid2d
from bregbayes.map_solver import solve_map
from bregbayes.model import (GaussianNoiseModel, Posterior, neg_log_posterior,
                             neg_log_posterior_gradient, weighted_sq_norm)
from bregbayes.operators import from_matrix, gaussian_blur
from bregbayes.priors import make_gaussian_prior, make_l1_prior
from bregbayes.sampling import (Chain, batch_means_stderr, sample_gibbs,
                                summarize)

RNG = np.random.default_rng(1357)


def _post(k, f, sigma, prior):
    k = np.atleast_2d(np.asarray(k, dtype=float))
    m = k.shape[0]
    return Posterior(from_matrix(k), Signal(grid1d(m), f),
                     GaussianNoiseModel.from_sigma(sigma, m), prior)


def _scalar_l1_posterior():
    return _post([[1.0]], [2.0], 1.0, make_l1_prior(0.5))


def _quad_expect(fn):
    """Posterior expectation of fn under the scalar l1 posterior above."""
    dens = lambda u: np.exp(-0.5 * (2 - u) ** 2 - 0.5 * abs(u))
    z = quad(dens, -30, 30, points=[0], limit=500)[0]
    return quad(lambda u: fn(u) * dens(u), -30, 30, points=[0], limit=500)[0] / z


# -- pointwise cost values -----------------------------------------------------


def _per_sample_costs(spec, samples, c, k=None, sigma=1.0):
    """Each sample's cost written out in numpy, one sample at a time, with
    the dense matrix k (noise std sigma) for the spec's output term."""
    costs = []
    for u in samples:
        d = c - u
        out = 0.0 if k is None else float((k @ d) @ (k @ d)) / sigma**2
        if spec.kind == "ls":
            ld = d if spec.l_matrix is None else spec.l_matrix @ d
            costs.append(out + spec.beta * float(ld @ ld))
        else:
            costs.append(out + 2.0 * spec.prior.lam * spec.prior.bregman(c, u))
    return np.array(costs)


def test_cost_ls_values():
    spec = CostSpec.ls()  # no output term, L = I, beta = 1
    assert spec.evaluate([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert spec.evaluate([0.0, 0.0], [1.0, 2.0]) == pytest.approx(5.0)
    zero_op = from_matrix(np.zeros((2, 2)))
    noise = GaussianNoiseModel.from_sigma(1.0, 2)
    spec = CostSpec.ls(zero_op, noise)
    assert spec.evaluate([0.0, 0.0], [1.0, 2.0]) == pytest.approx(5.0)
    # beta = 0: output-space cost only
    k = from_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
    spec = CostSpec.ls(k, noise, beta=0.0)
    assert spec.evaluate([0.0, 0.0], [1.0, 1.0]) == pytest.approx(13.0)


def test_cost_bregman_values():
    prior = make_l1_prior(1.0)
    spec = CostSpec.bregman(prior)
    assert spec.evaluate([1.0], [1.0]) == 0.0
    # scalar, K = 0, lam = 1, u = 1, uhat = -2: 2 * D(-2, 1) = 8
    assert spec.evaluate([1.0], [-2.0]) == pytest.approx(8.0)


def test_cost_bregman_gaussian_reduces_to_ls():
    n = 5
    lam, beta = 0.7, 1.9
    l_mat = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    prior = make_gaussian_prior(lam, beta, l_mat)
    k = from_matrix(RNG.standard_normal((4, n)))
    noise = GaussianNoiseModel.from_sigma(0.8, 4)
    spec_b = CostSpec.bregman(prior, k, noise)
    spec_l = CostSpec.ls(k, noise, l_matrix=l_mat, beta=beta)
    for _ in range(100):
        u, uhat = RNG.standard_normal(n), RNG.standard_normal(n)
        b = spec_b.evaluate(u, uhat)
        l = spec_l.evaluate(u, uhat)
        assert b == pytest.approx(l, rel=1e-12, abs=1e-12)


def test_costs_convex_in_uhat():
    prior = make_l1_prior(0.8)
    k = from_matrix(RNG.standard_normal((3, 4)))
    noise = GaussianNoiseModel.from_sigma(1.0, 3)
    for spec in (CostSpec.ls(k, noise), CostSpec.bregman(prior, k, noise),
                 CostSpec.ls()):
        for _ in range(20):
            u = RNG.standard_normal(4)
            a, b = RNG.standard_normal(4), RNG.standard_normal(4)
            t = RNG.uniform()
            mid = spec.evaluate(u, t * a + (1 - t) * b)
            assert mid <= (t * spec.evaluate(u, a)
                           + (1 - t) * spec.evaluate(u, b) + 1e-10)


def test_cost_bregman_dominates_output_term():
    prior = make_l1_prior(0.8)
    k = from_matrix(RNG.standard_normal((3, 4)))
    noise = GaussianNoiseModel.from_sigma(1.0, 3)
    spec = CostSpec.bregman(prior, k, noise)
    spec_out = CostSpec.ls(k, noise, beta=0.0)
    for _ in range(30):
        u, uhat = RNG.standard_normal(4), RNG.standard_normal(4)
        assert (spec.evaluate(u, uhat)
                >= spec_out.evaluate(u, uhat) - 1e-12)


def test_plain_ls_is_the_squared_distance():
    # no K term, L = I, beta = 1: the mean squared error's cost
    plain_ls = CostSpec.ls()
    for _ in range(20):
        u, uhat = RNG.standard_normal(5), RNG.standard_normal(5)
        assert plain_ls.evaluate(u, uhat) == pytest.approx(
            float((uhat - u) @ (uhat - u)), rel=1e-14)


def test_cost_spec_field_validation():
    prior = make_l1_prior(1.0)
    with pytest.raises(ValueError):
        CostSpec("ls", prior=prior)
    with pytest.raises(ValueError):
        CostSpec("bregman")
    for kind in ("mse", "uniform"):
        with pytest.raises(ValueError, match="unknown cost kind"):
            CostSpec(kind)
    with pytest.raises(ValueError):
        CostSpec("nonsense")


# -- Monte Carlo Bayes costs ---------------------------------------------------


def test_mc_bayes_cost_degenerate_chain():
    uhat = np.array([1.0, -1.0])
    chain = Chain(np.tile(uhat, (25, 1)), seed=0, burn_in=0, thinning=1,
                  method="gibbs")
    rep = mc_bayes_cost(chain, uhat, CostSpec.ls())
    assert rep.estimate_cost == 0.0
    assert rep.stderr == 0.0
    assert rep.n_samples == 25


def test_mc_bayes_cost_gaussian_variance():
    # MSE cost at the posterior mean equals the posterior variance
    post = _post([[1.0]], [1.0], 1.0, make_gaussian_prior(1.0, 1.0))
    chain = sample_gibbs(post, 30000, burn_in=300, seed=13)
    rep = mc_bayes_cost(chain, [0.5], CostSpec.ls())
    assert abs(rep.estimate_cost - 0.5) <= 3 * rep.stderr


def test_mc_bayes_cost_matches_quadrature():
    post = _scalar_l1_posterior()
    chain = sample_gibbs(post, 60000, burn_in=600, seed=17)
    spec = CostSpec.bregman(post.prior, post.operator, post.noise)
    for point in (1.5, 0.3):
        truth = _quad_expect(lambda u: spec.evaluate([u], [point]))
        rep = mc_bayes_cost(chain, [point], spec)
        assert abs(rep.estimate_cost - truth) <= 3 * rep.stderr


def test_cached_cost_matches_direct_evaluation():
    post = _scalar_l1_posterior()
    chain = sample_gibbs(post, 500, burn_in=50, seed=19)
    specs = [CostSpec.ls(),
             CostSpec.ls(post.operator, post.noise, beta=0.3),
             CostSpec.bregman(post.prior, post.operator, post.noise)]
    c = np.array([0.7])
    for spec in specs:
        cached = _CachedCost(chain.samples, spec).costs_at(c)
        k = None if spec.operator is None else np.eye(1)
        direct = _per_sample_costs(spec, chain.samples, c, k)
        np.testing.assert_allclose(cached, direct, atol=1e-12)
        assert spec.evaluate(chain.samples[3], c) == cached[3]


def test_mc_bayes_cost_mean_matches_per_sample_evaluation():
    # mc_bayes_cost's mean must be the mean of the per-sample costs
    # written out in numpy, for every cost kind
    rng = np.random.default_rng(31)
    k = rng.standard_normal((4, 3)) + np.eye(4, 3)
    post = _post(k, rng.standard_normal(4), 0.8, make_l1_prior(0.9))
    chain = sample_gibbs(post, 400, burn_in=40, seed=37)
    specs = [CostSpec.ls(),
             CostSpec.ls(post.operator, post.noise,
                         rng.standard_normal((2, 3)), beta=0.3),
             CostSpec.bregman(post.prior, post.operator, post.noise)]
    uhat = rng.standard_normal(3)
    for spec in specs:
        rep = mc_bayes_cost(chain, uhat, spec)
        direct = _per_sample_costs(spec, chain.samples, uhat,
                                   None if spec.operator is None else k, 0.8)
        assert rep.estimate_cost == pytest.approx(direct.mean(), rel=1e-12,
                                                  abs=1e-12), spec.kind
        assert rep.n_samples == len(chain)


# -- optimality probing ----------------------------------------------------------


def test_optimality_gaussian_closed_form_mean():
    n = 4
    k = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    f = RNG.standard_normal(n)
    sigma, lam, beta = 0.9, 1.0, 1.0
    post = _post(k, f, sigma, make_gaussian_prior(lam, beta))
    mean = np.linalg.solve(k.T @ k / sigma**2 + beta * np.eye(n),
                           k.T @ f / sigma**2)
    chain = sample_gibbs(post, 20000, burn_in=400, seed=23)
    spec = CostSpec.ls(post.operator, post.noise)
    rep = verify_bayes_optimality(chain, mean, spec, n_probes=30,
                                  probe_scale=0.5, seed=5)
    assert rep.passed
    assert rep.n_beaten == 0


def test_optimality_scalar_l1_map_and_displaced():
    post = _scalar_l1_posterior()
    res = solve_map(post)
    chain = sample_gibbs(post, 60000, burn_in=600, seed=29)
    spec = CostSpec.bregman(post.prior, post.operator, post.noise)
    good = verify_bayes_optimality(chain, res.estimate, spec, n_probes=30,
                                   probe_scale=0.5, seed=7)
    assert good.passed
    bad = verify_bayes_optimality(chain, res.estimate + 0.5, spec, n_probes=30,
                                  probe_scale=0.5, seed=7)
    assert not bad.passed
    assert bad.n_beaten >= 1


def test_optimality_refuses_a_chain_shorter_than_the_batch_count():
    # with fewer draws than batches no probe has a stderr, so none could
    # ever count as beaten, however much cheaper it is
    chain = Chain(RNG.standard_normal((10, 3)), seed=0, burn_in=0, thinning=1,
                  method="gibbs")
    with pytest.raises(ValueError, match="chain too short"):
        verify_bayes_optimality(chain, np.full(3, 50.0), CostSpec.ls(),
                                n_probes=6)


def test_optimality_cm_under_ls():
    post = _scalar_l1_posterior()
    chain = sample_gibbs(post, 60000, burn_in=600, seed=31)
    cm = chain.samples.mean(axis=0)
    spec = CostSpec.ls(post.operator, post.noise)
    rep = verify_bayes_optimality(chain, cm, spec, n_probes=30,
                                  probe_scale=0.5, seed=11)
    assert rep.passed


# -- expected-error inequalities -------------------------------------------------


def test_theorem_inequalities_gaussian_coincide():
    post = _post([[1.0]], [1.0], 1.0, make_gaussian_prior(1.0, 1.0))
    chain = sample_gibbs(post, 30000, burn_in=300, seed=37)
    res = solve_map(post)
    s = summarize(chain)
    rep = theorem_ineq_check(chain, res.estimate, s.mean, None, post.prior)
    assert rep.passed
    # MAP = CM for Gaussian priors: margins vanish within noise
    assert abs(rep.quadratic_margin) <= 3 * max(rep.quadratic_stderr, 1e-6)
    assert abs(rep.bregman_margin) <= 3 * max(rep.bregman_stderr, 1e-6)


def test_theorem_inequalities_scalar_l1_vs_quadrature():
    post = _scalar_l1_posterior()
    res = solve_map(post)
    chain = sample_gibbs(post, 60000, burn_in=600, seed=41)
    s = summarize(chain)
    rep = theorem_ineq_check(chain, res.estimate, s.mean, None, post.prior)
    assert rep.passed
    prior = post.prior
    map_est, cm_est = float(res.estimate[0]), float(s.mean[0])
    g_truth = _quad_expect(lambda u: (map_est - u) ** 2 - (cm_est - u) ** 2)
    h_truth = _quad_expect(lambda u: prior.bregman([cm_est], [u])
                           - prior.bregman([map_est], [u]))
    assert abs(rep.quadratic_margin - g_truth) <= 4 * rep.quadratic_stderr
    assert abs(rep.bregman_margin - h_truth) <= 4 * rep.bregman_stderr
    assert g_truth >= 0.0 and h_truth >= 0.0


def test_theorem_inequalities_multidim_l1():
    n = 8
    k = RNG.standard_normal((n + 2, n)) + np.eye(n + 2, n)
    f = k @ (RNG.standard_normal(n) * (RNG.random(n) < 0.4)) \
        + 0.3 * RNG.standard_normal(n + 2)
    post = _post(k, f, 0.5, make_l1_prior(1.0))
    res = solve_map(post)
    chain = sample_gibbs(post, 30000, burn_in=600, seed=43)
    s = summarize(chain)
    l_mat = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    rep = theorem_ineq_check(chain, res.estimate, s.mean, l_mat, post.prior)
    assert rep.passed


# -- MAP-centered energy ---------------------------------------------------------


def test_centered_energy_scalar_l1():
    post = _scalar_l1_posterior()
    res = solve_map(post)
    rep = centered_energy_check(post, res, n_points=100, seed=3)
    assert rep.passed
    assert rep.spread <= 1e-10
    # at the center both centered terms vanish: Delta(uhat) = E(uhat)
    from bregbayes.model import neg_log_posterior
    assert rep.constant == pytest.approx(neg_log_posterior(post, res.estimate),
                                         abs=1e-9)


def test_centered_energy_gaussian_8dim():
    n = 8
    k = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    f = RNG.standard_normal(n)
    l_mat = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    post = _post(k, f, 0.8, make_gaussian_prior(0.9, 1.4, l_mat))
    res = solve_map(post)
    rep = centered_energy_check(post, res, n_points=100, seed=5)
    assert rep.passed
    assert rep.spread <= 1e-8 * (1 + abs(rep.constant))


def test_centered_energy_blocks_match_a_per_point_loop():
    # 38 points: two blocks of 16 and a short one of 6; the blur maps a
    # block row by row as it maps one vector, so every bit agrees
    grid = grid2d(8, 8)
    post = Posterior(gaussian_blur(grid, 0.1),
                     Signal(grid, RNG.standard_normal(grid.size)),
                     GaussianNoiseModel.from_sigma(0.3, grid.size),
                     make_l1_prior(2.0), grid=grid)
    res = solve_map(post)
    rep = centered_energy_check(post, res, n_points=37, seed=9)
    uhat, p_hat, prior = res.estimate, res.subgradient_cert, post.prior
    rng = np.random.default_rng(9)
    scale = 1.0 + np.abs(uhat).max()
    deltas = []
    for j in range(38):
        u = uhat if j == 0 else uhat + scale * rng.standard_normal(grid.size)
        centered = (0.5 * weighted_sq_norm(post.operator.apply(u - uhat),
                                           post.noise)
                    + prior.lam * prior.bregman(u, uhat, q=p_hat))
        deltas.append(neg_log_posterior(post, u) - centered)
    assert rep.n_points == 37
    assert rep.spread == max(deltas) - min(deltas)
    assert rep.constant == np.mean(deltas)


def test_centered_energy_requires_certificate():
    post = _scalar_l1_posterior()
    res = solve_map(post)
    from bregbayes.map_solver import MapResult
    broken = MapResult(res.estimate, None, 0, 0.0, 0.0, True)
    with pytest.raises(ValueError):
        centered_energy_check(post, broken)


# -- CM average optimality --------------------------------------------------------


def test_cm_optimality_scalar_and_multidim():
    post = _scalar_l1_posterior()
    chain = sample_gibbs(post, 40000, burn_in=500, seed=47)
    rep = cm_optimality_check(post, chain)
    assert rep.passed

    n = 6
    k = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    f = RNG.standard_normal(n)
    post = _post(k, f, 0.7, make_l1_prior(0.8))
    chain = sample_gibbs(post, 30000, burn_in=500, seed=53)
    rep = cm_optimality_check(post, chain)
    assert rep.passed


def test_cm_optimality_threshold_matches_one_null_block():
    # the null maxima are drawn 50 rows at a time; the stream, and so the
    # threshold, is that of one (400, n) block
    n = 40
    post = _post(np.eye(n), RNG.standard_normal(n), 0.7, make_l1_prior(0.8))
    chain = sample_gibbs(post, 400, burn_in=50, seed=59)
    rep = cm_optimality_check(post, chain)
    stderr = batch_means_stderr(neg_log_posterior_gradient(post,
                                                           chain.samples))
    null = np.random.default_rng(20240817).standard_normal((400, n)) * stderr
    null_max = np.abs(null).max(axis=1)
    null_threshold = null_max.mean() + 3.0 * null_max.std(ddof=1)
    assert null_threshold > 3.0 * stderr.max()  # the null sets the bound
    assert rep.threshold == null_threshold


# -- report plumbing ---------------------------------------------------------------


# the fields each check's text line shows, in order (lists, nested reports
# and the pass flag are not shown)
_TEXT_FIELDS = {
    "bayes_optimality": ["cost_kind", "n_beaten"],
    "map_cm_inequalities": ["quadratic_margin", "quadratic_stderr",
                            "quadratic_passed", "bregman_margin",
                            "bregman_stderr", "bregman_passed"],
    "map_centered_energy": ["spread", "tolerance", "constant", "n_points"],
    "cm_average_optimality": ["sup_residual", "threshold", "max_stderr"],
    "tv_dilemma": ["rule"],
}


def test_report_serialization():
    post = _post(np.eye(3), [1.0, -0.5, 0.2], 0.5, make_l1_prior(1.0))
    res = solve_map(post)
    chain = sample_gibbs(post, 200, burn_in=20, seed=3)
    reports = run_verification(post, res, chain, summarize(chain),
                               n_probes=3, seed=1)
    level = DilemmaLevel(15, 0.5, 1.0, 2.0, 2.5, 0.1, 0.2, 0.01, 0.02,
                         True, 40)
    reports.append(DilemmaReport("sqrt_n", [level]))
    names = [rep.to_dict()["check"] for rep in reports]
    assert names == ["bayes_optimality", "bayes_optimality",
                     "map_cm_inequalities", "map_centered_energy",
                     "cm_average_optimality", "tv_dilemma"]
    for rep, name in zip(reports, names):
        d = rep.to_dict()
        assert next(iter(d)) == "check" and d["check"] == name
        assert json.loads(json.dumps(d)) == d
        passed = getattr(rep, "passed", None)
        status = "" if passed is None else ("PASS" if passed else "FAIL")
        body = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in ((k, d[k]) for k in _TEXT_FIELDS[name]))
        assert format_report_text(rep) == f"{name}: {status} ({body})"
    optimality = reports[0].to_dict()
    assert list(optimality["candidate_cost"]) == ["estimate_cost", "stderr",
                                                  "n_samples"]
    assert list(optimality["probes"][0]) == ["scale", "margin", "stderr",
                                             "beaten"]
    assert reports[-1].to_dict()["levels"] == [vars(level)]
