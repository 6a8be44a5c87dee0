import numpy as np
import pytest
from scipy.integrate import quad

from bregbayes.bayescost import (CostSpec, centered_energy_check,
                                 cm_optimality_check, cost_bregman, cost_ls,
                                 cost_uniform, format_report_text,
                                 mc_bayes_cost, report_to_json,
                                 theorem_ineq_check, uniform_cost_map_limit,
                                 verify_bayes_optimality, _CachedCost)
from bregbayes.grids import Signal, grid1d
from bregbayes.map_solver import solve_map
from bregbayes.model import GaussianNoiseModel, Posterior
from bregbayes.operators import from_matrix
from bregbayes.priors import make_gaussian_prior, make_l1_prior
from bregbayes.sampling import Chain, sample_gibbs, summarize

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


def test_cost_ls_values():
    spec = CostSpec.ls()  # no output term, L = I, beta = 1
    assert cost_ls([1.0, 2.0], [1.0, 2.0], spec) == 0.0
    assert cost_ls([0.0, 0.0], [1.0, 2.0], spec) == pytest.approx(5.0)
    zero_op = from_matrix(np.zeros((2, 2)))
    noise = GaussianNoiseModel.from_sigma(1.0, 2)
    spec = CostSpec.ls(zero_op, noise)
    assert cost_ls([0.0, 0.0], [1.0, 2.0], spec) == pytest.approx(5.0)
    # beta = 0: output-space cost only
    k = from_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
    spec = CostSpec.ls(k, noise, beta=0.0)
    assert cost_ls([0.0, 0.0], [1.0, 1.0], spec) == pytest.approx(13.0)


def test_cost_bregman_values():
    prior = make_l1_prior(1.0)
    spec = CostSpec.bregman(prior)
    assert cost_bregman([1.0], [1.0], spec) == 0.0
    # scalar, K = 0, lam = 1, u = 1, uhat = -2: 2 * D(-2, 1) = 8
    assert cost_bregman([1.0], [-2.0], spec) == pytest.approx(8.0)


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
        b = cost_bregman(u, uhat, spec_b)
        l = cost_ls(u, uhat, spec_l)
        assert b == pytest.approx(l, rel=1e-12, abs=1e-12)


def test_cost_uniform_boundary():
    assert cost_uniform([1.0], [1.0], 0.5) == 0.0
    assert cost_uniform([0.0, 0.0], [0.5, -0.5], 0.5) == 0.0  # boundary in
    assert cost_uniform([0.0], [1.0], 0.5) == 1.0
    with pytest.raises(ValueError):
        cost_uniform([0.0], [1.0], 0.0)


def test_costs_convex_in_uhat():
    prior = make_l1_prior(0.8)
    k = from_matrix(RNG.standard_normal((3, 4)))
    noise = GaussianNoiseModel.from_sigma(1.0, 3)
    for spec in (CostSpec.ls(k, noise), CostSpec.bregman(prior, k, noise),
                 CostSpec.mse()):
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
        assert (cost_bregman(u, uhat, spec)
                >= cost_ls(u, uhat, spec_out) - 1e-12)


def test_mse_is_ls_without_output_term():
    # the mse kind equals cost_ls with no K term, L = I, beta = 1
    plain_ls = CostSpec.ls()
    mse = CostSpec.mse()
    for _ in range(20):
        u, uhat = RNG.standard_normal(5), RNG.standard_normal(5)
        assert mse.evaluate(u, uhat) == pytest.approx(
            plain_ls.evaluate(u, uhat), rel=1e-14)


def test_cost_spec_field_validation():
    prior = make_l1_prior(1.0)
    with pytest.raises(ValueError):
        CostSpec("ls", prior=prior)
    with pytest.raises(ValueError):
        CostSpec("bregman")
    with pytest.raises(ValueError):
        CostSpec("mse", delta=0.1)
    with pytest.raises(ValueError):
        CostSpec("uniform")
    with pytest.raises(ValueError):
        CostSpec("nonsense")


# -- Monte Carlo Bayes costs ---------------------------------------------------


def test_mc_bayes_cost_degenerate_chain():
    uhat = np.array([1.0, -1.0])
    chain = Chain(np.tile(uhat, (25, 1)), seed=0, burn_in=0, thinning=1,
                  method="gibbs")
    rep = mc_bayes_cost(chain, uhat, CostSpec.mse())
    assert rep.estimate_cost == 0.0
    assert rep.stderr == 0.0
    assert rep.n_samples == 25


def test_mc_bayes_cost_gaussian_variance():
    # MSE cost at the posterior mean equals the posterior variance
    post = _post([[1.0]], [1.0], 1.0, make_gaussian_prior(1.0, 1.0))
    chain = sample_gibbs(post, 30000, burn_in=300, seed=13)
    rep = mc_bayes_cost(chain, [0.5], CostSpec.mse())
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
    specs = [CostSpec.mse(), CostSpec.uniform(0.4),
             CostSpec.ls(post.operator, post.noise, beta=0.3),
             CostSpec.bregman(post.prior, post.operator, post.noise)]
    c = np.array([0.7])
    for spec in specs:
        cached = _CachedCost(chain, spec).costs_at(c)
        direct = np.array([spec.evaluate(u, c) for u in chain.samples])
        np.testing.assert_allclose(cached, direct, atol=1e-12)


def test_mc_bayes_cost_mean_matches_per_sample_evaluation():
    # mc_bayes_cost goes through the cached evaluator; its mean must be
    # the mean of the plain per-sample costs, for every cost kind
    rng = np.random.default_rng(31)
    k = rng.standard_normal((4, 3)) + np.eye(4, 3)
    post = _post(k, rng.standard_normal(4), 0.8, make_l1_prior(0.9))
    chain = sample_gibbs(post, 400, burn_in=40, seed=37)
    specs = [CostSpec.mse(), CostSpec.uniform(0.6),
             CostSpec.ls(post.operator, post.noise,
                         rng.standard_normal((2, 3)), beta=0.3),
             CostSpec.bregman(post.prior, post.operator, post.noise)]
    uhat = rng.standard_normal(3)
    for spec in specs:
        rep = mc_bayes_cost(chain, uhat, spec)
        direct = np.mean([spec.evaluate(u, uhat) for u in chain.samples])
        assert rep.estimate_cost == pytest.approx(direct, rel=1e-12,
                                                  abs=1e-12), spec.kind
        assert rep.n_samples == len(chain)
    uniform = np.array([specs[1].evaluate(u, uhat) for u in chain.samples])
    assert 0.0 < uniform.mean() < 1.0  # both outcomes occur


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
    s = summarize(chain, post.prior)
    rep = theorem_ineq_check(chain, res.estimate, s.mean, None, post.prior)
    assert rep.passed
    # MAP = CM for Gaussian priors: margins vanish within noise
    assert abs(rep.quadratic_margin) <= 3 * max(rep.quadratic_stderr, 1e-6)
    assert abs(rep.bregman_margin) <= 3 * max(rep.bregman_stderr, 1e-6)


def test_theorem_inequalities_scalar_l1_vs_quadrature():
    post = _scalar_l1_posterior()
    res = solve_map(post)
    chain = sample_gibbs(post, 60000, burn_in=600, seed=41)
    s = summarize(chain, post.prior)
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
    s = summarize(chain, post.prior)
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


# -- uniform-cost diagnostic -------------------------------------------------------


def test_uniform_cost_limit_diagnostic():
    post = _post(np.eye(2), [1.0, -0.5], 1.0, make_l1_prior(0.7))
    out = uniform_cost_map_limit(post, center=[0.5, -0.2], half_width=2.0,
                                 lattice=41, deltas=(0.5, 0.2, 0.1))
    assert len(out["deltas"]) == 3
    # the smallest delta's minimizer sits at the density maximizer
    assert out["deltas"][-1]["sup_distance_to_max"] <= 0.5
    for entry in out["deltas"]:
        assert 0.0 <= entry["sup_distance_to_max"]


# -- report plumbing ---------------------------------------------------------------


def test_report_serialization(tmp_path):
    post = _scalar_l1_posterior()
    res = solve_map(post)
    rep = centered_energy_check(post, res, n_points=10, seed=1)
    text = format_report_text(rep)
    assert "map_centered_energy" in text and "PASS" in text
    path = tmp_path / "report.json"
    report_to_json([rep], path)
    import json

    data = json.loads(path.read_text())
    assert data[0]["check"] == "map_centered_energy"
    assert data[0]["passed"] is True
