import dataclasses
import logging
import os
from pathlib import Path

import numpy as np
import pytest

import bregbayes.experiments as experiments
from bregbayes.config import load_config
from bregbayes.experiments import (ScenarioConfig, build_ct2d, build_deblur2d,
                                   build_indicator_1d, build_scenario,
                                   build_shepp_logan, build_spots_phantom,
                                   build_tv1d, coefficient_sparsity,
                                   generate_data, lambda_sqrt_rule,
                                   run_dilemma_sweep, run_experiment,
                                   s_curve_select_lambda)
from bregbayes.grids import Signal, grid1d, grid2d
from bregbayes.map_solver import SolverOptions, solve_map
from bregbayes.model import GaussianNoiseModel, Posterior
from bregbayes.operators import from_matrix, identity
from bregbayes.priors import make_l1_prior

RNG = np.random.default_rng(808)


# -- phantoms ------------------------------------------------------------------


def test_spots_phantom_empty_and_deterministic():
    g = grid2d(32, 32)
    zero = build_spots_phantom(g, 0, seed=1)
    assert np.all(zero.values == 0.0)
    a = build_spots_phantom(g, 5, seed=7)
    b = build_spots_phantom(g, 5, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = build_spots_phantom(g, 5, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_spots_phantom_disk_membership():
    # every nonzero pixel belongs to exactly one disk, constant per disk
    g = grid2d(48, 48)
    sig = build_spots_phantom(g, 6, seed=3)
    img = sig.as_image()
    values = np.unique(img[img > 0])
    assert 1 <= values.size <= 6  # one constant level per disk
    assert np.all(sig.values >= 0.0)
    # overlap-free: morphological check via connected component count
    from scipy.ndimage import label

    labels, n_comp = label(img > 0)
    assert n_comp == 6
    for k in range(1, n_comp + 1):
        region = img[labels == k]
        assert np.all(region == region[0])


def test_spots_phantom_failure_when_too_crowded():
    with pytest.raises(RuntimeError):
        build_spots_phantom(grid2d(16, 16), 200, seed=0,
                            radius_range=(0.2, 0.3), max_retries=50)


def test_indicator_small_grid():
    np.testing.assert_array_equal(build_indicator_1d(grid1d(3)).values,
                                  [0.0, 1.0, 0.0])


def test_indicator_tv_and_mean():
    from bregbayes.priors import make_tv1d_prior

    tv = make_tv1d_prior(1.0)
    for n in (9, 33, 201):
        sig = build_indicator_1d(grid1d(n))
        assert tv.energy(sig.values) == pytest.approx(2.0)
    # Riemann sum converges to the interval length 1/3
    mean_fine = build_indicator_1d(grid1d(3001)).values.mean()
    assert mean_fine == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_shepp_logan_range_and_corners():
    sig = build_shepp_logan(grid2d(64, 64))
    assert sig.values.min() >= 0.0
    assert sig.values.max() <= 1.0
    img = sig.as_image()
    assert img[0, 0] == 0.0 and img[0, -1] == 0.0
    assert img[-1, 0] == 0.0 and img[-1, -1] == 0.0
    # skull ring present: maximum is 1 (clamped outer ellipse)
    assert sig.values.max() == pytest.approx(1.0)


def test_shepp_logan_support_mirror_symmetric():
    # the two outer ellipses are centered and unrotated, so the support is
    # mirror symmetric up to pixel quantization; interior features are NOT
    # (the standard table's ventricles differ by design)
    sig = build_shepp_logan(grid2d(128, 128))
    img = sig.as_image()
    support = img > 0.0
    mismatch = np.mean(support != support[:, ::-1])
    assert mismatch < 0.01
    interior_mismatch = np.mean(np.abs(img - img[:, ::-1]) > 1e-12)
    assert interior_mismatch < 0.08


# -- data generation -----------------------------------------------------------


def test_generate_data_deterministic_and_noise_scale():
    g = grid1d(16)
    truth = Signal(g, np.abs(RNG.standard_normal(16)) + 0.5)
    op = identity(16)
    a = generate_data(truth, op, op, 0.1, seed=5, data_grid=g)
    b = generate_data(truth, op, op, 0.1, seed=5, data_grid=g)
    np.testing.assert_array_equal(a.data.values, b.data.values)
    assert a.sigma == pytest.approx(0.1 * np.abs(truth.values).max())
    # noise_fraction -> 0 recovers the noiseless projection
    tiny = generate_data(truth, op, op, 1e-12, seed=5, data_grid=g)
    np.testing.assert_allclose(tiny.data.values, truth.values, atol=1e-10)


def test_generate_data_empirical_sigma():
    g = grid1d(64)
    truth = Signal(g, np.ones(64))
    op = identity(64)
    draws = []
    for seed in range(100):
        out = generate_data(truth, op, op, 0.2, seed=seed, data_grid=g)
        draws.append(out.data.values - out.noiseless.values)
    emp = np.concatenate(draws).std()
    assert emp == pytest.approx(0.2, rel=0.05)


def test_generate_data_rejects_zero_forward():
    g = grid1d(4)
    truth = Signal(g, np.zeros(4))
    op = identity(4)
    with pytest.raises(ValueError):
        generate_data(truth, op, op, 0.1, seed=0, data_grid=g)


# -- lambda rules ----------------------------------------------------------------


def test_lambda_sqrt_rule_values():
    assert lambda_sqrt_rule(3, 1.0) == pytest.approx(2.0)
    assert lambda_sqrt_rule(63, 1.0) == pytest.approx(8.0)
    assert lambda_sqrt_rule(63, 2.0) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        lambda_sqrt_rule(1, 1.0)
    with pytest.raises(ValueError):
        lambda_sqrt_rule(10, 0.0)


def test_s_curve_scalar_soft_threshold():
    # scalar problem: lambda above |f| zeroes the estimate
    f = 2.0

    def factory(lam):
        return Posterior(identity(1), Signal(grid1d(1), [f]),
                         GaussianNoiseModel.from_sigma(1.0, 1),
                         make_l1_prior(lam))

    from bregbayes.map_solver import solve_map

    res = solve_map(factory(3.0))
    assert coefficient_sparsity(factory(3.0).prior, res.estimate) == 0.0
    res = solve_map(factory(0.5))
    assert coefficient_sparsity(factory(0.5).prior, res.estimate) == 1.0


def _sparse_identity_factory(solved=None):
    # 8-dim problem with a 3-sparse truth; the MAP soft-thresholds f at
    # lambda, so its sparsity is the fraction of |f_i| above lambda
    rng = np.random.default_rng(4242)
    n = 8
    truth = np.zeros(n)
    truth[:3] = (3.0, -2.0, 1.5)
    f = truth + 0.05 * rng.standard_normal(n)

    def factory(lam):
        if solved is not None:
            solved.append(lam)
        return Posterior(from_matrix(np.eye(n)), Signal(grid1d(n), f),
                         GaussianNoiseModel.from_sigma(1.0, n),
                         make_l1_prior(lam))

    return factory


def test_s_curve_bisection_matches_target():
    # ask for sparsity 3/8
    factory = _sparse_identity_factory()
    lam, _ = s_curve_select_lambda(factory, 3.0 / 8.0, (1e-3, 10.0), tol=1e-6)
    from bregbayes.experiments import map_sparsity
    from bregbayes.map_solver import solve_map

    post = factory(lam)
    res = solve_map(post)
    assert map_sparsity(post, res) == pytest.approx(3.0 / 8.0)


def test_s_curve_rejects_bad_bracket():
    def factory(lam):
        return Posterior(identity(1), Signal(grid1d(1), [2.0]),
                         GaussianNoiseModel.from_sigma(1.0, 1),
                         make_l1_prior(lam))

    with pytest.raises(ValueError):
        # both ends above |f|: sparsity 0 at both, target 0.9 not straddled
        s_curve_select_lambda(factory, 0.9, (3.0, 10.0))


def test_s_curve_solves_no_bracket_end_when_a_midpoint_meets_the_target():
    solved = []
    lam, evaluated = s_curve_select_lambda(_sparse_identity_factory(solved),
                                           3.0 / 8.0, (1e-3, 10.0))
    assert 1e-3 not in solved and 10.0 not in solved
    assert [e["lambda"] for e in evaluated] == solved
    assert lam == solved[-1]
    assert evaluated[-1]["sparsity"] == pytest.approx(3.0 / 8.0)
    assert all(e["converged"] and e["iterations"] > 0 for e in evaluated)
    # each entry records the KKT residual its convergence rests on
    tol = SolverOptions().tol_residual
    assert all(0.0 <= e["residual"] <= tol for e in evaluated)


def test_s_curve_rejects_an_unconverged_solve():
    with pytest.raises(ValueError, match=r"lambda 0\.1 did not converge "
                                         r"within 3 iterations \(residual"):
        s_curve_select_lambda(_sparse_identity_factory(), 3.0 / 8.0,
                              (1e-3, 10.0), solver=SolverOptions(max_iters=3))


def test_s_curve_rejects_a_rising_sparsity(monkeypatch):
    # sparsity 0.4 from lambda 0.5 on, 0.3 below: the first midpoint (1.0)
    # sends the search down to 0.1, where the curve is seen to rise
    monkeypatch.setattr(experiments, "map_sparsity",
                        lambda post, res: 0.3 if post.prior.lam < 0.5 else 0.4)
    solved = []
    with pytest.raises(ValueError, match="not non-increasing"):
        s_curve_select_lambda(_sparse_identity_factory(solved), 0.5,
                              (1e-2, 1e2), tol=0.01)
    assert solved == pytest.approx([1.0, 0.1])


# -- scenario assembly ------------------------------------------------------------


def test_scenario_builders_shapes():
    cfg = ScenarioConfig(name="deblur2d", recon_shape=(16, 16), truth_factor=2,
                         lam=1.0, spots=2, kernel_sigma=0.05, seed=1)
    parts = build_deblur2d(cfg)
    assert parts.recon_grid.shape == (16, 16)
    assert parts.truth_fine.grid.shape == (32, 32)
    assert parts.recon_operator.in_dim == 256

    cfg = ScenarioConfig(name="tv1d", recon_shape=(15,), truth_factor=2,
                         lam=1.0, data_size=5, sweep=(15, 31), seed=1)
    parts = build_tv1d(cfg)
    assert parts.data_grid.size == 5
    assert parts.forward_fine.in_dim == 2 * 31

    cfg = ScenarioConfig(name="ct2d", recon_shape=(16, 16), truth_factor=2,
                         lam=1.0, lambda_rule="fixed", angles=5, bins=23,
                         seed=1)
    parts = build_ct2d(cfg)
    assert parts.data_grid.shape == (5, 23)
    assert parts.sampler_method == "rwm"


def test_inverse_crime_guard():
    cfg = ScenarioConfig(name="deblur2d", recon_shape=(16, 16), truth_factor=2,
                         lam=1.0, spots=2, kernel_sigma=0.05, seed=1)
    parts = build_scenario(cfg)
    assert parts.forward_fine is not parts.recon_operator
    assert parts.truth_fine.grid != parts.recon_grid


def _small_deblur_config(max_iters):
    return ScenarioConfig(name="deblur2d", recon_shape=(16, 16), truth_factor=2,
                          noise_fraction=0.05, lam=2.0, spots=2,
                          kernel_sigma=0.05, seed=2, n_samples=60, n_chains=2,
                          solver=SolverOptions(max_iters=max_iters,
                                               tol_residual=1e-3))


def test_run_experiment_small_deblur():
    cfg = _small_deblur_config(max_iters=4000)
    record = run_experiment(cfg, verify=True, n_probes=6)
    assert record.metrics["map_converged"]
    assert record.map_result.estimate.shape == (256,)
    assert record.cm.mean.shape == (256,)
    assert 0 < record.metrics["rel_l2_map"] < 5
    assert record.metrics["two_chain_sup"] >= 0
    assert len(record.reports) == 5
    # bit reproducibility of the whole pipeline
    again = run_experiment(cfg)
    np.testing.assert_array_equal(record.map_result.estimate,
                                  again.map_result.estimate)
    np.testing.assert_array_equal(record.cm.mean, again.cm.mean)


def test_run_experiment_verify_refuses_unconverged_map(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an unconverged MAP must stop before sampling")

    monkeypatch.setattr(experiments, "sample_posterior", no_sampling)
    cfg = _small_deblur_config(max_iters=20)
    with pytest.raises(ValueError, match="verification needs a converged MAP: "
                                         "the solve stopped after 20 "
                                         "iterations"):
        run_experiment(cfg, verify=True, n_probes=6)


def test_run_experiment_refuses_too_few_draws_before_any_work(monkeypatch):
    def no_scenario(*args, **kwargs):
        raise AssertionError("too few draws must stop before the scenario")

    monkeypatch.setattr(experiments, "build_scenario", no_scenario)
    cfg = dataclasses.replace(_small_deblur_config(max_iters=4000),
                              n_samples=5)
    with pytest.raises(ValueError, match=r"\[sampler\] samples = 5 times "
                                         r"chains = 2 gives 10"):
        run_experiment(cfg)
    with pytest.raises(AssertionError, match="before the scenario"):
        run_experiment(cfg, with_cm=False)


# -- parallel chains ---------------------------------------------------------------


_PARALLEL_CONFIGS = {
    "deblur2d": dict(recon_shape=(16, 16), truth_factor=2, lam=2.0, spots=2,
                     kernel_sigma=0.05),
    "tv1d": dict(recon_shape=(31,), truth_factor=4, lam=2.0, data_size=8,
                 sweep=(31,), noise_fraction=0.1),
    "ct2d": dict(recon_shape=(16, 16), truth_factor=2, lam=0.5,
                 lambda_rule="fixed", angles=7, bins=23, noise_fraction=0.02),
}


def _posterior_to_sample(name, n_chains=2):
    """A small scenario's posterior at its config lambda, and its config."""
    cfg = ScenarioConfig(name=name, seed=4, n_samples=30, n_chains=n_chains,
                         **_PARALLEL_CONFIGS[name])
    parts = build_scenario(cfg)
    data = generate_data(parts.truth_fine, parts.forward_fine, parts.restrict,
                         cfg.noise_fraction, cfg.seed, parts.data_grid)
    return experiments.assemble_posterior(parts, data, cfg.lam), cfg, parts


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bits(chains):
    return [c.samples.view(np.uint64) for c in chains]


@pytest.mark.parametrize("name", ["deblur2d", "tv1d", "ct2d"])
def test_parallel_chains_are_the_one_cpu_chains(monkeypatch, name):
    post, cfg, parts = _posterior_to_sample(name)
    assert parts.sampler_method == ("rwm" if name == "ct2d" else "gibbs")
    _usable_cpus(monkeypatch, 1)
    assert experiments.chain_workers(cfg.n_chains) == 1
    alone = experiments.sample_posterior(post, cfg, parts.sampler_method)
    _usable_cpus(monkeypatch, 2)
    assert experiments.chain_workers(cfg.n_chains) == 2
    forked = experiments.sample_posterior(post, cfg, parts.sampler_method)
    for a, b in zip(_bits(alone), _bits(forked), strict=True):
        np.testing.assert_array_equal(a, b)
    assert [c.acceptance_rate for c in alone] == [c.acceptance_rate
                                                  for c in forked]
    _assert_no_child_left()


def test_parallel_chains_come_back_in_index_order(monkeypatch):
    post, cfg, _ = _posterior_to_sample("deblur2d", n_chains=5)
    _usable_cpus(monkeypatch, 2)
    forked = experiments.sample_posterior(post, cfg, "gibbs")
    burn = max(1, cfg.n_samples // 10)
    for c, chain in enumerate(forked):
        one = experiments.sample_gibbs(post, cfg.n_samples, burn, seed=cfg.seed,
                                       chain_index=c)
        np.testing.assert_array_equal(chain.samples.view(np.uint64),
                                      one.samples.view(np.uint64))
    _assert_no_child_left()


def test_parallel_chains_without_fork_run_in_process(monkeypatch):
    monkeypatch.delattr(experiments.os, "fork", raising=False)
    assert experiments.chain_workers(4) == 1


def _failing_sampler(monkeypatch, fail):
    real = experiments.sample_gibbs

    def sampler(*args, chain_index, **kwargs):
        if chain_index == 1:
            fail()
        return real(*args, chain_index=chain_index, **kwargs)

    monkeypatch.setattr(experiments, "sample_gibbs", sampler)


def test_parallel_chains_raise_a_worker_error_in_the_parent(monkeypatch):
    post, cfg, _ = _posterior_to_sample("deblur2d", n_chains=3)
    _usable_cpus(monkeypatch, 2)

    def fail():
        raise FloatingPointError("chain 1 went astray")

    _failing_sampler(monkeypatch, fail)
    with pytest.raises(FloatingPointError, match="^chain 1 went astray$"):
        experiments.sample_posterior(post, cfg, "gibbs")
    _assert_no_child_left()


def test_parallel_chains_raise_when_a_worker_dies(monkeypatch):
    post, cfg, _ = _posterior_to_sample("deblur2d", n_chains=4)
    _usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def die():
        if os.getpid() != parent:  # never end the test process itself
            os._exit(7)

    _failing_sampler(monkeypatch, die)
    with pytest.raises(RuntimeError, match=r"chains \[1, 3\] died without "
                                           r"a result"):
        experiments.sample_posterior(post, cfg, "gibbs")
    _assert_no_child_left()


def test_parallel_chains_reap_the_workers_when_the_parent_fails(monkeypatch):
    post, cfg, _ = _posterior_to_sample("deblur2d")
    _usable_cpus(monkeypatch, 2)
    real = experiments.sample_gibbs

    def sampler(*args, chain_index, **kwargs):
        if chain_index == 0:
            raise KeyError("chain 0")
        return real(*args, chain_index=chain_index, **kwargs)

    monkeypatch.setattr(experiments, "sample_gibbs", sampler)
    with pytest.raises(KeyError, match="chain 0"):
        experiments.sample_posterior(post, cfg, "gibbs")
    _assert_no_child_left()


def test_run_experiment_small_ct_rwm():
    cfg = ScenarioConfig(name="ct2d", recon_shape=(16, 16), truth_factor=2,
                         noise_fraction=0.02, lam=0.5, lambda_rule="fixed",
                         angles=7, bins=23, seed=4, n_samples=80, n_chains=2,
                         solver=SolverOptions(max_iters=400, tol_residual=1e-3))
    record = run_experiment(cfg)
    assert record.chains[0].method == "rwm"
    assert 0.01 < record.metrics["acceptance_rate"] < 0.99
    assert record.metrics["acceptance_rates"] == [c.acceptance_rate
                                                  for c in record.chains]
    assert len(record.chains) == 2
    assert record.metrics["rel_l2_map"] < 2.0


def test_run_dilemma_sweep_small():
    cfg = ScenarioConfig(name="tv1d", recon_shape=(15,), truth_factor=4,
                         noise_fraction=0.1, lam=2.0, rule_constant=0.25,
                         data_size=8, sweep=(15, 31), seed=6, n_samples=80,
                         n_chains=2,
                         solver=SolverOptions(max_iters=800, tol_residual=1e-3))
    rep = run_dilemma_sweep(cfg, "sqrt_n")
    assert rep.rule == "sqrt_n"
    assert [lv.n for lv in rep.levels] == [15, 31]
    assert rep.levels[0].lam == pytest.approx(0.25 * np.sqrt(16))
    rep2 = run_dilemma_sweep(cfg, "fixed")
    assert all(lv.lam == 2.0 for lv in rep2.levels)
    assert all(np.isfinite(lv.tv_cm) for lv in rep2.levels)
    assert all(lv.map_converged and lv.map_iterations >= 1
               for lv in rep.levels + rep2.levels)


def test_run_dilemma_sweep_rejects_unconverged_map():
    cfg = ScenarioConfig(name="tv1d", recon_shape=(15,), truth_factor=4,
                         noise_fraction=0.1, lam=2.0, rule_constant=0.25,
                         data_size=8, sweep=(15, 31), seed=6,
                         solver=SolverOptions(max_iters=3, tol_residual=1e-3))
    with pytest.raises(ValueError, match="rule fixed, n = 15: MAP solve did "
                                         "not converge within 3 iterations"):
        run_dilemma_sweep(cfg, "fixed", with_cm=False)


# -- MAP u-step structure ------------------------------------------------------


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _captured_solves(monkeypatch):
    results = []

    def solve(post, opts=None, start=None):
        results.append(solve_map(post, opts, start))
        return results[-1]

    monkeypatch.setattr(experiments, "solve_map", solve)
    return results


def test_bundled_blur_and_tv_map_solves_run_no_cg(monkeypatch):
    # the reflective blur with pixel l1 and every TV posterior of the
    # dilemma sweep take exact u-steps
    solves = _captured_solves(monkeypatch)
    cfg, _ = load_config(CONFIGS / "deblur2d.ini")
    record = run_experiment(cfg, with_cm=False)
    assert record.metrics["map_cg_iterations"] == 0
    cfg, _ = load_config(CONFIGS / "tv1d.ini")
    cfg = dataclasses.replace(cfg, sweep=(63, 255, 1023))
    for rule in ("sqrt_n", "fixed"):
        run_dilemma_sweep(cfg, rule, with_cm=False)
    assert len(solves) == 7
    assert all(r.converged and r.cg_iterations == 0 for r in solves)


def test_radon_besov_map_solve_runs_cg(caplog):
    # a few outer iterations suffice to see the u-step run CG
    cfg = ScenarioConfig(name="ct2d", recon_shape=(16, 16), truth_factor=2,
                         noise_fraction=0.02, lam=0.5, lambda_rule="fixed",
                         angles=7, bins=23, seed=4,
                         solver=SolverOptions(max_iters=20))
    with caplog.at_level(logging.WARNING, logger="bregbayes.map_solver"):
        record = run_experiment(cfg, with_cm=False)
    assert "no convergence" in caplog.text
    assert not record.metrics["map_converged"]
    assert record.metrics["lambda_search"] == []
    assert record.map_result.cg_iterations > 0
    assert record.metrics["map_cg_iterations"] == record.map_result.cg_iterations


def test_s_curve_path_on_the_ct_estimate_posterior():
    # the benchmark's ct-estimate config: the bundled ct2d at 32x32
    cfg = ScenarioConfig(name="ct2d", seed=3, recon_shape=(32, 32),
                         truth_factor=4, noise_fraction=0.01,
                         lambda_rule="s_curve", s_curve_target=0.11,
                         s_curve_bracket=(10.0, 5000.0), s_curve_tol=0.02,
                         angles=15, bins=95,
                         solver=SolverOptions(max_iters=1200,
                                              tol_residual=1e-4, cg_tol=1e-8))
    record = run_experiment(cfg, with_cm=False)
    search = record.metrics["lambda_search"]
    assert record.lam == 1893.459155176265
    assert [round(e["sparsity"], 4) for e in search] == \
        [0.5703, 0.1895, 0.0801, 0.1367, 0.0996]
    assert [e["iterations"] for e in search] == [80, 50, 60, 50, 60]
    assert all(e["converged"] for e in search)
    assert record.map_result.converged and record.map_result.iterations == 0


def test_s_curve_final_map_continues_the_accepted_search_solve(monkeypatch):
    calls = []

    def solve(post, opts=None, start=None):
        calls.append((post.prior.lam, opts, start, solve_map(post, opts, start)))
        return calls[-1][-1]

    monkeypatch.setattr(experiments, "solve_map", solve)
    solver = SolverOptions(max_iters=1200, tol_residual=1e-4, cg_tol=1e-8)
    cfg = ScenarioConfig(name="ct2d", seed=3, recon_shape=(16, 16),
                         truth_factor=2, noise_fraction=0.01,
                         lambda_rule="s_curve", s_curve_target=0.2,
                         s_curve_bracket=(10.0, 5000.0), s_curve_tol=0.03,
                         angles=15, bins=47, solver=solver)
    record = run_experiment(cfg, with_cm=False)
    *search, (lam, opts, start, final) = calls
    search_result = search[-1][-1]
    assert lam == record.lam == search[-1][0] and start is search_result
    # the search's u-steps run CG at 10x cg_tol, the final solve at cg_tol
    assert all(o.cg_tol == 1e-7 and o.trace_path is None for _, o, _, _ in search)
    assert (opts.cg_tol, opts.tol_residual, opts.max_iters) == (1e-8, 1e-4, 1200)
    assert final is record.map_result and final.converged
    assert final.iterations == 0
    metrics = record.metrics
    assert metrics["map_continued_from_search"] is True
    assert [e["cg_iterations"] for e in metrics["lambda_search"]] == \
        [r.cg_iterations for *_, r in search]
    assert all(e["cg_iterations"] > 0 for e in metrics["lambda_search"])
    fixed = run_experiment(dataclasses.replace(cfg, lambda_rule="fixed",
                                               lam=lam), with_cm=False)
    assert fixed.metrics["map_continued_from_search"] is False
    assert calls[-1][2] is None
