import dataclasses
import logging
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cho_solve_banded, cholesky_banded

from bregbayes import map_solver
from bregbayes.experiments import build_indicator_1d, build_shepp_logan
from bregbayes.grids import Signal, grid1d, grid2d
from bregbayes.map_solver import (MapResult, SolverOptions, _banded_tv_solver,
                                  _exact_u_step, optimality_residual,
                                  solve_map, subgradient_certificate)
from bregbayes.model import GaussianNoiseModel, Posterior, neg_log_posterior
from bregbayes.operators import (from_matrix, gaussian_blur, haar_transform,
                                 interval_average_1d, radon)
from bregbayes.priors import (make_besov_prior, make_gaussian_prior,
                              make_l1_prior, make_tv1d_prior)

RNG = np.random.default_rng(321)


def _posterior(k, f, sigma, prior):
    k = np.atleast_2d(np.asarray(k, dtype=float))
    m = k.shape[0]
    return Posterior(from_matrix(k), Signal(grid1d(m), f),
                     GaussianNoiseModel.from_sigma(sigma, m), prior)


def exact_scalar_energy(post):
    """E(t) of a one-dimensional posterior, exactly, as a Fraction.

    Near its minimum the float energy is too flat for float64 to tell
    points apart closer than about sqrt(eps); exact arithmetic on the
    posterior's own K, f, precision and lambda has no such floor.
    """
    k = Fraction(float(post.operator.apply(np.ones(1))[0]))
    f = Fraction(float(post.data.values[0]))
    prec = Fraction(float(post.noise.precision_diag[0]))
    lam = Fraction(post.prior.lam)
    assert post.prior.kind == "l1" and post.prior.transform is None

    def energy(t):
        t = Fraction(float(t))
        return (f - k * t) ** 2 * prec / 2 + lam * abs(t)
    return energy


def _ternary_min(fn, lo, hi, iters=300):
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if fn(m1) <= fn(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def _l1_coordinate_descent(k, f, sigma, lam, n_sweeps=100000, tol=1e-14):
    """Exhaustive coordinate descent oracle for the l1 MAP problem."""
    a = k.T @ k / sigma**2
    g = k.T @ f / sigma**2
    u = np.zeros(k.shape[1])
    for _ in range(n_sweeps):
        biggest = 0.0
        for i in range(u.size):
            grad_i = a[i] @ u - g[i]
            c = u[i] - grad_i / a[i, i]
            t = np.sign(c) * max(abs(c) - lam / a[i, i], 0.0)
            biggest = max(biggest, abs(t - u[i]))
            u[i] = t
        if biggest < tol:
            break
    return u


def test_scalar_l1_soft_threshold():
    post = _posterior([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    res = solve_map(post)
    assert res.converged
    assert res.estimate[0] == pytest.approx(1.5, abs=1e-8)
    # independent 1D oracle: ternary search on the exact posterior energy
    oracle = _ternary_min(exact_scalar_energy(post), -10.0, 10.0)
    assert res.estimate[0] == pytest.approx(oracle, abs=1e-8)


def test_gaussian_prior_matches_dense_solve():
    m = n = 8
    k = RNG.standard_normal((m, n)) + 2 * np.eye(m, n)
    f = RNG.standard_normal(m)
    sigma, lam, beta = 0.5, 0.7, 1.3
    l_mat = RNG.standard_normal((n, n)) + 3 * np.eye(n)
    post = _posterior(k, f, sigma, make_gaussian_prior(lam, beta, l_mat))
    res = solve_map(post)
    dense = np.linalg.solve(k.T @ k / sigma**2 + beta * l_mat.T @ l_mat,
                            k.T @ f / sigma**2)
    assert np.linalg.norm(res.estimate - dense) <= 1e-8 * np.linalg.norm(dense)
    assert optimality_residual(post, res) <= 1e-8


def test_gaussian_solve_stopped_short_is_unconverged(caplog):
    # K with condition number 1e7 and beta = 1e-13: CG runs out of its
    # 10 n iterations far from the KKT tolerance
    n = 60
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = q @ np.diag(np.logspace(0, -7, n)) @ q.T
    post = _posterior(k, rng.standard_normal(n), 1.0,
                      make_gaussian_prior(1.0, 1e-13))
    opts = SolverOptions()
    with caplog.at_level(logging.WARNING, logger="bregbayes.map_solver"):
        res = solve_map(post, opts)
    assert res.cg_iterations == 10 * n
    assert res.residual_norm > opts.tol_residual
    assert not res.converged
    assert "no convergence" in caplog.text


def test_zero_data_gives_zero_estimate():
    n = 5
    k = RNG.standard_normal((n, n))
    for prior in (make_l1_prior(0.3), make_tv1d_prior(0.3),
                  make_besov_prior(0.3, np.ones(8), haar_transform(grid1d(8)))):
        dim = 8 if prior.kind == "besov" else n
        kk = RNG.standard_normal((dim, dim))
        post = _posterior(kk, np.zeros(dim), 1.0, prior)
        res = solve_map(post)
        assert np.abs(res.estimate).max() < 1e-12


def test_l1_matches_coordinate_descent_oracle():
    for n in (2, 4, 6):
        for trial in range(3):
            k = RNG.standard_normal((n + 2, n)) + np.eye(n + 2, n)
            f = RNG.standard_normal(n + 2)
            sigma, lam = 0.8, 0.4
            post = _posterior(k, f, sigma, make_l1_prior(lam))
            res = solve_map(post, SolverOptions(max_iters=5000))
            oracle = _l1_coordinate_descent(k, f, sigma, lam)
            np.testing.assert_allclose(res.estimate, oracle, atol=1e-6)


def test_tv_matches_pattern_enumeration_oracle():
    from test_priors import _tv_prox_bruteforce  # exact prox enumerator

    # K = I, sigma = 1 turns the MAP problem into the TV prox of f
    n = 6
    f = RNG.standard_normal(n) * 2
    lam = 0.35
    post = _posterior(np.eye(n), f, 1.0, make_tv1d_prior(lam))
    res = solve_map(post, SolverOptions(max_iters=8000))
    oracle, _ = _tv_prox_bruteforce(f, lam)
    np.testing.assert_allclose(res.estimate, oracle, atol=1e-6)


def test_besov_map_certified_by_residual():
    n = 16
    w = haar_transform(grid1d(n))
    k = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    f = RNG.standard_normal(n)
    post = _posterior(k, f, 1.0,
                      make_besov_prior(0.5, RNG.uniform(0.5, 2.0, n), w))
    res = solve_map(post, SolverOptions(max_iters=4000))
    assert res.converged
    assert optimality_residual(post, res) < 1e-6


def test_besov_u_step_applies_no_wavelet():
    # Phi^T Phi = I for the Besov wavelet, so the CG u-step must not apply
    # it; what remains is a few applies per outer iteration (right-hand
    # side, split update, energy, periodic residual)
    n = 16
    calls = [0]

    def counted(fn):
        def apply(x):
            calls[0] += 1
            return fn(x)
        return apply

    w = haar_transform(grid1d(n))
    w = dataclasses.replace(w, apply=counted(w.apply),
                            adjoint_apply=counted(w.adjoint_apply))
    k = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    post = _posterior(k, RNG.standard_normal(n), 1.0,
                      make_besov_prior(0.5, RNG.uniform(0.5, 2.0, n), w))
    calls[0] = 0
    res = solve_map(post, SolverOptions(max_iters=4000))
    assert res.converged
    assert calls[0] <= 8 * res.iterations


@pytest.mark.parametrize("case", ["interval_average_255", "dense_12"])
def test_banded_tv_u_step_matches_dense_solve(case, monkeypatch):
    # (K^T P K + mu D^T D) u = rhs, banded factor against a dense solve,
    # with a non-constant noise precision
    rng = np.random.default_rng(41)
    if case == "dense_12":
        n, m = 12, 9
        k = from_matrix(rng.standard_normal((m, n)))
    else:
        n, m = 255, 30
        k = interval_average_1d(grid1d(n), m)
    prec = rng.uniform(50.0, 150.0, m)
    post = Posterior(k, Signal(grid1d(m), np.zeros(m)),
                     GaussianNoiseModel(prec),
                     make_tv1d_prior(0.3))
    mu = 3.0
    kd = np.column_stack([k.apply(e) for e in np.eye(n)])
    dd = np.diff(np.eye(n), axis=0)
    a = kd.T @ (prec[:, None] * kd) + mu * dd.T @ dd
    rhs = rng.standard_normal(n)
    dense = np.linalg.solve(a, rhs)
    factors = []

    def kept_factor(ab):
        factors.append(cholesky_banded(ab))
        return factors[-1]

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", kept_factor)
    banded = _banded_tv_solver(post, mu)(rhs)
    assert np.abs(banded - dense).max() <= 1e-12 * np.abs(dense).max()
    # the LAPACK pbtrs call is scipy's banded Cholesky solve on that factor
    reference = cho_solve_banded((factors[0], False), rhs)
    assert np.abs(banded - reference).max() <= 1e-14 * np.abs(reference).max()


def test_non_finite_iterate_ends_the_solve_unconverged(caplog):
    n = 12
    k = from_matrix(np.random.default_rng(44).standard_normal((n, n)))
    k = dataclasses.replace(k, adjoint_apply=lambda v: np.full(n, np.nan))
    post = Posterior(k, Signal(grid1d(n), np.ones(n)),
                     GaussianNoiseModel.from_sigma(1.0, n), make_tv1d_prior(0.3))
    with caplog.at_level(logging.WARNING, logger="bregbayes.map_solver"):
        res = solve_map(post)
    assert not res.converged
    assert res.iterations == 1
    assert "non-finite iterate" in caplog.text


def test_tv_with_operator_annihilating_constants_is_refused():
    # K = D maps constants to zero, so the TV MAP is not unique and
    # K^T K + mu D^T D has no Cholesky factor
    n = 6
    post = _posterior(np.diff(np.eye(n), axis=0), np.ones(n - 1), 1.0,
                      make_tv1d_prior(0.2))
    with pytest.raises(ValueError, match="not unique"):
        solve_map(post)


def _blur_posterior(grid, sigma_kernel, lam, rng):
    k = gaussian_blur(grid, sigma_kernel)
    truth = np.zeros(grid.size)
    truth[rng.choice(grid.size, 5, replace=False)] = 1.0
    f = k.apply(truth) + 0.02 * rng.standard_normal(grid.size)
    return Posterior(k, Signal(grid, f),
                     GaussianNoiseModel.from_sigma(0.02, grid.size),
                     make_l1_prior(lam))


def test_blur_u_step_exact_by_dct_agrees_with_cg():
    post = _blur_posterior(grid2d(16, 12), 0.05, 0.5, np.random.default_rng(42))
    opts = SolverOptions(penalty=1e3, max_iters=5000)
    exact = solve_map(post, opts)
    op = dataclasses.replace(post.operator, dct_eigenvalues=None)
    by_cg = solve_map(dataclasses.replace(post, operator=op), opts)
    assert exact.converged and by_cg.converged
    assert exact.cg_iterations == 0 and by_cg.cg_iterations > 0
    scale = np.abs(by_cg.estimate).max()
    assert np.abs(exact.estimate - by_cg.estimate).max() <= 1e-7 * scale


@pytest.mark.parametrize("grid", [grid1d(40), grid2d(12, 9)])
def test_dct_u_step_matches_dense_solve(grid):
    k = gaussian_blur(grid, 0.06)
    post = Posterior(k, Signal(grid, np.zeros(grid.size)),
                     GaussianNoiseModel.from_sigma(0.3, grid.size),
                     make_l1_prior(1.0))
    mu = 2.5
    kd = np.column_stack([k.apply(e) for e in np.eye(grid.size)])
    a = post.noise.precision_diag[0] * kd.T @ kd + mu * np.eye(grid.size)
    rhs = np.random.default_rng(1).standard_normal(grid.size)
    dense = np.linalg.solve(a, rhs)
    by_dct = _exact_u_step(post, mu)(rhs)
    assert np.abs(by_dct - dense).max() <= 1e-12 * np.abs(dense).max()


def _tv_posterior(rng):
    n, m = 63, 20
    truth = build_indicator_1d(grid1d(n)).values
    k = interval_average_1d(grid1d(n), m)
    return Posterior(k, Signal(grid1d(m), k.apply(truth)
                               + 0.05 * rng.standard_normal(m)),
                     GaussianNoiseModel.from_sigma(0.05, m),
                     make_tv1d_prior(0.5))


_CONTINUED_CASES = {
    "blur-l1-dct": (lambda rng: _blur_posterior(grid2d(16, 12), 0.05, 0.5, rng),
                    SolverOptions(penalty=1e3, max_iters=5000)),
    "tv-banded": (_tv_posterior, SolverOptions(penalty=5.0, max_iters=5000)),
}


@pytest.mark.parametrize("case", sorted(_CONTINUED_CASES))
def test_continuing_a_converged_solve_returns_its_start(case):
    make_post, opts = _CONTINUED_CASES[case]
    post = make_post(np.random.default_rng(5))
    cold = solve_map(post, opts)
    assert cold.converged and cold.iterations > 10
    # a start that meets tol_residual is returned as it is, at any penalty
    for penalty in (opts.penalty, 2.0 * opts.penalty):
        cont = solve_map(post, dataclasses.replace(opts, penalty=penalty), cold)
        assert cont.converged and cont.iterations == 0
        assert cont.residual_norm == cold.residual_norm
        assert np.array_equal(cont.estimate, cold.estimate)
        assert cont.final_energy == cold.final_energy
        # the splitting state is the one it started from
        assert np.array_equal(cont.split_coefficients, cold.split_coefficients)
        assert np.array_equal(cont.dual, cold.dual)


@pytest.mark.parametrize("case", sorted(_CONTINUED_CASES))
def test_continuing_an_unconverged_solve_obeys_its_own_options(case, caplog):
    make_post, opts = _CONTINUED_CASES[case]
    post = make_post(np.random.default_rng(5))
    cold = solve_map(post, opts)
    early = solve_map(post, dataclasses.replace(opts, max_iters=20))
    assert not early.converged
    with caplog.at_level(logging.WARNING, logger="bregbayes.map_solver"):
        short = solve_map(post, dataclasses.replace(opts, max_iters=30), early)
    assert short.iterations == 30 and not short.converged
    assert short.residual_norm > opts.tol_residual
    assert "no convergence within 30 iterations" in caplog.text
    # with a budget, the continued splitting is the cold one resumed: it
    # stops where the cold solve stopped, at the same estimate
    rest = solve_map(post, opts, early)
    assert rest.converged and rest.residual_norm <= opts.tol_residual
    assert early.iterations + rest.iterations == cold.iterations
    assert np.abs(rest.estimate - cold.estimate).max() <= 1e-12


def test_blur_wider_than_the_grid_solves_by_cg():
    post = _blur_posterior(grid2d(8, 8), 0.3, 0.5, np.random.default_rng(43))
    assert post.operator.dct_eigenvalues is None
    res = solve_map(post, SolverOptions(max_iters=5000))
    assert res.converged
    assert res.cg_iterations > 0
    assert res.residual_norm <= 1e-6


def _radon_besov_case():
    """A 16x16 phantom seen at 9 angles, Haar-l1 prior: u-steps run CG."""
    grid = grid2d(16, 16)
    k = radon(grid, 9, 23)
    clean = k.apply(build_shepp_logan(grid).values)
    sigma = 0.01 * np.abs(clean).max()
    f = clean + sigma * np.random.default_rng(3).standard_normal(clean.size)
    post = Posterior(k, Signal(grid2d(9, 23), f),
                     GaussianNoiseModel.from_sigma(sigma, clean.size),
                     make_besov_prior(300.0, np.ones(grid.size),
                                      haar_transform(grid)), grid=grid)
    return post, SolverOptions(penalty=6400.0, max_iters=2000,
                               tol_residual=1e-4, cg_tol=1e-8)


def test_cg_tolerance_schedule_saves_cg_iterations(monkeypatch):
    post, opts = _radon_besov_case()
    scheduled = solve_map(post, opts)
    monkeypatch.setattr(map_solver, "_CG_TOL_SCALE", 0.0)
    at_floor = solve_map(post, opts)
    assert scheduled.converged and at_floor.converged
    assert 0 < scheduled.cg_iterations < at_floor.cg_iterations
    # both estimates are certified to tol_residual, and agree to that order
    scale = np.abs(at_floor.estimate).max()
    assert (np.abs(scheduled.estimate - at_floor.estimate).max()
            <= opts.tol_residual * scale)


def test_continued_solve_counts_the_cg_schedule_on(monkeypatch):
    post, opts = _radon_besov_case()
    tols, cg = [], map_solver._cg

    def recorded(apply_a, rhs, x0, tol, max_iters):
        tols.append(tol)
        return cg(apply_a, rhs, x0, tol, max_iters)

    monkeypatch.setattr(map_solver, "_cg", recorded)
    early = solve_map(post, dataclasses.replace(opts, max_iters=20))
    rest = solve_map(post, opts, early)
    assert not early.converged and rest.converged and rest.iterations > 0
    # outer iteration k of the pair runs CG to max(cg_tol, c / k^3)
    c = map_solver._CG_TOL_SCALE
    assert tols == [max(opts.cg_tol, c / k**3)
                    for k in range(1, 21 + rest.iterations)]


def _energy_case(case, rng):
    n = 16
    k = rng.standard_normal((n + 2, n)) + np.eye(n + 2, n)
    f = rng.standard_normal(n + 2)
    if case == "pixel_l1":
        prior = make_l1_prior(0.5)
    elif case == "tv":
        prior = make_tv1d_prior(0.5)
    else:
        prior = make_besov_prior(0.5, rng.uniform(0.5, 2.0, n),
                                 haar_transform(grid1d(n)))
    return _posterior(k, f, 0.8, prior)


@pytest.mark.parametrize("case", ["pixel_l1", "tv", "besov"])
def test_final_energy_is_the_posterior_energy_bitwise(case):
    # the loop computes its energies from the Phi u of the shrink step and
    # one K apply; they must equal neg_log_posterior exactly
    post = _energy_case(case, np.random.default_rng(45))
    opts = SolverOptions(max_iters=500)
    res = solve_map(post, opts)
    assert res.iterations > 1 and np.abs(res.estimate).max() > 0
    # one stopping rule: converged means the KKT residual met the tolerance
    assert res.converged == (res.residual_norm <= opts.tol_residual)
    assert res.final_energy == neg_log_posterior(post, res.estimate)
    assert res.energy_trace[-1] == res.final_energy


def test_monotone_energy_decrease():
    n = 12
    k = RNG.standard_normal((n, n)) + 2 * np.eye(n)
    f = RNG.standard_normal(n)
    for prior in (make_l1_prior(0.5), make_tv1d_prior(0.5)):
        post = _posterior(k, f, 1.0, prior)
        res = solve_map(post)
        diffs = np.diff(res.energy_trace)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(res.energy_trace[:-1])))


def test_penalty_is_not_a_model_parameter():
    n = 6
    k = RNG.standard_normal((n + 1, n)) + np.eye(n + 1, n)
    f = RNG.standard_normal(n + 1)
    post = _posterior(k, f, 1.0, make_l1_prior(0.6))
    # the KKT stop must sit far below the 1e-7 bound: at the default 1e-6
    # two converged solves can end over 1e-6 apart
    res1 = solve_map(post, SolverOptions(penalty=0.6, tol_residual=1e-12,
                                         max_iters=20000))
    res2 = solve_map(post, SolverOptions(penalty=1.2, tol_residual=1e-12,
                                         max_iters=20000))
    scale = max(np.linalg.norm(res1.estimate), 1e-30)
    assert np.linalg.norm(res1.estimate - res2.estimate) / scale < 10 * 1e-8


def test_optimality_residual_detects_perturbation():
    post = _posterior([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    exact = np.array([1.5])  # analytic soft-threshold solution
    at_exact = MapResult(exact, subgradient_certificate(post, exact), 0, 0.0,
                         0.0, True)
    assert optimality_residual(post, at_exact) < 1e-10
    shifted = MapResult(exact + 0.1, subgradient_certificate(post, exact + 0.1),
                        0, 0.0, 0.0, True)
    assert optimality_residual(post, shifted) > 0.05


def test_certificate_definition():
    n = 4
    k = RNG.standard_normal((n, n))
    f = RNG.standard_normal(n)
    sigma, lam = 0.7, 0.9
    post = _posterior(k, f, sigma, make_l1_prior(lam))
    u = RNG.standard_normal(n)
    cert = subgradient_certificate(post, u)
    expected = -k.T @ (k @ u - f) / sigma**2 / lam
    np.testing.assert_allclose(cert, expected, atol=1e-12)


def test_nonconvergence_is_flagged_and_returned(caplog):
    n = 10
    k = RNG.standard_normal((n, n)) + np.eye(n)
    post = _posterior(k, RNG.standard_normal(n), 1.0, make_l1_prior(0.2))
    with caplog.at_level(logging.WARNING, logger="bregbayes.map_solver"):
        res = solve_map(post, SolverOptions(max_iters=2))
    assert not res.converged
    assert res.estimate.shape == (n,)
    assert "no convergence" in caplog.text


def test_trace_written(tmp_path):
    post = _posterior([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    trace = tmp_path / "trace.csv"
    res = solve_map(post, SolverOptions(trace_path=str(trace)))
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,residual"
    assert len(lines) == res.iterations + 1
    # energies parse and are non-increasing; last residual is recorded
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert lines[-1].split(",")[2] != ""


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(penalty=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverOptions(cg_tol=-1e-8)
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
