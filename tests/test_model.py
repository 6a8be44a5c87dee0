import numpy as np
import pytest

from bregbayes.grids import Signal, grid1d, grid2d
from bregbayes.model import (GaussianNoiseModel, Posterior, neg_log_posterior,
                             neg_log_posterior_gradient, weighted_sq_norm)
from bregbayes.operators import (from_matrix, gaussian_blur, identity,
                                 interval_average_1d)
from bregbayes.priors import make_gaussian_prior, make_l1_prior, make_tv1d_prior

RNG = np.random.default_rng(99)


def _scalar_posterior(f=2.0, sigma=1.0, lam=0.5, prior=None):
    prior = prior or make_l1_prior(lam)
    return Posterior(identity(1), Signal(grid1d(1), [f]),
                     GaussianNoiseModel.from_sigma(sigma, 1), prior)


def test_weighted_sq_norm_values():
    assert weighted_sq_norm(np.zeros(3), GaussianNoiseModel.from_sigma(2.0, 3)) == 0.0
    eye = GaussianNoiseModel([1.0, 1.0])
    assert weighted_sq_norm([1.0, 2.0], eye) == pytest.approx(5.0)
    diag = GaussianNoiseModel([2.0, 3.0])
    assert weighted_sq_norm([1.0, 1.0], diag) == pytest.approx(5.0)


def test_weighted_sq_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        weighted_sq_norm([1.0, 2.0, 3.0], GaussianNoiseModel.from_sigma(1.0, 2))


def test_weighted_sq_norm_quadratic_form_properties():
    noise = GaussianNoiseModel(RNG.uniform(0.5, 3.0, 7))
    for _ in range(25):
        y, z = RNG.standard_normal(7), RNG.standard_normal(7)
        c = float(RNG.standard_normal())
        ny = weighted_sq_norm(y, noise)
        assert ny >= 0.0
        assert weighted_sq_norm(c * y, noise) == pytest.approx(c**2 * ny, rel=1e-12)
        # parallelogram identity
        lhs = weighted_sq_norm(y + z, noise) + weighted_sq_norm(y - z, noise)
        rhs = 2 * ny + 2 * weighted_sq_norm(z, noise)
        assert lhs == pytest.approx(rhs, rel=1e-11)
        assert weighted_sq_norm(y, noise) > 0 or np.all(y == 0)


def test_noise_model_rejects_precision_callback():
    # the precision is diagonal only; a general SPD callback is no argument
    a = RNG.standard_normal((4, 4))
    spd = a @ a.T + 4 * np.eye(4)
    with pytest.raises(TypeError, match="precision_apply"):
        GaussianNoiseModel(np.ones(4), precision_apply=lambda y: spd @ y)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        GaussianNoiseModel.from_sigma(0.0, 3)
    with pytest.raises(ValueError):
        GaussianNoiseModel([1.0, -2.0])
    nm = GaussianNoiseModel.from_sigma(2.0, 3)
    np.testing.assert_allclose(nm.precision_diag, 0.25)


def test_neg_log_posterior_zero_at_perfect_fit():
    post = Posterior(identity(2), Signal(grid1d(2), [0.0, 0.0]),
                     GaussianNoiseModel.from_sigma(1.0, 2), make_l1_prior(1.0))
    assert neg_log_posterior(post, np.zeros(2)) == 0.0


def test_neg_log_posterior_scalar_l1_oracle():
    # 0.5 * (2 - 1)^2 + 0.5 * |1| = 1.0
    post = _scalar_posterior(f=2.0, sigma=1.0, lam=0.5)
    assert neg_log_posterior(post, [1.0]) == pytest.approx(1.0, abs=1e-14)


def test_neg_log_posterior_scalar_gaussian_oracle():
    # J = u^2/2 (beta = lam = 1): 0.5*(1-0.5)^2 + 0.5*0.25 = 0.25
    post = _scalar_posterior(f=1.0, sigma=1.0, lam=1.0,
                             prior=make_gaussian_prior(1.0, 1.0))
    assert neg_log_posterior(post, [0.5]) == pytest.approx(0.25, abs=1e-14)


def test_neg_log_posterior_rejects_nonfinite():
    post = _scalar_posterior()
    with pytest.raises(ValueError):
        neg_log_posterior(post, [np.inf])


def test_gradient_zero_at_gaussian_minimizer():
    m, n = 7, 5
    k = RNG.standard_normal((m, n))
    f = RNG.standard_normal(m)
    sigma = 0.7
    beta, lam = 1.3, 0.9
    l_mat = RNG.standard_normal((n, n)) + 2.5 * np.eye(n)
    prior = make_gaussian_prior(lam, beta, l_mat)
    post = Posterior(from_matrix(k), Signal(grid1d(m), f),
                     GaussianNoiseModel.from_sigma(sigma, m), prior)
    # dense closed-form minimizer of the posterior energy
    a = k.T @ k / sigma**2 + beta * l_mat.T @ l_mat
    uhat = np.linalg.solve(a, k.T @ f / sigma**2)
    grad = neg_log_posterior_gradient(post, uhat)
    assert np.abs(grad).max() < 1e-10


def test_gradient_matches_finite_differences_l1():
    m, n = 6, 4
    k = RNG.standard_normal((m, n))
    f = RNG.standard_normal(m)
    post = Posterior(from_matrix(k), Signal(grid1d(m), f),
                     GaussianNoiseModel.from_sigma(0.8, m), make_l1_prior(0.6))
    u = RNG.standard_normal(n)
    u[np.abs(u) < 0.1] = 0.2  # keep away from the kink
    grad = neg_log_posterior_gradient(post, u)
    h = 1e-6
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd = (neg_log_posterior(post, u + e) - neg_log_posterior(post, u - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_gradient_without_prior_weight():
    # lam -> tiny: gradient dominated by K^T P (K u - f)
    m, n = 5, 5
    k = RNG.standard_normal((m, n))
    f = RNG.standard_normal(m)
    lam = 1e-300
    post = Posterior(from_matrix(k), Signal(grid1d(m), f),
                     GaussianNoiseModel.from_sigma(1.0, m), make_l1_prior(lam))
    u = RNG.standard_normal(n)
    expected = k.T @ (k @ u - f)
    np.testing.assert_allclose(neg_log_posterior_gradient(post, u), expected,
                               atol=1e-12)


def test_posterior_energy_convex_along_segments():
    m, n = 6, 4
    k = RNG.standard_normal((m, n))
    post = Posterior(from_matrix(k), Signal(grid1d(m), RNG.standard_normal(m)),
                     GaussianNoiseModel.from_sigma(1.0, m), make_l1_prior(0.7))
    for _ in range(25):
        u, v = RNG.standard_normal(n), RNG.standard_normal(n)
        t = RNG.uniform()
        eu, ev = neg_log_posterior(post, u), neg_log_posterior(post, v)
        emid = neg_log_posterior(post, t * u + (1 - t) * v)
        assert emid <= t * eu + (1 - t) * ev + 1e-10


def test_posterior_linear_growth_at_infinity():
    # E(R d)/R bounded below by a positive constant for large R
    m, n = 6, 4
    k = RNG.standard_normal((m, n))
    post = Posterior(from_matrix(k), Signal(grid1d(m), RNG.standard_normal(m)),
                     GaussianNoiseModel.from_sigma(1.0, m), make_l1_prior(0.4))
    for _ in range(20):
        d = RNG.standard_normal(n)
        d /= np.linalg.norm(d)
        ratios = [neg_log_posterior(post, r * d) / r for r in (1e2, 1e3, 1e4)]
        assert min(ratios) > 0.01


def test_posterior_validation():
    with pytest.raises(ValueError):
        Posterior(identity(2), Signal(grid1d(3), [1.0, 2.0, 3.0]),
                  GaussianNoiseModel.from_sigma(1.0, 3), make_l1_prior(1.0))


# -- blocks of vectors -------------------------------------------------------


@pytest.mark.parametrize("case", ["blur_l1", "interval_tv"])
def test_block_energy_and_gradient_are_the_stacked_vector_ones(case):
    if case == "blur_l1":
        op, prior = gaussian_blur(grid2d(6, 6), 0.1), make_l1_prior(0.7)
    else:
        op, prior = interval_average_1d(grid1d(12), 5), make_tv1d_prior(1.3)
    m = op.out_dim
    post = Posterior(op, Signal(grid1d(m), RNG.standard_normal(m)),
                     GaussianNoiseModel(RNG.uniform(0.5, 3.0, m)), prior)
    u = RNG.standard_normal((4, op.in_dim))
    u[2, :3] = 0.0
    y = RNG.standard_normal((4, m))
    for fn, block in (
            (lambda v: weighted_sq_norm(v, post.noise), y),
            (lambda v: neg_log_posterior(post, v), u),
            (lambda v: neg_log_posterior_gradient(post, v), u)):
        out = np.ascontiguousarray(fn(block))
        ref = np.array([fn(row) for row in block])
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))
