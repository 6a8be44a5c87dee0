import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csc_matrix
from scipy.stats import kstest

from bregbayes.grids import Signal, grid1d, grid2d
from bregbayes.model import GaussianNoiseModel, Posterior
from bregbayes.operators import (from_matrix, gaussian_blur, haar_transform,
                                 interval_average_1d, sparse_columns)
from bregbayes.priors import (make_besov_prior, make_gaussian_prior,
                              make_l1_prior, make_tv1d_prior)
from bregbayes import sampling
from bregbayes.sampling import (Chain, PiecewiseGaussian1D, _l1_draw,
                                _pg_draw, _pg_draw_scalar, _pg_table,
                                _tv_class, _tv_draw,
                                batch_means_stderr,
                                gibbs_layout, load_chain, rwm_layout,
                                sample_gibbs, sample_rwm, save_chain,
                                summarize, two_chain_discrepancy)

# A kernel that divides by zero or overflows in a tail fails loudly.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

RNG = np.random.default_rng(2718)


def _post(k, f, sigma, prior):
    k = np.atleast_2d(np.asarray(k, dtype=float))
    m = k.shape[0]
    return Posterior(from_matrix(k), Signal(grid1d(m), f),
                     GaussianNoiseModel.from_sigma(sigma, m), prior)


def _conditional_cdf_quadrature(a, b, kinks, t):
    """Segmented quadrature CDF of exp(-(a x^2 + b x) - sum c|x-d|)."""
    dens = lambda x: np.exp(-(a * x * x + b * x)
                            - sum(c * abs(x - d) for c, d in kinks))
    pts = sorted([d for _, d in kinks] + [-b / (2 * a)])
    segs = [-60.0] + pts + [60.0]

    def integrate(lo_all, hi_all):
        tot = 0.0
        for lo, hi in zip(segs[:-1], segs[1:]):
            lo2, hi2 = max(lo, lo_all), min(hi, hi_all)
            if hi2 > lo2:
                tot += quad(dens, lo2, hi2, limit=600, epsabs=1e-13,
                            epsrel=1e-12)[0]
        return tot

    return integrate(-60.0, t) / integrate(-60.0, 60.0)


# -- exact 1D conditional sampler ---------------------------------------------


def test_piecewise_gaussian_cdf_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(15):
        a = rng.uniform(0.05, 4.0)
        b = rng.uniform(-4, 4)
        kinks = sorted(((rng.uniform(0.0, 3.0), rng.uniform(-3, 3))
                        for _ in range(rng.integers(0, 4))), key=lambda cd: cd[1])
        pg = PiecewiseGaussian1D(a, b, kinks)
        for t in rng.uniform(-5, 5, 4):
            expected = _conditional_cdf_quadrature(a, b, kinks, t)
            assert pg.cdf(t) == pytest.approx(expected, abs=1e-9)


def test_piecewise_gaussian_draws_pass_ks():
    rng = np.random.default_rng(77)
    for _ in range(25):
        a = rng.uniform(0.05, 10.0)
        b = rng.uniform(-8, 8)
        kinks = sorted(((rng.uniform(0.0, 4.0), rng.uniform(-3, 3))
                        for _ in range(rng.integers(0, 4))), key=lambda cd: cd[1])
        pg = PiecewiseGaussian1D(a, b, kinks)
        draws = pg.sample(rng, size=20000)
        assert kstest(draws, pg.cdf).pvalue > 1e-3


def _batched_draw(a, b, kinks, u1, u2):
    """The batched kernel at B = 1 for (weight, location) kinks."""
    c = np.array([[c for c, _ in kinks]]).reshape(1, -1)
    d = np.array([[d for _, d in kinks]]).reshape(1, -1)
    table = _pg_table(np.array([a]), np.array([b]), c, d)
    return float(_pg_draw(table, np.zeros(1, dtype=int), np.array([u1]),
                          np.array([u2]))[0])


def test_scalar_fast_path_matches_reference():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = rng.uniform(0.02, 50.0)
        b = rng.uniform(-30, 30)
        kinks = sorted(((rng.uniform(0.0, 5.0), rng.uniform(-4, 4))
                        for _ in range(rng.integers(0, 4))), key=lambda cd: cd[1])
        u1, u2 = rng.random(), rng.random()
        t_ref = _batched_draw(a, b, kinks, u1, u2)
        t_fast = _pg_draw_scalar(a, b, tuple(kinks), u1, u2)
        assert t_fast == pytest.approx(t_ref, abs=1e-12)


def test_padded_kinks_draw_like_unpadded():
    # weight-0 pads at the location of a real kink of the row add pieces
    # of zero mass, so the same uniforms give the same draws
    rng = np.random.default_rng(23)
    n_rows, n_kinks, pad = 400, 2, 2
    a = rng.uniform(0.05, 20.0, n_rows)
    b = rng.uniform(-20, 20, n_rows)
    c = rng.uniform(0.0, 5.0, (n_rows, n_kinks))
    d = np.sort(rng.uniform(-3, 3, (n_rows, n_kinks)), axis=1)
    u1, u2 = rng.random(n_rows), rng.random(n_rows)
    rows = np.arange(n_rows)
    plain = _pg_draw(_pg_table(a, b, c, d), rows, u1, u2)
    at = rng.integers(0, n_kinks, (n_rows, pad))
    c_pad = np.concatenate([c, np.zeros((n_rows, pad))], axis=1)
    d_pad = np.concatenate([d, np.take_along_axis(d, at, axis=1)], axis=1)
    by_location = np.argsort(d_pad, axis=1, kind="stable")
    c_pad = np.take_along_axis(c_pad, by_location, axis=1)
    d_pad = np.take_along_axis(d_pad, by_location, axis=1)
    padded = _pg_draw(_pg_table(a, b, c_pad, d_pad), rows, u1, u2)
    np.testing.assert_allclose(padded, plain, rtol=0, atol=1e-12)


def _table_l1_draw(a, b, lam, u1, u2):
    """The general piece-table kernel at one kink at 0 of weight lam."""
    size = a.size
    c = np.broadcast_to(lam, (size,)).reshape(size, 1)
    return _pg_draw(_pg_table(a, b, c, np.zeros((size, 1))), np.arange(size),
                    u1, u2)


def test_l1_draw_is_the_table_kernel_bitwise():
    rng = np.random.default_rng(41)
    for batch in range(2400):
        size = int(rng.integers(1, 81))
        a = np.exp(rng.uniform(-6.0, 10.0, size))
        b = rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-6.0, 12.0,
                                                               size))
        # a scalar weight and a per-member weight (Besov-style lam w_j)
        lam = (np.exp(rng.uniform(-3.0, 6.0)) if batch % 2
               else np.exp(rng.uniform(-3.0, 6.0, size)))
        u1, u2 = rng.random(size), rng.random(size)
        # the ends of the inverse CDF, where the tail clip acts
        u2[::5] = 1.0 - 2.0**-53
        u2[1::7] = 0.0
        assert np.array_equal(_l1_draw(a, b, lam, u1, u2),
                              _table_l1_draw(a, b, lam, u1, u2))


def test_l1_draw_matches_scalar_draw():
    rng = np.random.default_rng(43)
    for _ in range(200):
        a = rng.uniform(0.02, 50.0)
        b = rng.uniform(-30, 30)
        lam = rng.uniform(0.0, 5.0)
        u1, u2 = rng.random(), rng.random()
        t = _l1_draw(np.array([a]), np.array([b]), lam, np.array([u1]),
                     np.array([u2]))
        assert t.shape == (1,)
        assert t[0] == pytest.approx(
            _pg_draw_scalar(a, b, ((lam, 0.0),), u1, u2), abs=1e-12)


def test_l1_draw_deep_tails():
    u1 = np.array([0.0, 1e-300, 0.3, 0.5, 0.9, 1.0 - 2.0**-53])
    u2 = np.array([0.0, 1e-300, 0.2, 0.5, 0.97, 1.0 - 2.0**-53])
    u1, u2 = (np.repeat(u1, u2.size), np.tile(u2, u1.size))
    size = u1.size
    ones = np.ones(size)
    # the Gaussian centre 5e4 from the kink: the other piece's mass,
    # relative to this one, underflows to 0, so every draw lands here
    for b, side in ((1e5, -1.0), (-1e5, 1.0)):
        t = _l1_draw(ones, b * ones, 10.0, u1, u2)
        assert np.all(np.isfinite(t))
        assert np.all(side * t >= 0.0)
        assert np.array_equal(t, _table_l1_draw(ones, b * ones, 10.0, u1, u2))
    # both pieces 70 standard deviations into their tails: the draws sit
    # next to 0, each on the side of the piece that u1 selects
    a, b, lam = ones, 0.5 * ones, 100.0
    t = _l1_draw(a, b, lam, u1, u2)
    assert np.all(np.isfinite(t))
    assert np.array_equal(t, _table_l1_draw(a, b, lam, u1, u2))
    table = _pg_table(a, b, np.full((size, 1), lam), np.zeros((size, 1)))
    w = np.exp(table.log_mass - table.log_mass.max(axis=1, keepdims=True))
    positive = w[:, 0] <= u1 * w.sum(axis=1)
    assert positive.any() and not positive.all()
    assert np.all(t[positive] >= 0.0) and np.all(t[~positive] <= 0.0)
    assert np.abs(t).max() < 1.0


def _table_tv_draw(a, b, c1, c2, d, u1, u2):
    """The general piece-table kernel at the two sorted kinks ``d`` (2, B)."""
    return _pg_draw(_pg_table(a, b, np.column_stack([c1, c2]), d.T),
                    np.arange(a.size), u1, u2)


def _same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_tv_draw_is_the_table_kernel_bitwise():
    rng = np.random.default_rng(59)
    for batch in range(2400):
        size = int(rng.integers(1, 41))
        a = np.exp(rng.uniform(-6.0, 10.0, size))
        b = rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-6.0, 12.0,
                                                               size))
        # any weights or, every other batch, TV weights (lam on both)
        c1, c2 = np.exp(rng.uniform(-3.0, 6.0, (2, size)) if batch % 2
                        else np.full((2, size), rng.uniform(-3.0, 6.0)))
        d = np.sort(rng.choice([-1.0, 1.0], (2, size))
                    * np.exp(rng.uniform(-8.0, 4.0, (2, size))), axis=0)
        # ends of the chain: a weight-0 pad at the other kink's location
        end = rng.integers(0, 6, size)
        c1[end == 0] = 0.0
        c2[end == 1] = 0.0
        d[0, end <= 1] = d[1, end <= 1]
        d[1, end == 2] = d[0, end == 2]  # two neighbours of equal value
        u1, u2 = rng.random(size), rng.random(size)
        # the ends of the inverse CDF, where the tail clip acts
        u2[::5] = 1.0 - 2.0**-53
        u2[1::7] = 0.0
        # the kernel takes the neighbours in either order
        swap = rng.random(size) < 0.5
        nb = np.where(swap, d[::-1], d)
        assert _same_bits(_tv_draw(_tv_class(a, c1, c2), b, nb, u1, u2),
                          _table_tv_draw(a, b, c1, c2, d, u1, u2))


def test_tv_draw_matches_scalar_draw():
    rng = np.random.default_rng(61)
    for _ in range(200):
        a = rng.uniform(0.02, 50.0)
        b = rng.uniform(-30, 30)
        c1, c2 = rng.uniform(0.0, 5.0, 2)
        d1, d2 = np.sort(rng.uniform(-4.0, 4.0, 2))
        u1, u2 = rng.random(), rng.random()
        t = _tv_draw(_tv_class(np.array([a]), np.array([c1]), np.array([c2])),
                     np.array([b]), np.array([[d2], [d1]]), np.array([u1]),
                     np.array([u2]))
        assert t.shape == (1,)
        assert t[0] == pytest.approx(
            _pg_draw_scalar(a, b, ((c1, d1), (c2, d2)), u1, u2), abs=1e-12)


def _tv_tail_pieces(b, c1, c2, d, u1, u2):
    """Draws of _tv_draw at a = 1, checked to be finite, bit for bit the
    table kernel's, and inside the piece that u1 selects. Every piece of
    nonzero width has its lower end (piece 0: its upper end) at least 70
    standard deviations from its Gaussian's centre. Returns the pieces."""
    size = b.size
    ones = np.ones(size)
    t = _tv_draw(_tv_class(ones, c1, c2), b, d, u1, u2)
    assert np.all(np.isfinite(t))
    assert _same_bits(t, _table_tv_draw(ones, b, c1, c2, d, u1, u2))
    table = _pg_table(ones, b, np.column_stack([c1, c2]), d.T)
    end = np.where(np.isfinite(table.alpha), table.alpha, table.beta)
    assert np.all((np.abs(end) >= 70.0) | (table.lo == table.hi))
    w = np.exp(table.log_mass - table.log_mass.max(axis=1, keepdims=True))
    cum = np.cumsum(w, axis=1)
    p = np.minimum((cum <= u1[:, None] * cum[:, -1:]).sum(axis=1), 2)
    rows = np.arange(size)
    assert np.all(table.lo[rows, p] <= t) and np.all(t <= table.hi[rows, p])
    return p


def test_tv_draw_deep_tails():
    u1 = np.array([0.0, 1e-300, 0.3, 0.5, 0.9, 1.0 - 2.0**-53])
    u2 = np.array([0.0, 1e-300, 0.2, 0.5, 0.97, 1.0 - 2.0**-53])
    u1, u2 = (np.repeat(u1, u2.size), np.tile(u2, u1.size))
    ones = np.ones(u1.size)
    # a = 1, so sigma = 1/sqrt(2). Kinks at -0.5 and 0.5 of weight 100 with
    # b = 100 put the piece centres at 50, -50 and -150, so each piece lies
    # at least 70 standard deviations into its Gaussian's tail; two pieces
    # hold comparable mass. Weights 100 and 1e4 with b = 1 put them 7000
    # out, and pieces 1 and 2 hold the mass. Both cases draw from two pieces.
    mid = np.array([[-0.5], [0.5]]) * ones
    for b, c1, c2 in ((100.0, 100.0, 100.0), (1.0, 100.0, 1e4)):
        p = _tv_tail_pieces(b * ones, c1 * ones, c2 * ones, mid, u1, u2)
        assert np.unique(p).size == 2
    # an end (weight-0 pad) with the Gaussian centre 5e4 from the kink:
    # the other piece's relative mass underflows, so every draw lands here
    p = _tv_tail_pieces(1e5 * ones, 0.0 * ones, 10.0 * ones,
                        np.full_like(mid, 0.5), u1, u2)
    assert np.all(p == 0)


def test_piecewise_gaussian_rejects_nonnormalizable():
    with pytest.raises(ValueError):
        PiecewiseGaussian1D(0.0, 1.0)
    with pytest.raises(ValueError):
        PiecewiseGaussian1D(-2.0, 0.0, [(1.0, 0.0)])


# -- gibbs ---------------------------------------------------------------------


def test_gibbs_scalar_gaussian_conjugate():
    # posterior of (f=1, K=1, sigma=1) with J = u^2/2: N(0.5, 0.5)
    post = _post([[1.0]], [1.0], 1.0, make_gaussian_prior(1.0, 1.0))
    chain = sample_gibbs(post, 20000, burn_in=200, seed=7)
    s = summarize(chain, post.prior)
    assert abs(s.mean[0] - 0.5) <= 3 * s.stderr[0]
    assert chain.samples.var() == pytest.approx(0.5, rel=0.05)


def test_gibbs_scalar_l1_matches_quadrature_cm():
    post = _post([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    dens = lambda u: np.exp(-0.5 * (2 - u) ** 2 - 0.5 * abs(u))
    z = quad(dens, -30, 30, points=[0], limit=400)[0]
    cm = quad(lambda u: u * dens(u), -30, 30, points=[0], limit=400)[0] / z
    p_cm = quad(lambda u: np.sign(u) * dens(u), -30, 30, points=[0],
                limit=400)[0] / z
    chain = sample_gibbs(post, 60000, burn_in=600, seed=3)
    s = summarize(chain, post.prior)
    assert abs(s.mean[0] - cm) <= 3 * s.stderr[0]
    assert abs(s.subgradient_mean[0] - p_cm) <= 3 * s.subgradient_stderr[0]


def test_gibbs_bit_reproducible():
    post = _post([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    a = sample_gibbs(post, 500, burn_in=20, seed=123)
    b = sample_gibbs(post, 500, burn_in=20, seed=123)
    assert np.array_equal(a.samples, b.samples)
    c = sample_gibbs(post, 500, burn_in=20, seed=124)
    assert not np.array_equal(a.samples, c.samples)


def test_gibbs_multivariate_gaussian_closed_form():
    rng = np.random.default_rng(0)
    n, m = 6, 8
    k = rng.standard_normal((m, n)) + np.eye(m, n)
    f = rng.standard_normal(m)
    l_mat = rng.standard_normal((n, n)) + 2.5 * np.eye(n)
    beta, lam, sig = 1.2, 0.8, 0.7
    post = _post(k, f, sig, make_gaussian_prior(lam, beta, l_mat))
    cov = np.linalg.inv(k.T @ k / sig**2 + beta * l_mat.T @ l_mat)
    mean_true = cov @ (k.T @ f / sig**2)
    chain = sample_gibbs(post, 20000, burn_in=500, seed=11)
    s = summarize(chain, post.prior)
    assert np.all(np.abs(s.mean - mean_true) <= 3 * s.stderr)
    var_emp = chain.samples.var(axis=0)
    # marginal variances; batch-stderr logic does not apply, use 3 sigma of
    # the variance estimator ~ var * sqrt(2 / ess); allow 10%
    np.testing.assert_allclose(var_emp, np.diag(cov), rtol=0.10)


def test_gibbs_rejects_unsupported_priors():
    w = haar_transform(grid1d(8))
    post = _post(np.eye(8), np.zeros(8), 1.0,
                 make_besov_prior(1.0, np.ones(8), w))
    with pytest.raises(ValueError):
        sample_gibbs(post, 10)


def test_gibbs_rejects_zero_column():
    k = np.array([[1.0, 0.0], [0.0, 0.0]])  # second column dead
    post = _post(k, [1.0, 0.0], 1.0, make_l1_prior(0.5))
    with pytest.raises(ValueError):
        sample_gibbs(post, 10)


# -- chromatic sweep -----------------------------------------------------------


def _classes(post):
    layout = gibbs_layout(post)
    return np.split(layout.order, layout.bounds[1:-1])


def _assert_independent_classes(post, coupled=None):
    """The colour classes partition the coordinates into independent sets:
    no shared data row and no prior coupling (``coupled[i, j]``)."""
    classes = _classes(post)
    np.testing.assert_array_equal(np.sort(np.concatenate(classes)),
                                  np.arange(post.dim))
    cols = sparse_columns(post.operator)
    for members in classes:
        rows = np.concatenate([cols[i][0] for i in members])
        assert np.unique(rows).size == rows.size
        if coupled is not None:
            block = coupled[np.ix_(members, members)]
            assert not np.any(block & ~np.eye(members.size, dtype=bool))
    return classes


def test_colour_classes_of_2d_blur():
    grid = grid2d(64)
    k = gaussian_blur(grid, 0.015)  # kernel radius 4 pixels
    post = Posterior(k, Signal(grid, np.zeros(grid.size)),
                     GaussianNoiseModel.from_sigma(0.1, grid.size),
                     make_l1_prior(6.0))
    classes = _assert_independent_classes(post)
    assert len(classes) == 81  # the (2 * 4 + 1)^2 lattice colouring


def test_colour_classes_of_tv1d():
    n = 63
    k = interval_average_1d(grid1d(n), 30)
    post = Posterior(k, Signal(grid1d(30), np.zeros(30)),
                     GaussianNoiseModel.from_sigma(0.1, 30),
                     make_tv1d_prior(2.0))
    edges = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
    classes = _assert_independent_classes(post, edges)
    assert max(c.size for c in classes) > 1
    # with K = I only the TV edges conflict: even and odd pixels
    post = _post(np.eye(8), np.zeros(8), 1.0, make_tv1d_prior(2.0))
    classes = _assert_independent_classes(post, edges[:8, :8])
    assert [c.tolist() for c in classes] == [[0, 2, 4, 6], [1, 3, 5, 7]]


def test_colour_classes_of_dense_gaussian_are_singletons():
    rng = np.random.default_rng(8)
    n = 10
    l_mat = rng.standard_normal((n, n)) + 3 * np.eye(n)
    post = _post(np.eye(n), np.zeros(n), 1.0,
                 make_gaussian_prior(1.0, 1.0, l_mat))
    classes = _assert_independent_classes(post, l_mat.T @ l_mat != 0)
    # greedy colouring in index order: singletons in index order
    assert [c.tolist() for c in classes] == [[i] for i in range(n)]


def test_chromatic_l1_blocks_match_quadrature_cm():
    # two independent 2-pixel blocks: classes {0, 2} and {1, 3}
    blk = np.array([[1.0, 0.6], [0.4, 1.0]])
    k = np.kron(np.eye(2), blk)
    f = np.array([1.5, -0.3, 0.2, 0.9])
    sigma, lam = 0.7, 0.8
    post = _post(k, f, sigma, make_l1_prior(lam))
    assert [c.tolist() for c in _classes(post)] == [[0, 2], [1, 3]]
    t = np.linspace(-8.0, 8.0, 1601)  # 0 is a node, so the kinks are too
    x, y = np.meshgrid(t, t, indexing="ij")
    cm = np.empty(4)
    for j in (0, 2):
        r = f[j:j + 2, None, None] - np.tensordot(blk, np.stack([x, y]), 1)
        dens = np.exp(-0.5 * (r**2).sum(axis=0) / sigma**2
                      - lam * (np.abs(x) + np.abs(y)))
        cm[j] = (x * dens).sum() / dens.sum()
        cm[j + 1] = (y * dens).sum() / dens.sum()
    chain = sample_gibbs(post, 10000, burn_in=200, seed=29)
    s = summarize(chain, post.prior)
    assert np.all(np.abs(s.mean - cm) <= 3 * s.stderr)


def _reference_l1_chain(post, n_sweeps, seed):
    """sample_gibbs on a pixel-l1 posterior without singleton classes,
    written out with the general piece-table kernel."""
    layout = gibbs_layout(post)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    lam = post.prior.lam
    u = np.zeros(post.dim)
    rho = np.append(post.data.values - post.operator.apply(u), 0.0)
    out = []
    for _ in range(n_sweeps):
        uu = rng.random((post.dim, 2))
        for k0, k1 in zip(layout.bounds[:-1], layout.bounds[1:]):
            members, idx = layout.order[k0:k1], layout.rows[k0:k1]
            cn = layout.colnorm[k0:k1]
            ui = u[members]
            b = -(ui * cn + np.einsum("ij,ij->i", layout.pvals[k0:k1],
                                      rho[idx]))
            t = _table_l1_draw(0.5 * cn, b, lam, uu[members, 0],
                               uu[members, 1])
            rho[idx] -= (t - ui)[:, None] * layout.vals[k0:k1]
            u[members] = t
        out.append(u.copy())
    return np.array(out)


def test_chromatic_l1_chain_is_the_table_kernel_chain():
    grid = grid2d(12)
    k = gaussian_blur(grid, 0.04)
    rng = np.random.default_rng(47)
    post = Posterior(k, Signal(grid, rng.standard_normal(grid.size)),
                     GaussianNoiseModel.from_sigma(0.3, grid.size),
                     make_l1_prior(2.0))
    sizes = [c.size for c in _classes(post)]
    assert min(sizes) > 1 and max(sizes) < grid.size
    chain = sample_gibbs(post, 60, seed=53)
    assert np.array_equal(chain.samples, _reference_l1_chain(post, 60, 53))


def _reference_tv_chain(post, n_sweeps, seed):
    """sample_gibbs on a tv1d posterior without singleton classes, written
    out with the general piece-table kernel and padded end kinks."""
    layout = gibbs_layout(post)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    lam, n = post.prior.lam, post.dim
    u = np.zeros(n)
    rho = np.append(post.data.values - post.operator.apply(u), 0.0)
    out = []
    for _ in range(n_sweeps):
        uu = rng.random((n, 2))
        for k0, k1 in zip(layout.bounds[:-1], layout.bounds[1:]):
            members, idx = layout.order[k0:k1], layout.rows[k0:k1]
            cn = layout.colnorm[k0:k1]
            ui = u[members]
            b = -(ui * cn + np.einsum("ij,ij->i", layout.pvals[k0:k1],
                                      rho[idx]))
            left = u[np.where(members > 0, members - 1, members + 1)]
            right = u[np.where(members < n - 1, members + 1, members - 1)]
            c = np.column_stack([np.where(members > 0, lam, 0.0),
                                 np.where(members < n - 1, lam, 0.0)])
            d = np.column_stack([np.minimum(left, right),
                                 np.maximum(left, right)])
            t = _pg_draw(_pg_table(0.5 * cn, b, c, d), np.arange(members.size),
                         uu[members, 0], uu[members, 1])
            rho[idx] -= (t - ui)[:, None] * layout.vals[k0:k1]
            u[members] = t
        out.append(u.copy())
    return np.array(out)


def test_chromatic_tv_chain_is_the_table_kernel_chain():
    n, m = 48, 12
    rng = np.random.default_rng(67)
    post = Posterior(interval_average_1d(grid1d(n), m),
                     Signal(grid1d(m), rng.standard_normal(m)),
                     GaussianNoiseModel.from_sigma(0.3, m),
                     make_tv1d_prior(2.0))
    assert min(c.size for c in _classes(post)) > 1
    chain = sample_gibbs(post, 60, seed=71)
    assert _same_bits(chain.samples, _reference_tv_chain(post, 60, 71))


def test_chromatic_tv_ends_match_quadrature_cm():
    # K = I, n = 3: the class {0, 2} holds both ends, each with a padded kink
    f = np.array([1.0, -0.5, 0.8])
    sigma, lam = 0.7, 1.2
    post = _post(np.eye(3), f, sigma, make_tv1d_prior(lam))
    assert [c.tolist() for c in _classes(post)] == [[0, 2], [1]]
    # given u_1 the ends are independent, so the CM needs 1-D integrals
    # only; a shared grid puts every kink |u_1 - t| on a node
    t = np.linspace(-6.0, 6.0, 1601)
    kink = np.exp(-lam * np.abs(np.subtract.outer(t, t)))  # [u_1, t]
    lik = lambda j, x: np.exp(-0.5 * (f[j] - x) ** 2 / sigma**2)
    ends = [kink @ lik(j, t) for j in (0, 2)]  # A_j(u_1)
    ends_t = [kink @ (t * lik(j, t)) for j in (0, 2)]  # B_j(u_1)
    w = lik(1, t)
    z = (w * ends[0] * ends[1]).sum()
    cm = np.array([(w * ends_t[0] * ends[1]).sum(),
                   (t * w * ends[0] * ends[1]).sum(),
                   (w * ends[0] * ends_t[1]).sum()]) / z
    chain = sample_gibbs(post, 10000, burn_in=200, seed=43)
    s = summarize(chain, post.prior)
    assert np.all(np.abs(s.mean - cm) <= 3 * s.stderr)


def test_chromatic_gaussian_identity_l_closed_form():
    # L = None on a 1-D blur: classes of several members, no dense L
    n = 32
    k = gaussian_blur(grid1d(n), 0.015)
    rng = np.random.default_rng(31)
    f = k.apply(np.sin(np.linspace(0, 3, n))) + 0.5 * rng.standard_normal(n)
    sigma, beta = 0.5, 2.0
    post = Posterior(k, Signal(grid1d(n), f),
                     GaussianNoiseModel.from_sigma(sigma, n),
                     make_gaussian_prior(1.0, beta))
    assert max(c.size for c in _classes(post)) > 1
    kd = np.column_stack([k.apply(e) for e in np.eye(n)])
    cov = np.linalg.inv(kd.T @ kd / sigma**2 + beta * np.eye(n))
    mean_true = cov @ (kd.T @ f / sigma**2)
    chain = sample_gibbs(post, 10000, burn_in=200, seed=37)
    s = summarize(chain, post.prior)
    assert np.all(np.abs(s.mean - mean_true) <= 3 * s.stderr)
    np.testing.assert_allclose(chain.samples.var(axis=0), np.diag(cov),
                               rtol=0.10)


# -- random walk Metropolis ----------------------------------------------------


def test_rwm_standard_normal_target():
    # E(u) = u^2/4 + u^2/4 = u^2/2: exactly N(0, 1)
    post = _post([[1.0]], [0.0], np.sqrt(2.0), make_gaussian_prior(1.0, 0.5))
    chain = sample_rwm(post, 60000, burn_in=500, step=2.4, seed=9)
    s = summarize(chain, post.prior)
    assert abs(s.mean[0]) <= 3 * s.stderr[0]
    assert chain.samples.var() == pytest.approx(1.0, rel=0.05)
    assert 0.05 < chain.acceptance_rate < 0.95


def test_rwm_likelihood_dominated_mean():
    # negligible prior weight: posterior mean is the data
    f = [1.3, -0.4, 0.8]
    post = _post(np.eye(3), f, 1.0, make_gaussian_prior(1.0, 1e-12))
    chain = sample_rwm(post, 40000, burn_in=500, step=2.4, seed=31)
    s = summarize(chain, post.prior)
    assert np.all(np.abs(s.mean - np.array(f)) <= 3 * s.stderr)


def test_rwm_acceptance_monotone_in_step():
    post = _post([[1.0]], [0.0], np.sqrt(2.0), make_gaussian_prior(1.0, 0.5))
    rates = [sample_rwm(post, 4000, burn_in=100, step=s, seed=12).acceptance_rate
             for s in (0.5, 2.0, 8.0)]
    assert rates[0] > rates[1] > rates[2]


def test_rwm_besov_agrees_with_transform_domain_gibbs():
    # c = W u maps the Besov posterior onto an l1 posterior with K W^T
    rng = np.random.default_rng(4)
    n = 8
    w = haar_transform(grid1d(n))
    wd = np.column_stack([w.apply(np.eye(n)[:, i]) for i in range(n)])
    k = rng.standard_normal((n, n)) + 2 * np.eye(n)
    f = rng.standard_normal(n)
    lam = 0.6
    post_u = _post(k, f, 1.0, make_besov_prior(lam, np.ones(n), w))
    post_c = _post(k @ wd.T, f, 1.0, make_l1_prior(lam))
    ch_u = sample_rwm(post_u, 40000, burn_in=2000, step=2.4, seed=21)
    ch_c = sample_gibbs(post_c, 40000, burn_in=2000, seed=22)
    mu_u = ch_u.samples.mean(axis=0)
    mu_c = wd.T @ ch_c.samples.mean(axis=0)
    s_u = summarize(ch_u, post_u.prior)
    s_c = summarize(ch_c, post_c.prior)
    bound = 3 * (s_u.stderr + np.abs(wd.T) @ s_c.stderr)
    assert np.all(np.abs(mu_u - mu_c) <= bound)


def test_rwm_layout_reads_the_haar_matrix_without_applying_it():
    w = haar_transform(grid2d(8, 8))

    def no_apply(_):
        raise AssertionError("rwm_layout applied the Haar transform")

    weights = np.linspace(0.5, 2.0, 64)
    prior = make_besov_prior(0.5, weights, w)
    prior = dataclasses.replace(prior, transform=dataclasses.replace(
        w, apply=no_apply, adjoint_apply=no_apply))
    post = _post(np.eye(64), np.zeros(64), 1.0, prior)
    layout = rwm_layout(post)
    # duplicate entries add up, so each column's zero pad changes nothing
    cols = csc_matrix((layout.w_vals, layout.w_rows, layout.w_ptr),
                      shape=(64, 64))
    np.testing.assert_array_equal(cols.toarray(), w.matrix.toarray())
    np.testing.assert_array_equal(layout.w_weights, weights[layout.w_rows])


def _reference_rwm_chain(post, n_samples, burn_in, thinning, step, seed):
    """sample_rwm written as a plain scan, one coordinate at a time."""
    prior, lam, n = post.prior, post.prior.lam, post.dim
    prec = post.noise.precision_diag
    cols = [(r, v, v * prec[r]) for r, v in sparse_columns(post.operator)]
    colnorm = np.array([float(v @ pv) for _, v, pv in cols])
    besov = prior.kind == "besov"
    w_cols = sparse_columns(prior.transform) if besov else None
    scale = np.where(colnorm > 0,
                     step / np.sqrt(np.maximum(colnorm, 1e-300)), step)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    u = np.zeros(n)
    out, accepted = [], 0
    total = burn_in + n_samples * thinning
    for sweep in range(total):
        if sweep % 256 == 0:
            rho = post.data.values - post.operator.apply(u)
            coef = prior.transform.apply(u) if besov else None
        xi = rng.standard_normal(n)
        us = rng.random(n)
        for i in range(n):
            ui = u[i]
            t = ui + scale[i] * xi[i]
            idx, vals, pv = cols[i]
            a = 0.5 * colnorm[i]
            b = -(ui * colnorm[i] + float(pv @ rho[idx]))
            if besov:
                jdx, wvals = w_cols[i]
                new = np.abs(coef[jdx] + (t - ui) * wvals)
                prior_de = lam * float(prior.weights[jdx]
                                       @ (new - np.abs(coef[jdx])))
            elif prior.kind == "l1":
                prior_de = lam * (abs(t) - abs(ui))
            else:
                prior_de = lam * (prior.beta / (2.0 * lam)) * (t * t - ui * ui)
            de = a * (t * t - ui * ui) + b * (t - ui) + prior_de
            if de <= 0.0 or us[i] < np.exp(-de):
                accepted += 1
                if t != ui:
                    rho[idx] -= (t - ui) * vals
                    if besov:
                        coef[jdx] += (t - ui) * wvals
                    u[i] = t
        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            out.append(u.copy())
    return np.array(out), accepted / (total * n)


def _rwm_reference_posteriors():
    rng = np.random.default_rng(83)
    k3 = rng.standard_normal((4, 3)) + np.eye(4, 3)
    yield "gauss1", _post([[1.0]], [0.3], np.sqrt(2.0),
                          make_gaussian_prior(1.0, 0.5))
    yield "gauss3", _post(k3, rng.standard_normal(4), 0.7,
                          make_gaussian_prior(1.3, 0.8))
    k8 = rng.standard_normal((6, 8))
    k8[:, [3, 7]] = 0.0  # a zero column in the middle and a zero last one
    yield "l1_zero_columns", _post(k8, rng.standard_normal(6), 0.5,
                                   make_l1_prior(0.8))
    k64 = rng.standard_normal((40, 64))
    yield "besov8x8", _post(k64, rng.standard_normal(40), 1.0,
                            make_besov_prior(0.6, rng.uniform(0.5, 2.0, 64),
                                             haar_transform(grid2d(8, 8))))


@pytest.mark.parametrize("block", [1, 3, None])
@pytest.mark.parametrize("label", ["gauss1", "gauss3", "l1_zero_columns",
                                   "besov8x8"])
def test_block_rwm_is_the_sequential_chain(label, block, monkeypatch):
    # short blocks put block ends (and zero columns at them) inside the
    # scan; None keeps the module's block size
    if block is not None:
        monkeypatch.setattr(sampling, "_RWM_BLOCK", block)
    post = dict(_rwm_reference_posteriors())[label]
    # 300 sweeps cross the residual refresh at sweep 256
    chain = sample_rwm(post, 140, burn_in=20, thinning=2, step=2.4, seed=61)
    samples, rate = _reference_rwm_chain(post, 140, 20, 2, 2.4, 61)
    assert np.array_equal(chain.samples, samples)
    assert chain.acceptance_rate == rate
    assert 0.0 < rate < 1.0


@pytest.mark.parametrize("prior", [
    make_tv1d_prior(1.0),
    make_gaussian_prior(1.0, 1.0, np.eye(4)),
], ids=["tv1d", "gaussian_l"])
def test_rwm_rejects_unsupported_priors(prior):
    post = _post(np.eye(4), np.zeros(4), 1.0, prior)
    with pytest.raises(ValueError, match=f"'{prior.kind}'"):
        rwm_layout(post)
    with pytest.raises(ValueError, match=f"'{prior.kind}'"):
        sample_rwm(post, 10)


def test_rwm_validation():
    post = _post([[1.0]], [0.0], 1.0, make_l1_prior(1.0))
    with pytest.raises(ValueError):
        sample_rwm(post, 10, step=0.0)
    with pytest.raises(ValueError):
        sample_rwm(post, 0)


# -- summaries -----------------------------------------------------------------


def test_summarize_degenerate_chain():
    s = np.tile([1.0, -2.0], (40, 1))
    chain = Chain(s, seed=0, burn_in=0, thinning=1, method="gibbs")
    summary = summarize(chain, make_l1_prior(1.0))
    np.testing.assert_array_equal(summary.mean, [1.0, -2.0])
    np.testing.assert_array_equal(summary.stderr, [0.0, 0.0])
    np.testing.assert_array_equal(summary.subgradient_mean, [1.0, -1.0])


def test_summarize_two_sample_mean():
    chain = Chain(np.array([[0.0], [2.0]]), seed=0, burn_in=0, thinning=1,
                  method="gibbs")
    summary = summarize(chain, make_l1_prior(1.0), n_batches=2)
    np.testing.assert_array_equal(summary.mean, [1.0])
    with pytest.raises(ValueError):
        summarize(chain, make_l1_prior(1.0))  # default 20 batches


def test_batch_means_requires_enough_samples():
    with pytest.raises(ValueError):
        batch_means_stderr(np.zeros((5, 2)), n_batches=20)


def test_cm_average_optimality_scalar():
    # E[K^T P (K u - f) + lam J'(u)] = 0 for the scalar l1 posterior
    post = _post([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    chain = sample_gibbs(post, 60000, burn_in=600, seed=41)
    grads = np.array([(u[0] - 2.0) + 0.5 * np.sign(u[0])
                      for u in chain.samples]).reshape(-1, 1)
    stderr = batch_means_stderr(grads)[0]
    assert abs(grads.mean()) <= 3 * stderr


# -- two-chain diagnostics -----------------------------------------------------


def test_two_chain_discrepancy_identical_seeds():
    post = _post([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    a = sample_gibbs(post, 500, burn_in=20, seed=5)
    b = sample_gibbs(post, 500, burn_in=20, seed=5)
    d = two_chain_discrepancy(a, b)
    assert d.sup == 0.0 and d.rel_l2 == 0.0


def test_two_chain_discrepancy_within_stderr_bound():
    post = _post([[1.0]], [1.0], 1.0, make_gaussian_prior(1.0, 1.0))
    a = sample_gibbs(post, 30000, burn_in=300, seed=61, chain_index=0)
    b = sample_gibbs(post, 30000, burn_in=300, seed=61, chain_index=1)
    assert not np.array_equal(a.samples, b.samples)
    d = two_chain_discrepancy(a, b)
    sa = batch_means_stderr(a.samples)[0]
    sb = batch_means_stderr(b.samples)[0]
    assert d.sup <= 3 * np.hypot(sa, sb)


def test_two_chain_discrepancy_improves_with_length():
    n = 40
    k = interval_average_1d(grid1d(n), 8)
    truth = np.where((np.arange(n) + 0.5) / n > 0.4, 1.0, 0.0)
    f = k.apply(truth)
    post = Posterior(k, Signal(grid1d(8), f),
                     GaussianNoiseModel.from_sigma(0.05, 8),
                     make_tv1d_prior(3.0))
    discrepancies = []
    for n_samples in (60, 600, 6000):
        a = sample_gibbs(post, n_samples, burn_in=n_samples // 10, seed=71,
                         chain_index=0)
        b = sample_gibbs(post, n_samples, burn_in=n_samples // 10, seed=71,
                         chain_index=1)
        discrepancies.append(two_chain_discrepancy(a, b).rel_l2)
    assert discrepancies[0] > discrepancies[-1]
    assert discrepancies[1] > discrepancies[-1]


def test_two_chain_discrepancy_grid_mismatch():
    a = Chain(np.zeros((5, 3)), seed=0, burn_in=0, thinning=1, method="gibbs")
    b = Chain(np.zeros((5, 4)), seed=0, burn_in=0, thinning=1, method="gibbs")
    with pytest.raises(ValueError):
        two_chain_discrepancy(a, b)


# -- persistence ---------------------------------------------------------------


def test_chain_roundtrip_bit_exact(tmp_path):
    post = _post([[1.0]], [2.0], 1.0, make_l1_prior(0.5))
    chain = sample_rwm(post, 50, burn_in=5, thinning=2, step=1.1, seed=99)
    path = tmp_path / "chain.bbchain"
    save_chain(chain, path)
    back = load_chain(path)
    assert np.array_equal(back.samples, chain.samples)
    assert back.seed == chain.seed
    assert back.method == "rwm"
    assert back.burn_in == 5 and back.thinning == 2
    assert back.acceptance_rate == pytest.approx(chain.acceptance_rate)
    # header layout: magic, u32 dim, u64 count, u64 seed
    raw = path.read_bytes()
    assert raw[:8] == b"BBCHAIN1"
    assert int.from_bytes(raw[8:12], "little") == 1
    assert int.from_bytes(raw[12:20], "little") == 50
    assert int.from_bytes(raw[20:28], "little") == 99


def test_load_chain_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bbchain"
    path.write_bytes(b"NOTCHAIN" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_chain(path)


@pytest.mark.parametrize("damage", [lambda raw: raw[:-8],
                                    lambda raw: raw + b"\x00" * 5,
                                    lambda raw: raw[:20]],
                         ids=["truncated", "trailing", "short_header"])
def test_load_chain_rejects_wrong_length(tmp_path, damage):
    chain = Chain(np.ones((4, 3)), seed=1, burn_in=0, thinning=1,
                  method="gibbs")
    path = tmp_path / "chain.bbchain"
    save_chain(chain, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match="chain.bbchain"):
        load_chain(path)


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain(np.zeros((0, 3)), seed=0, burn_in=0, thinning=1, method="gibbs")
    with pytest.raises(ValueError):
        Chain(np.full((2, 2), np.nan), seed=0, burn_in=0, thinning=1,
              method="gibbs")
