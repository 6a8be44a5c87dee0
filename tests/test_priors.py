import numpy as np
import pytest
from scipy.optimize import minimize

from bregbayes.grids import grid1d
from bregbayes.operators import haar_transform
from bregbayes.priors import (make_besov_prior, make_gaussian_prior,
                              make_l1_prior, make_tv1d_prior)

RNG = np.random.default_rng(42)


def _all_priors(n=6):
    w = haar_transform(grid1d(8)) if n == 8 else None
    priors = [
        make_gaussian_prior(1.0, 1.0),
        make_gaussian_prior(0.7, 2.0, RNG.standard_normal((n, n)) + 3 * np.eye(n)),
        make_l1_prior(0.5),
        make_tv1d_prior(1.2),
    ]
    if w is not None:
        priors.append(make_besov_prior(0.8, np.ones(8), w))
    return priors


def _prox_oracle(prior, v, t):
    """Independent derivative-free minimizer of 1/2||x-v||^2 + t J(x)."""
    obj = lambda x: 0.5 * np.sum((x - v) ** 2) + t * prior.energy(x)
    best = None
    for x0 in (v, np.zeros_like(v), 0.5 * v):
        res = minimize(obj, x0, method="Powell",
                       options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 40000})
        if best is None or res.fun < best.fun:
            best = res
    return best.x, best.fun


def _tv_prox_bruteforce(v, t):
    """Exact prox of t*TV by enumerating all difference-sign patterns.

    For each pattern in {-1, 0, +1}^(n-1), edges with 0 fuse adjacent
    coordinates into blocks; block-sum stationarity gives the candidate in
    closed form. Feasible candidates are scored and the best kept; the
    true solution's own pattern is always among them.
    """
    import itertools

    n = v.size
    best_x, best_f = None, np.inf
    for s in itertools.product((-1, 0, 1), repeat=n - 1):
        s_pad = (0,) + s + (0,)
        # blocks of coordinates fused by zero edges
        x = np.empty(n)
        a = 0
        for b in range(n):
            if b == n - 1 or s[b] != 0:
                block = slice(a, b + 1)
                x[block] = v[block].mean() - t * (s_pad[a] - s_pad[b + 1]) / (b + 1 - a)
                a = b + 1
        d = np.diff(x)
        if np.all(d * np.array(s) >= -1e-12):
            f = 0.5 * np.sum((x - v) ** 2) + t * np.abs(d).sum()
            if f < best_f:
                best_x, best_f = x, f
    return best_x, best_f


# -- gaussian ----------------------------------------------------------------

def test_gaussian_bregman_identity_and_value():
    p = make_gaussian_prior(1.0, 1.0)
    u = RNG.standard_normal(4)
    assert p.bregman(u, u) == pytest.approx(0.0, abs=1e-14)
    # L=I, beta=lam=1: D = 1/2 ||u-v||^2
    assert p.bregman([1.0, 1.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-14)


def test_gaussian_bregman_symmetric():
    l_mat = RNG.standard_normal((5, 5)) + 2 * np.eye(5)
    p = make_gaussian_prior(0.5, 1.5, l_mat)
    for _ in range(20):
        u, v = RNG.standard_normal(5), RNG.standard_normal(5)
        assert p.bregman(u, v) == pytest.approx(p.bregman(v, u), rel=1e-10)
        # closed form beta/(2 lam) ||L(u-v)||^2
        d = l_mat @ (u - v)
        assert p.bregman(u, v) == pytest.approx(
            1.5 / (2 * 0.5) * float(d @ d), rel=1e-10)


def test_gaussian_rejects_bad_params():
    with pytest.raises(ValueError):
        make_gaussian_prior(0.0, 1.0)
    with pytest.raises(ValueError):
        make_gaussian_prior(1.0, -1.0)


# -- l1 ----------------------------------------------------------------------

def test_l1_bregman_table_values():
    p = make_l1_prior(1.0)
    assert p.bregman([3.0], [1.0]) == pytest.approx(0.0, abs=1e-14)
    assert p.bregman([-2.0], [1.0]) == pytest.approx(4.0, abs=1e-14)
    # table formula (sign(u) - sign(v)) u on random scalars
    for _ in range(50):
        u, v = RNG.standard_normal(), RNG.standard_normal()
        expected = (np.sign(u) - np.sign(v)) * u
        assert p.bregman([u], [v]) == pytest.approx(expected, abs=1e-12)


def test_l1_prox_matches_brute_force():
    p = make_l1_prior(1.0)
    np.testing.assert_allclose(p.prox(np.array([2.0]), 0.5), [1.5], atol=1e-14)
    x, fun = _prox_oracle(p, np.array([2.0]), 0.5)
    assert abs(x[0] - 1.5) < 1e-6
    v = RNG.standard_normal(4)
    got = p.prox(v, 0.3)
    _, oracle_fun = _prox_oracle(p, v, 0.3)
    mine = 0.5 * np.sum((got - v) ** 2) + 0.3 * p.energy(got)
    assert mine <= oracle_fun + 1e-9


# -- tv1d --------------------------------------------------------------------

def test_tv_energy_values():
    p = make_tv1d_prior(1.0)
    assert p.energy(np.full(7, 3.3)) == 0.0
    assert p.energy([0.0, 1.0, 0.0]) == pytest.approx(2.0)
    ind = np.zeros(9)
    ind[3:6] = 1.0  # middle third of a 9-cell grid
    assert p.energy(ind) == pytest.approx(2.0)


def test_tv_prox_matches_brute_force_small():
    p = make_tv1d_prior(1.0)
    for n in (2, 3, 5, 6):
        for _ in range(5):
            v = 2.0 * RNG.standard_normal(n)
            t = float(RNG.uniform(0.05, 0.8))
            got = p.prox(v, t)
            oracle_x, oracle_fun = _tv_prox_bruteforce(v, t)
            np.testing.assert_allclose(got, oracle_x, atol=1e-6)
            mine = 0.5 * np.sum((got - v) ** 2) + t * p.energy(got)
            assert abs(mine - oracle_fun) < 1e-9


def test_tv_prox_does_not_stop_on_a_stalled_iterate():
    # the clipped dual iterate lands on the same box corner twice long
    # before the optimum; an iterate-stall stop returned
    # [-1.319, -1.481, -1.46] here, 0.038 above the optimal objective
    p = make_tv1d_prior(1.0)
    v, t = np.array([-0.419, -1.481, -2.36]), 0.9
    got = p.prox(v, t)
    oracle_x, oracle_fun = _tv_prox_bruteforce(v, t)
    np.testing.assert_allclose(got, [-1.319, -1.4705, -1.4705], atol=1e-9)
    np.testing.assert_allclose(got, oracle_x, atol=1e-9)
    mine = 0.5 * np.sum((got - v) ** 2) + t * p.energy(got)
    assert abs(mine - oracle_fun) < 1e-9


def test_tv_requires_two_samples():
    p = make_tv1d_prior(1.0)
    with pytest.raises(ValueError):
        p.energy(np.array([1.0]))


# -- besov -------------------------------------------------------------------

def test_besov_reduces_to_l1_with_identity_like_weights():
    w = haar_transform(grid1d(16))
    p = make_besov_prior(1.0, np.ones(16), w)
    l1 = make_l1_prior(1.0)
    for _ in range(10):
        u = RNG.standard_normal(16)
        assert p.energy(u) == pytest.approx(l1.energy(w.apply(u)), rel=1e-12)


def test_besov_constant_signal_energy():
    n = 16
    w = haar_transform(grid1d(n))
    weights = RNG.uniform(0.5, 2.0, n)
    p = make_besov_prior(1.0, weights, w)
    c = 1.7
    # constant lies in the span of the scaling function: single coefficient
    assert p.energy(np.full(n, c)) == pytest.approx(weights[0] * c * np.sqrt(n),
                                                    rel=1e-12)
    assert p.bregman(np.full(n, c), np.full(n, c)) == pytest.approx(0.0, abs=1e-12)


def test_besov_weights_from_csv(tmp_path):
    from bregbayes.grids import Signal, save_signal_csv
    from bregbayes.priors import load_weights_csv

    w = RNG.uniform(0.5, 2.0, 8)
    path = tmp_path / "weights.csv"
    save_signal_csv(Signal(grid1d(8), w), path)
    loaded = load_weights_csv(path)
    np.testing.assert_array_equal(loaded, w)
    prior = make_besov_prior(1.0, loaded, haar_transform(grid1d(8)))
    u = RNG.standard_normal(8)
    assert prior.energy(u) > 0


def test_besov_prox_matches_oracle():
    # soft-thresholding in the Haar domain with per-coefficient thresholds;
    # its own generator leaves the module stream alone
    rng = np.random.default_rng(8)
    w = haar_transform(grid1d(8))
    p = make_besov_prior(1.0, rng.uniform(0.3, 2.0, 8), w)
    for t in (0.1, 0.4):
        v = rng.standard_normal(8)
        got = p.prox(v, t)
        _, oracle_fun = _prox_oracle(p, v, t)
        mine = 0.5 * np.sum((got - v) ** 2) + t * p.energy(got)
        assert mine <= oracle_fun + 1e-8


def test_besov_validation():
    w = haar_transform(grid1d(8))
    with pytest.raises(ValueError):
        make_besov_prior(1.0, np.ones(7), w)
    with pytest.raises(ValueError):
        make_besov_prior(1.0, -np.ones(8), w)


# -- shared invariants --------------------------------------------------------

@pytest.mark.parametrize("prior", _all_priors(), ids=lambda p: p.kind)
def test_bregman_nonnegative_and_subgradient_inequality(prior):
    n = 6
    for _ in range(30):
        u = RNG.standard_normal(n)
        v = RNG.standard_normal(n)
        assert prior.bregman(u, v) >= -1e-10
        # subgradient inequality J(w) >= J(u) + <q, w - u>
        q = prior.subgradient(u)
        w = RNG.standard_normal(n)
        assert prior.energy(w) >= prior.energy(u) + q @ (w - u) - 1e-10


@pytest.mark.parametrize("prior", _all_priors(), ids=lambda p: p.kind)
def test_energy_convex_along_segments(prior):
    n = 6
    for _ in range(20):
        u, v = RNG.standard_normal(n), RNG.standard_normal(n)
        t = RNG.uniform()
        lhs = prior.energy(t * u + (1 - t) * v)
        assert lhs <= t * prior.energy(u) + (1 - t) * prior.energy(v) + 1e-10


def test_strictly_convex_gaussian_bregman_definite():
    p = make_gaussian_prior(1.0, 1.0)
    u, v = RNG.standard_normal(4), RNG.standard_normal(4)
    assert p.bregman(u, v) > 0 or np.allclose(u, v)


@pytest.mark.parametrize("prior", _all_priors(), ids=lambda p: p.kind)
def test_bregman_convex_in_first_argument(prior):
    n = 6
    for _ in range(15):
        base = RNG.standard_normal(n)
        u, v = RNG.standard_normal(n), RNG.standard_normal(n)
        t = RNG.uniform()
        lhs = prior.bregman(t * u + (1 - t) * v, base)
        rhs = t * prior.bregman(u, base) + (1 - t) * prior.bregman(v, base)
        assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("prior", _all_priors(), ids=lambda p: p.kind)
def test_prox_firmly_nonexpansive(prior):
    n = 6
    for _ in range(15):
        v1, v2 = RNG.standard_normal(n), RNG.standard_normal(n)
        t = float(RNG.uniform(0.05, 1.0))
        p1, p2 = prior.prox(v1, t), prior.prox(v2, t)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v1 - v2) + 1e-8


def test_l1_three_point_identity():
    p = make_l1_prior(1.0)
    n = 8
    for _ in range(30):
        u = RNG.standard_normal(n)
        u[np.abs(u) < 0.05] = 0.1  # differentiable point
        uhat = RNG.standard_normal(n)
        m = RNG.standard_normal(n)
        m[RNG.integers(0, n)] = 0.0  # m may sit on a kink
        q_m = p.subgradient(m)
        lhs = p.bregman(uhat, u)
        rhs = (p.bregman(uhat, m, q=q_m) + p.bregman(m, u)
               + (q_m - p.subgradient(u)) @ (uhat - m))
        assert lhs == pytest.approx(rhs, abs=1e-10)
