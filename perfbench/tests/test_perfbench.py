"""Tests of the benchmark's own code: ESS, checkers, readers, tracing.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import (KKT_TOL, blur_matrix, haar2d, interval_average_matrix,  # noqa: E402
                    kkt_haar_l1, kkt_l1, kkt_tv, read_bbchain, read_meta)
from ess import ess_per_coordinate, median_ess  # noqa: E402
from run import repeat_failures  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import _dilemma_trends  # noqa: E402


def _ar1(rho, chains, draws, coords, seed=0):
    rng = np.random.default_rng(seed)
    x = np.empty((chains, draws, coords))
    x[:, 0] = rng.standard_normal((chains, coords)) / np.sqrt(1 - rho**2)
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + rng.standard_normal((chains, coords))
    return x


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ess_matches_ar1_theory(rho):
    chains, draws = 4, 2000
    expected = chains * draws * (1 - rho) / (1 + rho)
    assert median_ess(_ar1(rho, chains, draws, 300)) == pytest.approx(expected, rel=0.1)


def test_ess_of_iid_draws_is_the_draw_count():
    x = np.random.default_rng(1).standard_normal((2, 1000, 300))
    assert median_ess(x) == pytest.approx(2000, rel=0.1)


def test_ess_sees_chains_that_disagree():
    x = np.random.default_rng(2).standard_normal((2, 500, 50))
    x[1] += 3.0  # each chain mixes well but they sit apart
    assert median_ess(x) < 20


def test_ess_of_a_frozen_coordinate_is_undefined():
    x = np.random.default_rng(3).standard_normal((2, 100, 3))
    x[:, :, 1] = 0.5
    ess = ess_per_coordinate(x)
    assert np.isnan(ess[1]) and np.all(np.isfinite(ess[[0, 2]]))


def _identity(u):
    return np.array(u, dtype=float)


def test_l1_kkt_closed_form():
    # 1/2 (2 - u)^2 + 0.5 |u| is minimised by the soft threshold u = 1.5
    f, prec, lam = np.array([2.0]), np.array([1.0]), 0.5
    assert kkt_l1(_identity, _identity, prec, f, np.array([1.5]), lam) < 1e-12
    for wrong in (1.6, 1.4, 0.0, -1.5):
        assert kkt_l1(_identity, _identity, prec, f, np.array([wrong]), lam) > KKT_TOL


def test_haar_l1_kkt_closed_form():
    # with K = I the MAP soft-thresholds the Haar coefficients of f
    lam, side = 0.5, 4
    coef = np.zeros(side * side)
    coef[0], coef[5] = 2.0, -0.3
    f = haar2d(coef, side, inverse=True)
    shrunk = np.sign(coef) * np.maximum(np.abs(coef) - lam, 0.0)
    u = haar2d(shrunk, side, inverse=True)
    prec = np.ones(f.size)
    assert kkt_haar_l1(_identity, _identity, prec, f, u, lam, 1.0, side) < 1e-12
    wrong = u.copy()
    wrong[3] += 0.05
    assert kkt_haar_l1(_identity, _identity, prec, f, wrong, lam, 1.0, side) > KKT_TOL


def test_tv_kkt_closed_form():
    # 1/2 |f - u|^2 + 0.5 |u_1 - u_0| with f = (0, 2): u = (0.5, 1.5)
    amat, prec, f, lam = np.eye(2), np.ones(2), np.array([0.0, 2.0]), 0.5
    assert kkt_tv(amat, prec, f, np.array([0.5, 1.5]), lam) < 1e-12
    for wrong in ([0.6, 1.5], [0.5, 1.4], [1.0, 1.0], [0.0, 2.0]):
        assert kkt_tv(amat, prec, f, np.array(wrong), lam) > KKT_TOL


def test_haar_is_orthonormal_and_matches_the_program():
    from bregbayes import grid2d, haar_transform

    u = np.random.default_rng(4).standard_normal(64)
    coef = haar2d(u, 8)
    assert np.linalg.norm(coef) == pytest.approx(np.linalg.norm(u))
    assert np.allclose(haar2d(coef, 8, inverse=True), u, atol=1e-12)
    assert np.allclose(coef, haar_transform(grid2d(8, 8)).apply(u), atol=1e-12)


def test_assembled_operators_match_the_program():
    from bregbayes import gaussian_blur, grid1d, grid2d, interval_average_1d

    rng = np.random.default_rng(5)
    u = rng.standard_normal(32 * 32)
    blur = gaussian_blur(grid2d(32, 32), 0.03)
    assert np.allclose(blur_matrix(32, 32, 0.03) @ u, blur.apply(u), atol=1e-13)
    v = rng.standard_normal(100)
    avg = interval_average_1d(grid1d(100), 30)
    assert np.allclose(interval_average_matrix(100, 30) @ v, avg.apply(v),
                       atol=1e-13)


def test_bbchain_reader_reads_what_save_chain_wrote(tmp_path):
    from bregbayes.sampling import Chain, save_chain

    samples = np.random.default_rng(6).standard_normal((7, 5))
    save_chain(Chain(samples, seed=99, burn_in=3, thinning=2, method="rwm",
                     acceptance_rate=0.25), tmp_path / "c.bbchain")
    read, seed = read_bbchain(tmp_path / "c.bbchain")
    assert seed == 99 and np.array_equal(read, samples)
    meta = read_meta(tmp_path / "c.bbchain.meta")
    assert meta["method"] == "rwm" and float(meta["acceptance_rate"]) == 0.25
    raw = (tmp_path / "c.bbchain").read_bytes()
    (tmp_path / "short.bbchain").write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        read_bbchain(tmp_path / "short.bbchain")


def test_dilemma_trends_reject_the_wrong_direction():
    assert _dilemma_trends([6.0, 5.7, 5.6], [6.0, 5.9, 5.9], [9.6, 18.4, 88.0]) == []
    assert _dilemma_trends([5.6, 5.7, 6.0], [6.0, 5.9, 5.9], [9.6, 18.4, 88.0])
    assert _dilemma_trends([6.0, 5.7, 5.6], [6.0, 5.9, 5.9], [88.0, 18.4, 9.6])
    assert _dilemma_trends([6.0, 5.7, 5.6], [3.0, 6.0, 9.0], [9.6, 18.4, 88.0])


def test_tracer_self_time_and_exclusion():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    inner()
    assert len(tracer.spans) == 3 and tracer.spans[1].parent == 0
    assert tracer.total("inner", outside="outer") == pytest.approx(
        tracer.spans[2].end - tracer.spans[2].start)
    self_s = tracer.self_times()
    outer_span = tracer.spans[0]
    assert self_s["outer"] == pytest.approx(
        outer_span.end - outer_span.start
        - (tracer.spans[1].end - tracer.spans[1].start))


def test_repeat_check_names_the_count_that_differs():
    same = {"sampling.ess": 3.5, "sampling.coord_updates": 10,
            "map_solver.solves": 1, "map_solver.outer_iters": 7,
            "map_solver.operator_calls": 40, "map_solver.unconverged": 0,
            "experiments.lambda_search_solves": 0, "cli.bytes_written": 100,
            "operators.blur.calls": 50}
    assert repeat_failures([same, dict(same)]) == []
    msgs = repeat_failures([same, dict(same, **{"operators.blur.calls": 51})])
    assert len(msgs) == 1 and "operators.blur.calls" in msgs[0]
