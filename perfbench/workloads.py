"""The three workloads: configs derived from the bundled ones, and checks.

Each check reads what the subcommand wrote, plus the posteriors, MAP
results and chains the tracer captured in the same process, and tests
them with the code in checks.py. Every checker is also run once on a
deliberately wrong estimate, which it must reject.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (KKT_TOL, ZERO_RTOL, blur_matrix, energy_order, haar2d,
                    interval_average_matrix, kkt_haar_l1, kkt_l1, kkt_tv,
                    map_cost_not_above_cm, posterior_energy, read_bbchain,
                    read_meta, read_signal_csv, tv)


@dataclasses.dataclass
class Outcome:
    """What one execution of a subcommand left behind."""

    out_dir: Path
    ini: configparser.ConfigParser
    rng: np.random.Generator  # the checks' own probes, seeded by --seed
    solves: list  # (Posterior, MapResult) per solve_map call, in call order
    samples: list  # list of chains per sample_posterior call


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    bundled_config: str  # file under configs/
    command: str  # bregbayes subcommand
    overrides: dict  # section -> key -> value, applied to the bundled config
    check: Callable[[Outcome], list]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _bounded(what: str, value: float, bound: float) -> list[str]:
    return [] if value <= bound else [f"{what} {value:.3g} > {bound:g}"]


def _close(what: str, a, b, rtol: float = 1e-12) -> list[str]:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return [f"{what}: shapes {a.shape} and {b.shape} differ"]
    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    err = float(np.abs(a - b).max(initial=0.0)) / scale
    return [] if err <= rtol else [f"{what}: relative difference {err:.3g}"]


def _must_reject(what: str, failures: list[str]) -> list[str]:
    return [] if failures else [f"{what} check accepted a wrong estimate"]


def _wrong(u: np.ndarray, rng) -> np.ndarray:
    """A deliberately wrong estimate: u plus 5 % noise."""
    return u + 0.05 * float(np.abs(u).max()) * rng.standard_normal(u.size)


def _same_operator(what: str, matrix, op, dim: int, rng) -> list[str]:
    """The program's operator agrees with the independently built matrix."""
    x = rng.standard_normal(dim)
    y = rng.standard_normal(matrix.shape[0])
    return (_close(f"{what} apply", op.apply(x), matrix @ x, 1e-10)
            + _close(f"{what} adjoint", op.adjoint_apply(y), matrix.T @ y, 1e-10))


def _sigma(out_dir: Path) -> float:
    key, _, value = (out_dir / "noise.txt").read_text().partition("=")
    if key.strip() != "sigma":
        raise ValueError("noise.txt holds no sigma")
    return float(value)


def _files(o: Outcome):
    """Data, precision, MAP, CM and chains as written by the subcommand."""
    out = o.out_dir
    f = read_signal_csv(out / "data.csv")
    prec = np.full(f.size, _sigma(out) ** -2.0)
    chains = []
    for i in range(int(o.ini["sampler"]["chains"])):
        samples, _ = read_bbchain(out / f"chain_{i}.bbchain")
        chains.append(samples)
    return (f, prec, read_signal_csv(out / "map.csv"),
            read_signal_csv(out / "cm.csv"), chains)


def _chain_files_match(o: Outcome, chains) -> list[str]:
    (captured,) = o.samples
    fails = []
    if len(captured) != len(chains):
        return ["chain file count differs from the sampled chains"]
    for i, (c, s) in enumerate(zip(captured, chains)):
        fails += _close(f"chain_{i}.bbchain vs sampled chain", s, c.samples, 0.0)
    return fails


# ---------------------------------------------------------------------------
# deblur-verify
# ---------------------------------------------------------------------------


def check_deblur_verify(o: Outcome) -> list[str]:
    fails = [f"verify report '{r.get('check')}' did not pass"
             for r in json.loads((o.out_dir / "verify_report.json").read_text())
             if not r.get("passed", False)]
    f, prec, map_est, cm, chains = _files(o)
    samples = np.concatenate(chains)
    side = int(o.ini["grid"]["shape"].split()[0])
    lam = float(o.ini["prior"]["lambda"])
    kmat = blur_matrix(side, side, float(o.ini["deblur2d"]["kernel_sigma"]))
    post, _ = o.solves[-1]
    fails += _same_operator("blur", kmat, post.operator, side * side, o.rng)
    fails += _chain_files_match(o, chains)

    def kkt(u):
        return _bounded("MAP l1 KKT violation",
                        kkt_l1(kmat.dot, kmat.T.dot, prec, f, u, lam), KKT_TOL)

    def energy(u):
        return posterior_energy(kmat.dot, prec, f, lam,
                                lambda v: float(np.abs(v).sum()), u)

    mean = samples.mean(axis=0)
    fails += kkt(map_est)
    fails += energy_order(energy, map_est, [cm, *samples])
    fails += _close("cm.csv vs chain mean", cm, mean)
    fails += map_cost_not_above_cm(kmat, prec, lam, samples, map_est, cm)

    wrong = _wrong(map_est, o.rng)
    fails += _must_reject("l1 KKT", kkt(wrong))
    fails += _must_reject("energy order", energy_order(energy, cm, [map_est]))
    fails += _must_reject("chain mean", _close("", _wrong(cm, o.rng), mean))
    fails += _must_reject("Bregman cost",
                          map_cost_not_above_cm(kmat, prec, lam, samples,
                                                wrong, cm))
    return fails


# ---------------------------------------------------------------------------
# ct-estimate
# ---------------------------------------------------------------------------


def _radon_checks(op, angles: int, bins: int, side: int, rng) -> list[str]:
    """Adjoint identity, and every angle's projection keeps the image mass."""
    fails = []
    for _ in range(3):
        u = rng.standard_normal(side * side)
        v = rng.standard_normal(angles * bins)
        lhs, rhs = float(op.apply(u) @ v), float(u @ op.adjoint_apply(v))
        fails += _close("radon adjoint identity", lhs, rhs, 1e-12)
    u = rng.random(side * side)
    mass = u.sum() / (side * side)
    per_angle = op.apply(u).reshape(angles, bins).sum(axis=1)
    fails += _close("radon mass per angle", per_angle,
                    np.full(angles, mass), 1e-12)
    return fails


def _haar_sparsity(u: np.ndarray, side: int) -> float:
    coef = np.abs(haar2d(u, side))
    return float(np.mean(coef > ZERO_RTOL * coef.max()))


def check_ct_estimate(o: Outcome) -> list[str]:
    report = json.loads((o.out_dir / "map_report.json").read_text())
    fails = [] if report["converged"] else ["final MAP did not converge"]
    f, prec, map_est, cm, chains = _files(o)
    samples = np.concatenate(chains)
    side = int(o.ini["grid"]["shape"].split()[0])
    if "weights_csv" in o.ini["ct2d"]:
        raise ValueError("the check assumes unit Besov weights")
    lam = float(report["lambda"])
    post, _ = o.solves[-1]
    radon = post.operator
    fails += _radon_checks(radon, int(o.ini["ct2d"]["angles"]),
                           int(o.ini["ct2d"]["bins"]), side, o.rng)
    fails += _chain_files_match(o, chains)

    def kkt(u):
        return _bounded("MAP Haar-l1 KKT violation",
                        kkt_haar_l1(radon.apply, radon.adjoint_apply, prec, f,
                                    u, lam, 1.0, side), KKT_TOL)

    def energy(u):
        return posterior_energy(radon.apply, prec, f, lam,
                                lambda v: float(np.abs(haar2d(v, side)).sum()), u)

    target = float(o.ini["prior"]["s_curve_target"])
    tol = float(o.ini["prior"]["s_curve_tol"])

    def sparsity(u):
        s = _haar_sparsity(u, side)
        return _bounded(f"|Haar sparsity {s:.4f} - target {target}|",
                        abs(s - target), tol)

    fails += kkt(map_est)
    fails += energy_order(energy, map_est, [cm, *samples])
    fails += sparsity(map_est)
    fails += _close("cm.csv vs chain mean", cm, samples.mean(axis=0))
    for i in range(len(chains)):
        acc = float(read_meta(o.out_dir / f"chain_{i}.bbchain.meta")
                    ["acceptance_rate"])
        if not 0.0 < acc < 1.0:
            fails.append(f"chain {i} acceptance rate {acc} outside (0, 1)")

    wrong = _wrong(map_est, o.rng)
    fails += _must_reject("Haar-l1 KKT", kkt(wrong))
    fails += _must_reject("energy order", energy_order(energy, cm, [map_est]))
    fails += _must_reject("Haar sparsity", sparsity(wrong))
    return fails


# ---------------------------------------------------------------------------
# tv-dilemma
# ---------------------------------------------------------------------------


def _falls(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _rises(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _dilemma_trends(tv_map_sqrt, tv_map_fixed, tv_cm_fixed) -> list[str]:
    """sqrt_n flattens the MAP; under a fixed lambda the CM's TV grows with
    n while the MAP's relative change is under a tenth of the CM's."""
    fails = []
    if not _falls(tv_map_sqrt):
        fails.append(f"sqrt_n MAP TV does not fall with n: {tv_map_sqrt}")
    if not _rises(tv_cm_fixed):
        fails.append(f"fixed-rule CM TV does not rise with n: {tv_cm_fixed}")
    map_change = max(tv_map_fixed) / min(tv_map_fixed) - 1.0
    cm_change = tv_cm_fixed[-1] / tv_cm_fixed[0] - 1.0
    if not map_change < 0.1 * cm_change:
        fails.append(f"fixed-rule MAP TV changes by {map_change:.3f}, "
                     f"CM TV by {cm_change:.3f}")
    return fails


def check_tv_dilemma(o: Outcome) -> list[str]:
    report = json.loads((o.out_dir / "dilemma_report.json").read_text())
    rules = [r["rule"] for r in report]
    sweep = [int(t) for t in o.ini["tv1d"]["sweep"].split()]
    m = int(o.ini["tv1d"]["data_size"])
    if rules != ["sqrt_n", "fixed"] or len(o.solves) != 2 * len(sweep) \
            or len(o.samples) != 2 * len(sweep):
        return [f"dilemma ran rules {rules} with {len(o.solves)} solves and "
                f"{len(o.samples)} sampling calls for sweep {sweep}"]
    fails = []
    tv_map, tv_cm, wrong_kkt = [], [], []
    for k, ((post, result), chains) in enumerate(zip(o.solves, o.samples)):
        n = sweep[k % len(sweep)]
        amat = interval_average_matrix(n, m)
        fails += _same_operator(f"interval average n={n}", amat,
                                post.operator, n, o.rng)
        f = post.data.values
        prec = post.noise.precision_diag
        lam = post.prior.lam
        u = result.estimate
        fails += _bounded(f"n={n} MAP TV KKT violation",
                          kkt_tv(amat, prec, f, u, lam), KKT_TOL)
        wrong_kkt += _bounded("", kkt_tv(amat, prec, f, _wrong(u, o.rng), lam),
                              KKT_TOL)
        cm = np.concatenate([c.samples for c in chains]).mean(axis=0)
        tv_map.append(tv(u))
        tv_cm.append(tv(cm))
    levels = [lv for r in report for lv in r["levels"]]
    fails += _close("reported MAP TV", [lv["tv_map"] for lv in levels], tv_map, 1e-9)
    fails += _close("reported CM TV", [lv["tv_cm"] for lv in levels], tv_cm, 1e-9)
    half = len(sweep)
    fails += _dilemma_trends(tv_map[:half], tv_map[half:], tv_cm[half:])

    fails += _must_reject("TV KKT", wrong_kkt)
    fails += _must_reject("dilemma trend",
                          _dilemma_trends(tv_map[:half][::-1], tv_map[half:],
                                          tv_cm[half:][::-1]))
    return fails


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

# Chain lengths are set so that a 42-second run holds one to four whole
# executions, with sampling a large share of each.
WORKLOADS = {w.name: w for w in (
    Workload("deblur-verify", "deblur2d.ini", "verify",
             {"sampler": {"samples": 40, "burn_in": 10}},
             check_deblur_verify),
    Workload("ct-estimate", "ct2d.ini", "estimate",
             {"grid": {"shape": "32 32"},
              "sampler": {"samples": 240, "burn_in": 30}},
             check_ct_estimate),
    Workload("tv-dilemma", "tv1d.ini", "dilemma",
             {"tv1d": {"sweep": "63 255 1023"},
              "sampler": {"samples": 45, "burn_in": 10}},
             check_tv_dilemma),
)}


def derive_config(workload: Workload, configs_dir: Path, dest: Path) -> Path:
    """Write the bundled config with the workload's overrides applied."""
    ini = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not ini.read(configs_dir / workload.bundled_config):
        raise FileNotFoundError(configs_dir / workload.bundled_config)
    for section, values in workload.overrides.items():
        for key, value in values.items():
            ini[section][key] = str(value)
    path = dest / f"{workload.name}.ini"
    with path.open("w") as fh:
        ini.write(fh)
    return path


def load_ini(path: Path) -> configparser.ConfigParser:
    ini = configparser.ConfigParser(inline_comment_prefixes=("#",))
    ini.read(path)
    return ini
