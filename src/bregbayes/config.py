"""Plain-text experiment configs.

Sectioned ``key = value`` files (INI syntax). Unknown sections or keys
are rejected; ``auto`` selects the documented default where allowed. See
the README for the full grammar.
"""

from __future__ import annotations

import configparser
import hashlib
from pathlib import Path

from .experiments import SCENARIOS, ScenarioConfig
from .map_solver import SolverOptions


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


def _parse_auto_int(text: str):
    return None if text == "auto" else int(text)


def _parse_auto_float(text: str):
    return None if text == "auto" else float(text)


def _parse_two_floats(text: str) -> tuple[float, float]:
    parts = [float(t) for t in text.split()]
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return parts[0], parts[1]


_SCHEMA = {
    "scenario": {"name": str, "seed": _parse_int},
    "grid": {"shape": _parse_ints, "truth_factor": _parse_int},
    "noise": {"fraction": _parse_float},
    "prior": {"kind": str, "lambda": _parse_auto_float, "rule": str,
              "rule_constant": _parse_float, "s_curve_target": _parse_auto_float,
              "s_curve_bracket": _parse_two_floats, "s_curve_tol": _parse_float},
    "solver": {"penalty": _parse_auto_float, "max_iters": _parse_int,
               "tol_residual": _parse_float, "cg_tol": _parse_float},
    "sampler": {"samples": _parse_int, "burn_in": _parse_auto_int,
                "thinning": _parse_int, "step": _parse_float,
                "chains": _parse_int},
    "deblur2d": {"spots": _parse_int, "kernel_sigma": _parse_float,
                 "spot_radius_range": _parse_two_floats,
                 "spot_intensity_range": _parse_two_floats},
    "tv1d": {"data_size": _parse_int, "sweep": _parse_ints},
    "ct2d": {"angles": _parse_int, "bins": _parse_int,
             "wavelet_levels": _parse_auto_int, "weights_csv": str},
}


def parse_config_text(text: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in cp[section].items():
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ValueError(f"bad value for [{section}] {key}: "
                                 f"{raw!r}") from exc

    def get(section, key, default):
        return values.get(section, {}).get(key, default)

    name = get("scenario", "name", None)
    if name not in SCENARIOS:
        raise ValueError(f"config must set [scenario] name to one of "
                         f"{SCENARIOS}, got {name!r}")
    foreign = sorted(set(values) & set(SCENARIOS) - {name})
    if foreign:
        raise ValueError(f"section [{foreign[0]}] in a {name} config")
    if name != "ct2d" and "step" in values.get("sampler", {}):
        raise ValueError(f"[sampler] step: {name} samples by Gibbs, which "
                         f"takes no step")
    if name == "tv1d" and "cg_tol" in values.get("solver", {}):
        raise ValueError("[solver] cg_tol: tv1d solves its u-step by a "
                         "banded Cholesky factor, which runs no CG")

    solver = SolverOptions(
        penalty=get("solver", "penalty", None),
        max_iters=get("solver", "max_iters", 3000),
        tol_residual=get("solver", "tol_residual", 1e-4),
        cg_tol=get("solver", "cg_tol", 1e-10),
    )
    default_noise = {"deblur2d": 0.1, "tv1d": 0.1, "ct2d": 0.01}[name]
    lambda_rule = get("prior", "rule", None)
    if lambda_rule is None:
        lambda_rule = "s_curve" if name == "ct2d" else "fixed"
    lam = get("prior", "lambda", None)
    if lam is None and lambda_rule == "fixed":
        lam = {"deblur2d": 6.0, "tv1d": 2.0, "ct2d": None}[name]
    return ScenarioConfig(
        name=name,
        seed=get("scenario", "seed", 0),
        recon_shape=get("grid", "shape", None),
        truth_factor=get("grid", "truth_factor", 4),
        noise_fraction=get("noise", "fraction", default_noise),
        prior_kind=get("prior", "kind", None),
        lam=lam,
        lambda_rule=lambda_rule,
        rule_constant=get("prior", "rule_constant", 1.0),
        s_curve_target=get("prior", "s_curve_target", None),
        s_curve_bracket=get("prior", "s_curve_bracket",
                            (0.5, 5000.0) if name == "ct2d" else (1e-3, 1e2)),
        s_curve_tol=get("prior", "s_curve_tol", 0.02),
        solver=solver,
        n_samples=get("sampler", "samples", 600),
        burn_in=get("sampler", "burn_in", None),
        thinning=get("sampler", "thinning", 1),
        rwm_step=get("sampler", "step", 2.4),
        n_chains=get("sampler", "chains", 2),
        spots=get("deblur2d", "spots", 14),
        spot_radius_range=get("deblur2d", "spot_radius_range", (0.01, 0.02)),
        spot_intensity_range=get("deblur2d", "spot_intensity_range",
                                 (0.7, 1.3)),
        kernel_sigma=get("deblur2d", "kernel_sigma", 0.015),
        data_size=get("tv1d", "data_size", 30),
        sweep=tuple(get("tv1d", "sweep", (63, 255, 1023, 4095))),
        angles=get("ct2d", "angles", 15),
        bins=get("ct2d", "bins", 95),
        wavelet_levels=get("ct2d", "wavelet_levels", None),
        weights_csv=get("ct2d", "weights_csv", None),
    )


def load_config(path) -> tuple[ScenarioConfig, str]:
    """Parse a config file; returns (config, sha256 of the file bytes)."""
    raw = Path(path).read_bytes()
    cfg = parse_config_text(raw.decode())
    return cfg, hashlib.sha256(raw).hexdigest()
