"""Plain-text experiment configs.

Sectioned ``key = value`` files (INI syntax). Unknown sections or keys
are rejected; ``auto`` leaves a key unset where allowed. The loader only
parses: a key the file leaves out takes ``ScenarioConfig``'s default, so
a file and a library call that set the same fields are the same
experiment. See the README for the full grammar.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
from pathlib import Path

from .experiments import SCENARIO_SOLVER, SCENARIOS, ScenarioConfig


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


def _two_floats(text: str) -> tuple[float, float]:
    parts = [float(t) for t in text.split()]
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return parts[0], parts[1]


def _auto(parse):
    return lambda text: None if text == "auto" else parse(text)


# section -> key -> (parser, ScenarioConfig field; SolverOptions field
# under [solver])
_SCHEMA = {
    "scenario": {"name": (str, "name"), "seed": (int, "seed")},
    "grid": {"shape": (_ints, "recon_shape"),
             "truth_factor": (int, "truth_factor")},
    "noise": {"fraction": (float, "noise_fraction")},
    "prior": {"lambda": (_auto(float), "lam"), "rule": (str, "lambda_rule"),
              "rule_constant": (float, "rule_constant"),
              "s_curve_target": (_auto(float), "s_curve_target"),
              "s_curve_bracket": (_two_floats, "s_curve_bracket"),
              "s_curve_tol": (float, "s_curve_tol")},
    "solver": {"penalty": (_auto(float), "penalty"),
               "max_iters": (int, "max_iters"),
               "tol_residual": (float, "tol_residual"),
               "cg_tol": (float, "cg_tol")},
    "sampler": {"samples": (int, "n_samples"),
                "burn_in": (_auto(int), "burn_in"),
                "thinning": (int, "thinning"), "step": (float, "rwm_step"),
                "chains": (int, "n_chains")},
    "deblur2d": {"spots": (int, "spots"),
                 "kernel_sigma": (float, "kernel_sigma"),
                 "spot_radius_range": (_two_floats, "spot_radius_range"),
                 "spot_intensity_range": (_two_floats,
                                          "spot_intensity_range")},
    "tv1d": {"data_size": (int, "data_size"), "sweep": (_ints, "sweep")},
    "ct2d": {"angles": (int, "angles"), "bins": (int, "bins"),
             "wavelet_levels": (_auto(int), "wavelet_levels"),
             "weights_csv": (str, "weights_csv")},
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
            parse, field = _SCHEMA[section][key]
            try:
                values[section][field] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for [{section}] {key}: "
                                 f"{raw!r}") from exc

    name = values.get("scenario", {}).get("name")
    if name not in SCENARIOS:
        raise ValueError(f"config must set [scenario] name to one of "
                         f"{SCENARIOS}, got {name!r}")
    foreign = sorted(set(values) & set(SCENARIOS) - {name})
    if foreign:
        raise ValueError(f"section [{foreign[0]}] in a {name} config")
    solver = values.pop("solver", {})
    # SolverOptions cannot tell a set cg_tol from its default
    if name == "tv1d" and "cg_tol" in solver:
        raise ValueError("[solver] cg_tol: tv1d solves its u-step by a "
                         "banded Cholesky factor, which runs no CG")
    fields = {k: v for section in values.values() for k, v in section.items()}
    if solver:
        fields["solver"] = dataclasses.replace(SCENARIO_SOLVER, **solver)
    return ScenarioConfig(**fields)


def load_config(path) -> tuple[ScenarioConfig, str]:
    """Parse a config file; returns (config, sha256 of the file bytes)."""
    raw = Path(path).read_bytes()
    cfg = parse_config_text(raw.decode())
    return cfg, hashlib.sha256(raw).hexdigest()
