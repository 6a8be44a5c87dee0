import json
import logging
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import bregbayes.experiments as experiments
from bregbayes.cli import main
from bregbayes.config import load_config, parse_config_text
from bregbayes.grids import load_signal_csv
from bregbayes.sampling import load_chain

TINY_DEBLUR = """
[scenario]
name = deblur2d
seed = 3

[grid]
shape = 16 16
truth_factor = 2

[noise]
fraction = 0.05

[prior]
lambda = 2.0

[solver]
max_iters = 1000
tol_residual = 1e-3

[sampler]
samples = 40
chains = 2

[deblur2d]
spots = 2
kernel_sigma = 0.05
spot_radius_range = 0.08 0.12
"""

TINY_TV = """
[scenario]
name = tv1d
seed = 9

[grid]
shape = 15
truth_factor = 4

[prior]
lambda = 2.0
rule_constant = 0.25

[solver]
max_iters = 600
tol_residual = 1e-3

[sampler]
samples = 40
chains = 2

[tv1d]
data_size = 8
sweep = 15 31
"""


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- config parsing --------------------------------------------------------------


def test_config_defaults_and_overrides():
    cfg = parse_config_text(TINY_DEBLUR)
    assert cfg.name == "deblur2d"
    assert cfg.recon_shape == (16, 16)
    assert cfg.lam == 2.0
    assert cfg.spots == 2
    assert cfg.spot_radius_range == (0.08, 0.12)
    assert cfg.n_chains == 2
    # scenario defaults fill untouched fields
    assert cfg.lambda_rule == "fixed"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config_text(TINY_DEBLUR + "\nnot_a_key = 3\n")
    with pytest.raises(ValueError):
        parse_config_text("[bogus]\nx = 1\n[scenario]\nname = tv1d\n")
    with pytest.raises(ValueError):
        parse_config_text("[scenario]\nname = warp\n")
    # each scenario fixes its prior, so the prior is not a config key
    with pytest.raises(ValueError, match=r"unknown key 'kind' in section "
                                         r"\[prior\]"):
        parse_config_text(TINY_DEBLUR.replace("[prior]\n",
                                              "[prior]\nkind = l1\n"))
    # the stall-stop and CG-cap knobs are gone: the KKT residual is the
    # one stopping rule
    for key in ("tol_rel_change", "tol_split_gap", "cg_max_iters"):
        text = TINY_DEBLUR.replace("[solver]\n", f"[solver]\n{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}' in "
                                             r"section \[solver\]"):
            parse_config_text(text)


def test_config_hash_is_stable(tmp_path):
    path = _write(tmp_path, TINY_DEBLUR)
    _, h1 = load_config(path)
    _, h2 = load_config(path)
    assert h1 == h2 and len(h1) == 64


def test_ct_config_defaults():
    cfg = parse_config_text("[scenario]\nname = ct2d\n")
    assert cfg.lambda_rule == "s_curve"
    assert cfg.noise_fraction == 0.01
    assert cfg.angles == 15 and cfg.bins == 95


@pytest.mark.parametrize("name", experiments.SCENARIOS)
def test_config_file_and_library_share_the_scenario_defaults(name):
    # a key a file leaves out takes ScenarioConfig's default
    assert experiments.ScenarioConfig(name=name) == \
        parse_config_text(f"[scenario]\nname = {name}\n")


def test_config_shape_defaults_per_scenario():
    for name, shape in (("deblur2d", (64, 64)), ("tv1d", (63,)),
                        ("ct2d", (64, 64))):
        cfg = parse_config_text(f"[scenario]\nname = {name}\n")
        assert cfg.recon_shape == shape
        assert experiments.ScenarioConfig(name=name).recon_shape == shape


@pytest.mark.parametrize("old, new, match", [
    ("shape = 16 16", "shape = 16", r"\[grid\] shape"),
    ("shape = 16 16", "shape =", r"\[grid\] shape"),
    ("shape = 16 16", "shape = 16 8", r"\[grid\] shape"),
    ("chains = 2", "chains = 0", r"\[sampler\]"),
    ("chains = 2", "chains = 1", r"\[sampler\]"),
    ("samples = 40", "samples = 0", r"\[sampler\]"),
    ("samples = 40", "samples = 40\nthinning = 0", r"\[sampler\]"),
    ("samples = 40", "samples = 40\nburn_in = -1", r"\[sampler\]"),
    ("samples = 40", "samples = 40\nstep = 2.4", r"\[sampler\] step"),
    ("[deblur2d]", "[ct2d]\nangles = 7\n[deblur2d]", r"section \[ct2d\]"),
], ids=["shape-length", "shape-empty", "shape-unequal-sides", "chains-0", "chains-1",
        "samples-0", "thinning-0", "burn-in-negative", "step-for-gibbs",
        "foreign-section"])
def test_config_rejects_knobs_no_run_honours(old, new, match):
    assert old in TINY_DEBLUR
    with pytest.raises(ValueError, match=match):
        parse_config_text(TINY_DEBLUR.replace(old, new))


def test_config_rejects_a_tv1d_shape_of_two_sides_and_a_gibbs_step():
    with pytest.raises(ValueError, match=r"\[grid\] shape"):
        parse_config_text(TINY_TV.replace("shape = 15", "shape = 15 15"))
    with pytest.raises(ValueError, match=r"\[sampler\] step"):
        parse_config_text(TINY_TV.replace("[sampler]", "[sampler]\nstep = 1"))
    with pytest.raises(ValueError, match=r"section \[deblur2d\]"):
        parse_config_text(TINY_TV + "\n[deblur2d]\nspots = 3\n")


def test_config_rejects_cg_tol_for_tv1d_only():
    # the TV u-step is a banded Cholesky solve; it never reads cg_tol
    with pytest.raises(ValueError, match=r"\[solver\] cg_tol"):
        parse_config_text(TINY_TV.replace("[solver]", "[solver]\ncg_tol = 1e-8"))
    # a blur whose radius reaches a grid side has no DCT eigenvalues: CG
    cfg = parse_config_text(TINY_DEBLUR.replace("[solver]",
                                                "[solver]\ncg_tol = 1e-8"))
    assert cfg.solver.cg_tol == 1e-8
    head = "[scenario]\nname = ct2d\n[solver]\ncg_tol = 1e-9\n"
    assert parse_config_text(head).solver.cg_tol == 1e-9


def test_config_step_is_an_rwm_knob():
    head = "[scenario]\nname = ct2d\n"
    assert parse_config_text(head).rwm_step == 2.4
    assert parse_config_text(head + "[sampler]\nstep = 1.5\n").rwm_step == 1.5
    with pytest.raises(ValueError, match=r"\[sampler\]"):
        parse_config_text(head + "[sampler]\nstep = 0\n")
    # the Gibbs scenarios take no step, from a file or from the library
    for name in ("deblur2d", "tv1d"):
        assert experiments.ScenarioConfig(name=name).rwm_step is None
        with pytest.raises(ValueError, match=r"\[sampler\] step"):
            experiments.ScenarioConfig(name=name, rwm_step=1.0)


@pytest.mark.parametrize("name", experiments.SCENARIOS)
def test_config_rejects_lambda_under_a_rule_that_ignores_it(name):
    # only the fixed rule reads deblur2d's and ct2d's lambda; the dilemma
    # sweep's fixed rule reads tv1d's whatever the config's rule
    head = f"[scenario]\nname = {name}\n[prior]\nlambda = 1.5\n"
    assert parse_config_text(head + "rule = fixed\n").lam == 1.5
    for rule in ("sqrt_n", "s_curve"):
        if name == "tv1d" and rule == "sqrt_n":
            assert parse_config_text(head + f"rule = {rule}\n").lam == 1.5
            continue
        if name == "tv1d":
            # the target would count the truth's nonzero pixels, the search
            # the MAP's nonzero differences: two different quantities
            with pytest.raises(ValueError, match=r"\[prior\] rule = s_curve"):
                parse_config_text(head + f"rule = {rule}\n")
            continue
        with pytest.raises(ValueError, match=r"\[prior\] lambda"):
            parse_config_text(head + f"rule = {rule}\n")
        with pytest.raises(ValueError, match=r"\[prior\] lambda"):
            experiments.ScenarioConfig(name=name, lam=1.5, lambda_rule=rule)
        assert experiments.ScenarioConfig(name=name, lambda_rule=rule).lam \
            is None


@pytest.mark.parametrize("text", [
    TINY_DEBLUR + "\nnot_a_key = 3\n",
    None,  # no such file
    "[scenario]\nname = ct2d\n[grid]\nshape = 48 48\n",
    "[scenario]\nname = ct2d\n[ct2d]\nangles = 0\n",
    TINY_DEBLUR.replace("[prior]\n", "[prior]\ns_curve_bracket = 10 1\n"),
    TINY_DEBLUR.replace("kernel_sigma = 0.05", "kernel_sigma = -1"),
    TINY_TV.replace("lambda = 2.0", "rule = s_curve"),
    "lambda = 2.0\n",  # no section header
], ids=["unknown-key", "missing-file", "ct2d-side-48", "ct2d-no-angles",
        "reversed-bracket", "negative-kernel-sigma", "tv1d-s-curve",
        "no-section"])
def test_cli_config_no_run_can_honour_is_a_usage_error(tmp_path, capsys, text):
    # exit 2 with one line on stderr, before any out dir is made
    path = tmp_path / "absent.ini" if text is None else _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["map", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bregbayes map: usage error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_config_rejects_prior_beta():
    # no scenario has a Gaussian prior, so its weight is not a config key
    with pytest.raises(ValueError, match="beta"):
        parse_config_text(TINY_DEBLUR.replace("[prior]\n",
                                              "[prior]\nbeta = 1.0\n"))


# -- subcommands -------------------------------------------------------------------


def test_cli_scenario(tmp_path):
    path = _write(tmp_path, TINY_DEBLUR)
    out = tmp_path / "out"
    assert main(["scenario", str(path), "--out-dir", str(out)]) == 0
    truth = load_signal_csv(out / "truth_recon.csv")
    data = load_signal_csv(out / "data.csv")
    assert truth.grid.shape == (16, 16)
    assert data.grid.shape == (16, 16)
    assert (out / "truth_fine.pgm").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config_hash"]) == 64
    names = {a["path"] for a in manifest["artifacts"]}
    assert "data.csv" in names and "noise.txt" in names


def test_cli_estimate_writes_everything(tmp_path, caplog):
    path = _write(tmp_path, TINY_DEBLUR)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="bregbayes.experiments"):
        assert main(["estimate", str(path), "--out-dir", str(out)]) == 0
    for stem in ("map", "cm", "truth_recon", "data"):
        assert (out / f"{stem}.csv").exists()
    chain = load_chain(out / "chain_0.bbchain")
    assert chain.dim == 256
    assert len(chain) == 40
    metrics = json.loads((out / "metrics.json").read_text())
    assert "rel_l2_map" in metrics and "rel_l2_cm" in metrics
    assert metrics["map_converged"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__,
                                    "scipy": scipy.__version__}
    timing = [r for r in caplog.records if r.getMessage().startswith("sampling:")]
    assert len(timing) == 1
    sample_s, updates_per_s, workers = timing[0].args
    assert sample_s > 0 and updates_per_s > 0
    assert workers == experiments.chain_workers(2)
    assert "workers" not in metrics  # the host's CPU count stays out
    trace = (out / "map_trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,energy,residual"
    assert trace[-1].split(",")[2] != ""  # final residual recorded


def test_cli_map_samples_no_chain(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("map must not sample the posterior")

    monkeypatch.setattr(experiments, "sample_posterior", no_sampling)
    path = _write(tmp_path, TINY_DEBLUR)
    out = tmp_path / "out"
    assert main(["map", str(path), "--out-dir", str(out)]) == 0
    assert (out / "map.csv").exists()
    report = json.loads((out / "map_report.json").read_text())
    assert report["iterations"] >= 1
    assert not list(out.glob("chain_*.bbchain"))
    metrics = json.loads((out / "metrics.json").read_text())
    assert "rel_l2_map" in metrics and "rel_l2_cm" not in metrics
    assert metrics["map_converged"] and report["converged"]
    with pytest.raises(ValueError):
        experiments.run_experiment(parse_config_text(TINY_DEBLUR),
                                   verify=True, with_cm=False)


def test_cli_seed_override_changes_data(tmp_path):
    path = _write(tmp_path, TINY_DEBLUR)
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    main(["scenario", str(path), "--out-dir", str(out1)])
    main(["scenario", str(path), "--out-dir", str(out2)])
    main(["scenario", str(path), "--out-dir", str(out3), "--seed", "77"])
    d1 = load_signal_csv(out1 / "data.csv").values
    d2 = load_signal_csv(out2 / "data.csv").values
    d3 = load_signal_csv(out3 / "data.csv").values
    np.testing.assert_array_equal(d1, d2)
    assert not np.array_equal(d1, d3)


def test_cli_verify_reports(tmp_path):
    path = _write(tmp_path, TINY_DEBLUR)
    out = tmp_path / "out"
    code = main(["verify", str(path), "--out-dir", str(out)])
    assert json.loads((out / "metrics.json").read_text())["map_converged"]
    report = json.loads((out / "verify_report.json").read_text())
    checks = {entry["check"] for entry in report}
    assert {"bayes_optimality", "map_cm_inequalities", "map_centered_energy",
            "cm_average_optimality"} <= checks
    text = (out / "verify_report.txt").read_text()
    assert "PASS" in text
    assert code in (0, 1)


def test_cli_verify_refuses_unconverged_map(tmp_path, capsys):
    path = _write(tmp_path, TINY_DEBLUR.replace("max_iters = 1000",
                                                "max_iters = 20"))
    out = tmp_path / "out"
    assert main(["verify", str(path), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "verification needs a converged MAP" in err[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["refused"].startswith(
        "verification needs a converged MAP: the solve stopped after 20 "
        "iterations")
    # the refused run lists the trace it left behind
    assert (out / "map_trace.csv").exists()
    assert {"path": "map_trace.csv", "kind": "trace_csv"} in manifest["artifacts"]


def test_cli_too_few_draws_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, TINY_DEBLUR.replace("samples = 40", "samples = 5"))
    out = tmp_path / "out"
    assert main(["cm", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["bregbayes cm: usage error: the CM estimate needs at least "
                   "20 draws: [sampler] samples = 5 times chains = 2 gives 10"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["usage_error"] == err[0].split("usage error: ", 1)[1]
    assert manifest["artifacts"] == [] and "refused" not in manifest


def _run_cli(args, timeout=300):
    src = str(Path(experiments.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "bregbayes.cli", *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


def test_cli_logs_diagnostics_from_a_plain_shell(tmp_path):
    # no caller configures logging here, so the CLI must
    path = _write(tmp_path, TINY_DEBLUR.replace("max_iters = 1000",
                                                "max_iters = 20"), "short.ini")
    proc = _run_cli(["verify", str(path), "--out-dir", str(tmp_path / "v")])
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 2
    assert err[0].startswith("WARNING bregbayes.map_solver: solve_map: "
                             "no convergence within 20 iterations")
    assert err[1].startswith("bregbayes verify: refused: verification needs "
                             "a converged MAP")
    path = _write(tmp_path, TINY_DEBLUR)
    proc = _run_cli(["cm", str(path), "--out-dir", str(tmp_path / "cm")])
    assert proc.returncode == 0
    assert "INFO bregbayes.experiments: sampling: sample_s=" in proc.stderr


def test_cli_dilemma(tmp_path):
    path = _write(tmp_path, TINY_TV)
    out = tmp_path / "out"
    assert main(["dilemma", str(path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "dilemma_report.json").read_text())
    assert [entry["rule"] for entry in report] == ["sqrt_n", "fixed"]
    assert [lv["n"] for lv in report[0]["levels"]] == [15, 31]


def test_cli_dilemma_fills_tv1d_lambda_under_every_rule(tmp_path):
    # the dilemma's fixed-rule sweep reads tv1d's lambda whatever the rule
    text = TINY_TV.replace("lambda = 2.0", "rule = sqrt_n")
    path = _write(tmp_path, text)
    assert load_config(path)[0].lam == 2.0
    out = tmp_path / "out"
    assert main(["dilemma", str(path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "dilemma_report.json").read_text())
    assert [lv["lam"] for lv in report[1]["levels"]] == [2.0, 2.0]


def test_cli_dilemma_rejects_non_tv(tmp_path):
    path = _write(tmp_path, TINY_DEBLUR)
    assert main(["dilemma", str(path), "--out-dir",
                 str(tmp_path / "o")]) == 2
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["usage_error"] == "the dilemma sweep needs a tv1d config"


def test_cli_import_loads_no_ndimage():
    # no bregbayes module needs scipy.ndimage (see the deblur run below)
    src = str(Path(experiments.__file__).resolve().parents[1])
    code = ("import sys, bregbayes.cli; "
            "sys.exit('scipy.ndimage' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0


def _assert_deblur_map_skips(tmp_path, module):
    """A fresh interpreter's deblur ``map`` run succeeds without importing
    ``module``."""
    path = _write(tmp_path, TINY_DEBLUR)
    src = str(Path(experiments.__file__).resolve().parents[1])
    code = ("import sys; from bregbayes.cli import main; "
            f"assert main(['map', {str(path)!r}, '--out-dir', "
            f"{str(tmp_path / 'out')!r}]) == 0; "
            f"sys.exit({module!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0


def test_cli_deblur_map_loads_no_ndimage(tmp_path):
    # the blur applies dense reflective matrices, not scipy.ndimage
    _assert_deblur_map_skips(tmp_path, "scipy.ndimage")


def test_cli_deblur_map_loads_no_scipy_fft(tmp_path):
    # the DCT u-step applies dense DCT matrices, so no scipy.fft import
    _assert_deblur_map_skips(tmp_path, "scipy.fft")
    report = json.loads((tmp_path / "out" / "map_report.json").read_text())
    assert report["converged"] and report["cg_iterations"] == 0
