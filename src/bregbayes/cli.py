"""Command-line interface.

Subcommands (each takes a config file plus optional --seed/--out-dir):

    scenario   generate truth and noisy data
    map        MAP estimate with convergence trace and optimality report
    cm         MCMC chains and the CM estimate
    estimate   MAP + CM + error metrics
    verify     estimate + the full Bayes-cost check suite
    dilemma    the TV lambda-scaling sweep (tv1d configs only)

Every run writes a manifest listing its artifacts, the config hash and the
python, numpy and scipy versions. Exit status: 0 done, 1 checks failed,
2 usage error, 3 refused (the manifest's ``usage_error`` or ``refused``
field says why; a config file rejected at load makes no out dir).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from .bayescost import format_report_text
from .config import load_config
from .experiments import (Refused, ScenarioConfig, UsageError,
                          build_scenario, generate_data, run_dilemma_sweep,
                          run_experiment)
from .grids import Signal, save_signal_csv, save_signal_pgm
from .sampling import save_chain


def _arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregbayes",
        description="MAP/CM estimation and Bayes-cost checks for linear "
                    "inverse problems with Gibbs priors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("scenario", "generate truth and data"),
        ("map", "compute the MAP estimate"),
        ("cm", "sample the posterior and compute the CM estimate"),
        ("estimate", "MAP + CM + metrics"),
        ("verify", "estimate + Bayes-cost verification suite"),
        ("dilemma", "TV lambda-scaling sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default out_<scenario>)")
    return parser


class _Writer:
    def __init__(self, out_dir: Path, config_hash: str):
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_hash = config_hash
        self.artifacts: list[dict] = []

    def signal(self, sig: Signal, stem: str, pgm: bool = False) -> None:
        path = self.out_dir / f"{stem}.csv"
        save_signal_csv(sig, path)
        self.artifacts.append({"path": path.name, "kind": "signal_csv"})
        if pgm and sig.grid.dim == 2:
            ppath = self.out_dir / f"{stem}.pgm"
            save_signal_pgm(sig, ppath)
            self.artifacts.append({"path": ppath.name, "kind": "signal_pgm"})

    def chain(self, chain, stem: str) -> None:
        path = self.out_dir / f"{stem}.bbchain"
        save_chain(chain, path)
        self.artifacts.append({"path": path.name, "kind": "chain"})
        self.artifacts.append({"path": path.name + ".meta", "kind": "chain_meta"})

    def json(self, payload, stem: str) -> None:
        path = self.out_dir / f"{stem}.json"
        path.write_text(json.dumps(payload, indent=2, default=_jsonable) + "\n")
        self.artifacts.append({"path": path.name, "kind": "json"})

    def text(self, text: str, stem: str) -> None:
        path = self.out_dir / f"{stem}.txt"
        path.write_text(text if text.endswith("\n") else text + "\n")
        self.artifacts.append({"path": path.name, "kind": "text"})

    def finish(self, **reason: str) -> None:  # refused= or usage_error=
        manifest = {"config_hash": self.config_hash,
                    "versions": {"python": platform.python_version(),
                                 "numpy": np.__version__,
                                 "scipy": scipy.__version__},
                    # a refused run lists what it left behind
                    "artifacts": sorted((a for a in self.artifacts if
                                         (self.out_dir / a["path"]).exists()),
                                        key=lambda a: a["path"])}
        manifest.update(reason)
        (self.out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _load(args) -> tuple[ScenarioConfig, _Writer]:
    cfg, digest = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out_dir = Path(args.out_dir) if args.out_dir else Path(f"out_{cfg.name}")
    return cfg, _Writer(out_dir, digest)


def _write_scenario(writer, parts, data) -> None:
    writer.signal(parts.truth_fine, "truth_fine", pgm=True)
    writer.signal(parts.truth_on_recon, "truth_recon", pgm=True)
    writer.signal(data.data, "data", pgm=True)
    writer.signal(data.noiseless, "data_noiseless")
    writer.text(f"sigma = {data.sigma!r}", "noise")


def _cmd_scenario(cfg, writer) -> int:
    parts = build_scenario(cfg)
    data = generate_data(parts.truth_fine, parts.forward_fine, parts.restrict,
                         cfg.noise_fraction, cfg.seed, parts.data_grid)
    _write_scenario(writer, parts, data)
    writer.finish()
    print(f"scenario '{cfg.name}' written to {writer.out_dir} "
          f"(sigma={data.sigma:.6g})")
    return 0


def _estimate_core(cfg, writer, want_map=True, want_cm=True, verify=False):
    if want_map:
        trace_path = writer.out_dir / "map_trace.csv"
        writer.artifacts.append({"path": trace_path.name, "kind": "trace_csv"})
        cfg = dataclasses.replace(
            cfg, solver=dataclasses.replace(cfg.solver,
                                            trace_path=str(trace_path)))
    record = run_experiment(cfg, verify=verify, with_cm=want_cm)
    _write_scenario(writer, record.parts, record.data)
    grid = record.parts.recon_grid
    if want_map:
        writer.signal(Signal(grid, record.map_result.estimate), "map", pgm=True)
        writer.json({"lambda": record.lam,
                     "iterations": record.map_result.iterations,
                     "cg_iterations": record.map_result.cg_iterations,
                     "converged": record.map_result.converged,
                     "final_energy": record.map_result.final_energy,
                     "optimality_residual": record.map_result.residual_norm},
                    "map_report")
    if want_cm:
        for i, chain in enumerate(record.chains):
            writer.chain(chain, f"chain_{i}")
        writer.signal(Signal(grid, record.cm.mean), "cm", pgm=True)
        writer.signal(Signal(grid, record.cm.stderr), "cm_stderr")
    writer.json(record.metrics, "metrics")
    if record.reports:
        writer.json([r.to_dict() for r in record.reports], "verify_report")
        writer.text("\n".join(format_report_text(r) for r in record.reports),
                    "verify_report")
    writer.finish()
    return record


def _cmd_map(cfg, writer) -> int:
    record = _estimate_core(cfg, writer, want_cm=False)
    print(f"MAP done: lambda={record.lam:.6g} "
          f"iterations={record.map_result.iterations} "
          f"residual={record.map_result.residual_norm:.3g} "
          f"rel_l2={record.metrics['rel_l2_map']:.4f}")
    return 0


def _cmd_cm(cfg, writer) -> int:
    record = _estimate_core(cfg, writer, want_map=False)
    print(f"CM done: chains={len(record.chains)} "
          f"samples/chain={len(record.chains[0])} "
          f"two-chain sup discrepancy={record.metrics['two_chain_sup']:.4g} "
          f"rel_l2={record.metrics['rel_l2_cm']:.4f}")
    return 0


def _cmd_estimate(cfg, writer) -> int:
    record = _estimate_core(cfg, writer)
    print(json.dumps(record.metrics, indent=2, default=_jsonable))
    return 0


def _cmd_verify(cfg, writer) -> int:
    record = _estimate_core(cfg, writer, verify=True)
    failures = 0
    for report in record.reports:
        line = format_report_text(report)
        print(line)
        failures += int(not report.passed)
    return 1 if failures else 0


def _cmd_dilemma(cfg, writer) -> int:
    reports = [run_dilemma_sweep(cfg, "sqrt_n"),
               run_dilemma_sweep(cfg, "fixed")]
    payload = [r.to_dict() for r in reports]
    writer.json(payload, "dilemma_report")
    lines = []
    for rep in reports:
        lines.append(f"rule {rep.rule}:")
        for lv in rep.levels:
            lines.append(
                f"  n={lv.n:5d} lambda={lv.lam:9.3f} "
                f"map_range={lv.sup_range_map:7.4f} tv_map={lv.tv_map:8.4f} "
                f"tv_cm={lv.tv_cm:9.4f} chain_gap={lv.two_chain_rel_l2:8.5f}")
    text = "\n".join(lines)
    writer.text(text, "dilemma_report")
    writer.finish()
    print(text)
    return 0


_COMMANDS = {"scenario": _cmd_scenario, "map": _cmd_map, "cm": _cmd_cm,
             "estimate": _cmd_estimate, "verify": _cmd_verify,
             "dilemma": _cmd_dilemma}


def main(argv=None) -> int:
    # a no-op when the caller has configured logging already
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _arg_parser().parse_args(argv)
    try:
        cfg, writer = _load(args)
    except (ValueError, OSError) as exc:  # a config that no run can honour
        print(f"bregbayes {args.command}: usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, writer)
    except Refused as exc:  # a one-line reason: a MAP solve did not converge
        writer.finish(refused=str(exc))
        print(f"bregbayes {args.command}: refused: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:  # a one-line reason: the config asks too little
        writer.finish(usage_error=str(exc))
        print(f"bregbayes {args.command}: usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
