"""One execution of a workload's subcommand, in a fresh interpreter.

    python3 perfbench/child.py <spawn_time> <workload> <subcommand> <config>
        <program_seed> <check_seed> <out_dir> <result.json> <mode>

mode is `run` (end-to-end metrics), `trace` (per-layer metrics) or `setup`
(stop once the data exists). `spawn_time` is the parent's time.monotonic()
just before it started this process; CLOCK_MONOTONIC is system-wide, so
every duration below counts from interpreter start. Only the standard
library and bregbayes are imported before the subcommand runs; ESS and the
correctness checks run afterwards and are not timed.
"""

import sys
import time

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import bregbayes
    if Path(bregbayes.__file__).resolve().parent != ROOT / "src" / "bregbayes":
        raise ImportError(f"bregbayes imported from {bregbayes.__file__}, "
                          f"not from this checkout")


def main(argv) -> int:
    (spawn, name, command, config, program_seed, check_seed, out_dir,
     result_path, mode) = argv
    spawn = float(spawn)
    _import_package()
    import contextlib
    import io
    import json
    import resource
    import warnings

    import bregbayes.cli as cli
    from tracing import SetupDone, Tracer, install

    tracer = Tracer()
    install(tracer, traced=mode == "trace", setup_only=mode == "setup")
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main([command, config, "--seed", program_seed,
                           "--out-dir", out_dir])
    except SetupDone:
        setup = tracer.first_end("experiments.generate_data") - spawn
        Path(result_path).write_text(json.dumps({"setup_s": setup}))
        return 0
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rc != 0:
        print(stdout.getvalue(), file=sys.stderr)
        raise RuntimeError(f"bregbayes {command} exited {rc}")

    import numpy as np
    from ess import median_ess
    from workloads import WORKLOADS, Outcome, load_ini

    ess = sum(median_ess(np.stack([c.samples for c in chains]))
              for chains in tracer.samples)
    sample_s = tracer.total("sampling.sample_posterior")
    result = {
        "wall_s": end - spawn,
        "setup_s": tracer.first_end("experiments.generate_data") - spawn,
        "map_s": (tracer.total("experiments.lambda_search")
                  + tracer.total("map_solver.solve_map",
                                 outside="experiments.lambda_search")),
        "ess_per_s": ess / sample_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if mode == "trace":
        result = layer_metrics(tracer, ess, end - spawn, Path(out_dir))
        result["spans"] = [[s.name, s.start - spawn, s.end - spawn, s.parent]
                           for s in tracer.spans]
        result["self_s"] = tracer.self_times()
        result["counters"] = dict(tracer.counts)

    outcome = Outcome(Path(out_dir), load_ini(Path(config)),
                      np.random.default_rng(int(check_seed)),
                      tracer.solves, tracer.samples)
    result["failures"] = WORKLOADS[name].check(outcome)
    Path(result_path).write_text(json.dumps(result))
    return 0


def layer_metrics(tracer, ess: float, wall: float, out_dir: Path) -> dict:
    from tracing import OPERATOR_LAYERS

    c = tracer.counts
    sample_s = tracer.total("sampling.sample_posterior")
    column_s = tracer.total("sampling.column_setup")
    chains = [ch for group in tracer.samples for ch in group]
    rates = [1.0 if ch.acceptance_rate is None else ch.acceptance_rate
             for ch in chains]  # an exact Gibbs draw is always accepted
    out = {
        "config.load_s": tracer.total("config.load"),
        "experiments.build_scenario_s": tracer.total("experiments.build_scenario"),
        "experiments.generate_data_s": tracer.total("experiments.generate_data"),
        "operators.adjoint_probe_s": tracer.total("operators.adjoint_probe"),
        "experiments.lambda_search_s": tracer.total("experiments.lambda_search"),
        "map_solver.solve_s": tracer.total("map_solver.solve_map"),
        "operators.apply_s": sum(c[f"operators.{op}.s"] for op in OPERATOR_LAYERS),
        "sampling.sample_s": sample_s,
        "sampling.column_setup_s": column_s,
        "sampling.coord_update_us": ((sample_s - column_s)
                                     / c["sampling.coord_updates"] * 1e6),
        "cli.write_s": tracer.total("cli.write"),
        "trace.wall_s": wall,
        "experiments.lambda_search_solves": c["experiments.lambda_search_solves"],
        "map_solver.solves": c["map_solver.solves"],
        "map_solver.outer_iters": c["map_solver.outer_iters"],
        "map_solver.operator_calls": c["map_solver.operator_calls"],
        "map_solver.unconverged": c["map_solver.unconverged"],
        "sampling.coord_updates": c["sampling.coord_updates"],
        "sampling.ess": ess,
        "sampling.acceptance_rate": sum(rates) / len(rates),
        "cli.bytes_written": sum(p.stat().st_size for p in out_dir.iterdir()),
        "package.src_lines": sum(
            len(p.read_text().splitlines())
            for p in (ROOT / "src" / "bregbayes").glob("*.py")),
    }
    for op in OPERATOR_LAYERS:
        out[f"operators.{op}.calls"] = c[f"operators.{op}.calls"]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
