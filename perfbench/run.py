"""Benchmark of the bregbayes CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload deblur-verify --seed 1 --seconds 42 --trace 0

Run from the root of a checkout. Each run derives the workload's config
from the bundled one, then executes the subcommand in fresh interpreters,
one after another, with one BLAS thread each.

The program's seed (the subcommand's --seed) is the bundled config's seed,
fixed per workload, so that every execution does the same work and ESS
repeats exactly; ess_per_s then varies only with time. --seed seeds the
checks' own random probes. --program-seed runs the program at another seed,
to tell a change of random stream from a change in mixing.

A run is

* one warm-up set-up (discarded) and SETUP_PROBES set-up-only executions,
  which stop once the data exists and time set-up alone;
* whole executions of the subcommand, as many as fit in --seconds (at
  least one; at least two when traced, to check that counts repeat).

Every execution's outputs are checked. The last line of standard output is
one JSON object: `correct`, `attempted` and `failed` count executions, and
`metrics` holds the medians of the end-to-end metrics (--trace 0) or of the
per-layer metrics (--trace 1). A traced run also writes every span and
counter to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170

# counts that must repeat exactly between executions with one seed
REPEATED_COUNTS = ("sampling.ess", "sampling.coord_updates",
                   "map_solver.solves", "map_solver.outer_iters",
                   "map_solver.operator_calls", "map_solver.unconverged",
                   "experiments.lambda_search_solves", "cli.bytes_written")


def metric_units(traced: bool) -> dict[str, str]:
    """Name and unit of every metric a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_child(workload, config: Path, seeds: tuple[int, int], work: Path,
              tag: str, mode: str) -> dict:
    out_dir = work / f"out-{tag}"
    result = work / f"result-{tag}.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(spawn), workload.name,
         workload.command, str(config), *map(str, seeds), str(out_dir),
         str(result), mode],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload.name} {mode} execution failed:\n"
                           f"{proc.stderr[-4000:]}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return json.loads(result.read_text())


def repeat_failures(results: list[dict]) -> list[str]:
    """Name every count, or operator call count, that did not repeat."""
    first = results[0]
    names = REPEATED_COUNTS + tuple(k for k in first if k.startswith("operators.")
                                    and k.endswith(".calls"))
    return [f"repeat check: {k} differs between executions: "
            f"{[r[k] for r in results]}"
            for k in names if any(r[k] != first[k] for r in results[1:])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--program-seed", type=int, default=None,
                        help="seed for the subcommand (default: the bundled "
                             "config's)")
    args = parser.parse_args()

    if not (ROOT / "src" / "bregbayes" / "cli.py").is_file():
        print(f"no bregbayes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, derive_config, load_ini

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    units = metric_units(traced)

    base = ROOT / ".perfbench"
    work = base / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = derive_config(workload, ROOT / "configs", work)
        program_seed = (args.program_seed if args.program_seed is not None
                        else int(load_ini(config)["scenario"]["seed"]))
        # numpy's SeedSequence takes non-negative seeds only
        seeds = (program_seed, args.seed % 2**32)
        start = time.monotonic()
        run_child(workload, config, seeds, work, "warmup", "setup")
        setups = [run_child(workload, config, seeds, work, f"setup{i}", "setup")
                  ["setup_s"] for i in range(SETUP_PROBES)]
        results, durations, failed = [], [], 0
        min_runs = 2 if traced else 1
        while len(durations) < min_runs or (
                time.monotonic() - start + statistics.median(durations)
                <= args.seconds):
            began = time.monotonic()
            try:
                results.append(run_child(workload, config, seeds, work,
                                         f"run{len(durations)}",
                                         "trace" if traced else "run"))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(exc, file=sys.stderr)
                failed += 1
            durations.append(time.monotonic() - began)
        if not results:
            return 1
        failures = [f for r in results for f in r["failures"]]
        if traced:
            failures += repeat_failures(results)
            trace_dir = base / "traces"
            trace_dir.mkdir(exist_ok=True)
            (trace_dir / f"{workload.name}-seed{program_seed}.json").write_text(
                json.dumps({"workload": workload.name,
                            "program_seed": program_seed,
                            "executions": results}, indent=1))
        for f in sorted(set(failures)):
            print(f"check failed: {f}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        values = setups + [r["setup_s"] for r in results] if name == "setup_s" \
            else [r[name] for r in results]
        # counts repeat exactly and stay whole numbers
        value = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": len(durations),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
