"""Spans and counts recorded around bregbayes' public functions.

The benchmark never edits the package: it replaces names in the package's
module namespaces with wrappers before running a subcommand. Untraced runs
wrap only the few coarse boundaries the end-to-end metrics need (data
generation, lambda selection, MAP solves, sampling calls); traced runs
wrap every layer boundary below, count operator applications and keep all
spans in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.solves: list = []  # (Posterior, MapResult) per solve_map call
        self.samples: list = []  # the chains of each sample_posterior call

    def wrap(self, name, fn, on_result=None):
        """fn recorded as a span; on_result(args, kwargs, result) after it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.monotonic(), float("nan"),
                        self.stack[-1] if self.stack else -1)
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                self.stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self.stack)

    def total(self, name: str, outside: str | None = None) -> float:
        """Seconds in spans called `name`, not counting nested repeats nor
        spans that run inside a span called `outside`."""
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and not self._has_ancestor(s, name)
                   and not (outside and self._has_ancestor(s, outside)))

    def _has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s, c in zip(self.spans, child_time):
            out[s.name] += (s.end - s.start) - c
        return dict(out)

    def first_end(self, name: str) -> float:
        return next(s.end for s in self.spans if s.name == name)


# operator factories that experiments.py calls by module-global name, and
# the layer name each one's applications are counted under
_OPERATOR_FACTORIES = {
    "gaussian_blur": "blur",
    "radon": "radon",
    "haar_transform": "haar",
    "interval_average_1d": "interval_average",
}
OPERATOR_LAYERS = tuple(_OPERATOR_FACTORIES.values()) + ("diff",)

_SPAN_WRAPPED = {
    # experiments.<name>: span name
    "build_deblur2d": "experiments.build_scenario",
    "build_tv1d": "experiments.build_scenario",
    "build_ct2d": "experiments.build_scenario",
    "adjoint_probe_error": "operators.adjoint_probe",
    "summarize": "sampling.summarize",
    "run_verification": "bayescost.verify",
    "verify_bayes_optimality": "bayescost.optimality_probe",
    "theorem_ineq_check": "bayescost.inequality",
    "centered_energy_check": "bayescost.centered_energy",
    "cm_optimality_check": "bayescost.cm_optimality",
}
_WRITER_METHODS = ("signal", "chain", "json", "text", "finish")


class SetupDone(Exception):
    """Raised after data generation when only set-up is being timed."""


def install(tracer: Tracer, traced: bool, setup_only: bool) -> None:
    """Wrap bregbayes' layer boundaries so calls land in `tracer`."""
    import bregbayes.cli as cli
    import bregbayes.experiments as ex
    import bregbayes.map_solver as ms
    import bregbayes.sampling as sa

    def data_ready(args, kwargs, result):
        if setup_only:
            raise SetupDone

    ex.generate_data = tracer.wrap("experiments.generate_data",
                                   ex.generate_data, data_ready)
    # lambda selection: the s-curve search inside resolve_lambda on the
    # image scenarios, the sqrt rule evaluated inline by the dilemma sweep
    for name in ("resolve_lambda", "lambda_sqrt_rule"):
        setattr(ex, name, tracer.wrap("experiments.lambda_search",
                                      getattr(ex, name)))

    def solved(args, kwargs, result):
        tracer.solves.append((args[0], result))
        tracer.counts["map_solver.solves"] += 1
        tracer.counts["map_solver.outer_iters"] += result.iterations
        tracer.counts["map_solver.unconverged"] += int(not result.converged)
        if tracer.inside("experiments.lambda_search"):
            tracer.counts["experiments.lambda_search_solves"] += 1

    ex.solve_map = tracer.wrap("map_solver.solve_map", ex.solve_map, solved)
    ex.sample_posterior = tracer.wrap(
        "sampling.sample_posterior", ex.sample_posterior,
        lambda args, kwargs, chains: tracer.samples.append(chains))
    if not traced:
        return

    cli.load_config = tracer.wrap("config.load", cli.load_config)
    for name, span in _SPAN_WRAPPED.items():
        setattr(ex, name, tracer.wrap(span, getattr(ex, name)))
    sa.sparse_columns = tracer.wrap("sampling.column_setup", sa.sparse_columns)

    def chain_done(args, kwargs, chain):
        post = args[0]
        sweeps = chain.burn_in + len(chain) * chain.thinning
        tracer.counts["sampling.coord_updates"] += sweeps * post.dim

    for name in ("sample_gibbs", "sample_rwm"):
        setattr(ex, name, tracer.wrap("sampling.chain", getattr(ex, name),
                                      chain_done))
    for name in _WRITER_METHODS:
        setattr(cli._Writer, name,
                tracer.wrap("cli.write", getattr(cli._Writer, name)))

    def counted(layer, fn):
        calls, seconds = f"operators.{layer}.calls", f"operators.{layer}.s"

        def apply(x):
            start = time.monotonic()
            out = fn(x)
            tracer.counts[seconds] += time.monotonic() - start
            tracer.counts[calls] += 1
            if tracer.inside("map_solver.solve_map"):
                tracer.counts["map_solver.operator_calls"] += 1
            return out
        return apply

    def counting_factory(layer, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            op = factory(*args, **kwargs)
            return dataclasses.replace(op, apply=counted(layer, op.apply),
                                       adjoint_apply=counted(layer, op.adjoint_apply))
        return build

    for name, layer in _OPERATOR_FACTORIES.items():
        setattr(ex, name, counting_factory(layer, getattr(ex, name)))
    ms.forward_differences = counting_factory("diff", ms.forward_differences)
