"""Span tracing of spillnet from outside its source, and the per-layer metrics.

``install`` replaces, at run time, every name one spillnet module imported
from another (``spillnet.montecarlo.compute_exposure``,
``spillnet.cli.from_edge_list``, ...) with a wrapper that records a span.
It also wraps ``estimators.ols``, which the specifications call inside their
own module, and the lazily computed ``Network`` properties, which are graph
work done wherever they are first read. No spillnet file changes. Spans stay
in memory as ``[name, start, end, parent, key]`` lists and are written out
once the command has finished; ``layer_metrics`` turns them into self times
and counts.

The wrappers do not cross a process pool, so traced commands run with
``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("graph", "exposure", "dgp", "estimators", "oracle", "montecarlo", "cli")
ROOT = "cli.main"
GENERATE = "graph.generate_"


class Tracer:
    """Records nested spans of one single-threaded command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, record_args: bool = False):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            key = repr((args, sorted(kwargs.items()))) if record_args else None
            span = [name, perf_counter(), None, stack[-1], key]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced


def install(tracer: Tracer):
    """Wrap spillnet's cross-module calls; returns the traced ``cli.main``."""
    modules = {layer: importlib.import_module(f"spillnet.{layer}") for layer in LAYERS}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj):
                continue
            owner = obj.__module__ or ""
            if owner.startswith("spillnet.") and owner != module.__name__:
                name = f"{owner.split('.')[1]}.{obj.__name__}"
                setattr(module, attr, tracer.wrap(name, obj, record_args=name.startswith(GENERATE)))
    estimators = modules["estimators"]
    estimators.ols = tracer.wrap("estimators.ols", estimators.ols)
    network = modules["graph"].Network
    for attr, prop in list(vars(network).items()):
        if isinstance(prop, functools.cached_property):
            wrapped = functools.cached_property(tracer.wrap(f"graph.Network.{attr}", prop.func))
            wrapped.__set_name__(network, attr)
            setattr(network, attr, wrapped)
    return tracer.wrap(ROOT, modules["cli"].main)


# Per-layer metrics: name -> unit. "per op" divides by the operations of one
# command (Monte Carlo reps summed over settings; one for audit).
PER_LAYER_UNITS = {
    "graph.generate.self_ms": "ms",
    "graph.generate.calls": "count",
    "graph.generate.unique_share": "ratio",
    "graph.from_edge_list.self_s": "s",
    "graph.summarize.self_ms": "ms",
    "exposure.compute_exposure.self_ms": "ms",
    "exposure.compute_exposure.calls_per_rep": "calls/rep",
    "exposure.assign_bernoulli.self_ms": "ms",
    "dgp.simulate_outcomes.self_ms": "ms",
    "dgp.resolve_design.self_ms": "ms",
    "estimators.ols.self_ms": "ms",
    "estimators.ols.calls_per_rep": "calls/rep",
    "estimators.stratified_regression.self_s": "s",
    "oracle.oracle_report.self_ms": "ms",
    "montecarlo.run.self_s": "s",
    "montecarlo.excluded_reps": "count",
    "cli.input_bytes": "B",
    "trace.overhead_share": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# Metrics that are counts, not timings: they must repeat exactly between
# two traced commands on the same inputs.
EXACT = (
    "graph.generate.calls",
    "graph.generate.unique_share",
    "exposure.compute_exposure.calls_per_rep",
    "estimators.ols.calls_per_rep",
    "montecarlo.excluded_reps",
    "cli.input_bytes",
)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Timings and counts of one traced command, except the two that need
    its outputs or an untraced twin (excluded reps, input bytes, overhead)."""
    roots = [s for s in spans if s[0] == ROOT and s[3] == -1]
    if len(roots) != 1 or any(s[2] is None for s in spans):
        raise ValueError("trace must hold exactly one finished cli.main span")
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_by_name[span[0]] += own
        calls[span[0]] += 1
    generate = [s for s in spans if s[0].startswith(GENERATE)]

    def self_of(prefix: str) -> float:
        return sum(t for name, t in self_by_name.items() if name.startswith(prefix))

    out = {
        "graph.generate.self_ms": 1e3 * self_of(GENERATE) / ops,
        "graph.generate.calls": len(generate),
        "graph.generate.unique_share": (
            len({s[4] for s in generate}) / len(generate) if generate else 0.0
        ),
        "graph.from_edge_list.self_s": self_by_name["graph.from_edge_list"],
        "graph.summarize.self_ms": 1e3 * self_by_name["graph.summarize"] / ops,
        "exposure.compute_exposure.self_ms": 1e3 * self_by_name["exposure.compute_exposure"] / ops,
        "exposure.compute_exposure.calls_per_rep": calls["exposure.compute_exposure"] / ops,
        "exposure.assign_bernoulli.self_ms": 1e3 * self_by_name["exposure.assign_bernoulli"] / ops,
        "dgp.simulate_outcomes.self_ms": 1e3 * self_by_name["dgp.simulate_outcomes"] / ops,
        "dgp.resolve_design.self_ms": 1e3 * self_by_name["dgp.resolve_design"] / ops,
        "estimators.ols.self_ms": 1e3 * self_by_name["estimators.ols"] / ops,
        "estimators.ols.calls_per_rep": calls["estimators.ols"] / ops,
        "estimators.stratified_regression.self_s": self_by_name["estimators.stratified_regression"],
        "oracle.oracle_report.self_ms": 1e3 * self_by_name["oracle.oracle_report"] / ops,
        "montecarlo.run.self_s": self_by_name["montecarlo.run"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_of(f"{layer}.")
    return out
