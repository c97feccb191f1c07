"""Repeated-simulation harness: graphs, treatments, outcomes, three fits per rep.

Every repetition draws its own seeds from a documented mixing function, so
runs are bit-reproducible from (config) alone, reps are independent, and the
aggregate is identical whether reps execute serially or in a process pool.
``run_study`` runs settings that differ only in design from one draw per rep,
and processes the reps in blocks: each rep draws alone, then one numpy pass
builds the cells, fits and oracles of the whole block.
"""

from __future__ import annotations

import csv
import hashlib
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

import numpy as np

from .dgp import BuiltinDesign, Design, DesignSpec, design_stack, outcome_cells
from .errors import EmptySubsampleError, ParameterError
from .estimators import SPECS, TREATED, exposure_cells, fit_cells
from .exposure import assign_bernoulli, compute_exposure
from .graph import (
    WS_CALIBRATED, DegreeSummary, Network, generate_erdos_renyi, generate_watts_strogatz,
)
from .oracle import oracle_block

CELLS = tuple((spec_name, coef) for spec_name in SPECS for coef in ("direct", "spillover"))

# The stages a study times, in the order a block runs them: each key of
# ``AggregateReport.timings``.
STAGES = ("generate", "graph_state", "draws", "cells", *(f"fit.{name}" for name in SPECS),
          "aggregate")

# A block holds the largest number of reps whose units number at most this
# (at least one rep), so its unit arrays stay this small beside its edges.
_BLOCK_UNITS = 2**16

RESULTS_COLUMNS = (
    "design", "c", "spec", "coef", "mean_estimate", "true_coef", "bias",
    "ci_low", "ci_high", "coverage", "mc_se", "n_excluded",
)


@dataclass(frozen=True)
class WattsStrogatzGraph:
    """Calibrated small-world generator configuration (see graph.WS_CALIBRATED)."""

    k: int = WS_CALIBRATED["k"]
    beta: float = WS_CALIBRATED["beta"]
    delete_prob: float = WS_CALIBRATED["delete_prob"]

    def generate(self, n: int, seed: int) -> Network:
        return generate_watts_strogatz(n, self.k, self.beta, self.delete_prob, seed)


@dataclass(frozen=True)
class ErdosRenyiGraph:
    """Independent-pair generator configuration."""

    mean_degree: float = 2.0

    def generate(self, n: int, seed: int) -> Network:
        return generate_erdos_renyi(n, self.mean_degree, seed)


GraphModel = WattsStrogatzGraph | ErdosRenyiGraph


@dataclass(frozen=True)
class SimConfig:
    """Full description of one Monte Carlo run."""

    n: int = 1000
    reps: int = 5000
    p: float = 0.5
    design: Design = field(default_factory=lambda: BuiltinDesign(3, 0.0))
    graph: GraphModel = field(default_factory=WattsStrogatzGraph)
    base_seed: int = 0
    regenerate_graph_each_rep: bool = True

    def validate(self) -> None:
        if self.reps < 1:
            raise ParameterError("reps must be at least 1")
        if self.n < 10:
            raise ParameterError("n must be at least 10")
        if not 0.0 < self.p < 1.0:
            raise ParameterError("p must lie strictly in (0, 1)")


GRAPH_KINDS = {"ws": WattsStrogatzGraph, "er": ErdosRenyiGraph}


def graph_to_dict(graph: GraphModel) -> dict[str, Any]:
    """The manifest serialization of a graph model: its ``GRAPH_KINDS`` key, then its fields."""
    kind = next(kind for kind, model in GRAPH_KINDS.items() if isinstance(graph, model))
    return {"kind": kind, **asdict(graph)}


def config_to_dict(config: SimConfig) -> dict[str, Any]:
    """The manifest serialization of a SimConfig, field by field; ``config_from_dict`` inverts it."""
    return {**asdict(config), "graph": graph_to_dict(config.graph)}


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    """Rebuild a SimConfig from its manifest serialization.

    JSON turns the degree keys of a design file's tables into strings; they
    become ints again.
    """
    design = {key: {int(g): v for g, v in value.items()} if isinstance(value, dict) else value
              for key, value in data["design"].items()}
    graph = dict(data["graph"])
    return SimConfig(**{
        **data,
        "design": (BuiltinDesign if "design_id" in design else DesignSpec)(**design),
        "graph": GRAPH_KINDS[graph.pop("kind")](**graph),
    })


def derive_seed(base_seed: int, rep_index: int, stream_tag: str) -> int:
    """Mix (base_seed, rep_index, stream_tag) into a 64-bit seed.

    Uses BLAKE2b over the '|'-joined decimal/string encoding of the inputs,
    truncated to 8 bytes. Distinct tags give independent streams for the
    graph, treatment and noise components of a repetition.
    """
    message = f"{base_seed}|{rep_index}|{stream_tag}".encode()
    return int.from_bytes(hashlib.blake2b(message, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class CoefficientSummary:
    """Aggregated Monte Carlo results for one (specification, coefficient) cell.

    ``oracle_value`` is the per-rep theoretical target averaged over reps (for
    the zero-imputed spillover this is the weighted part, the value a user
    would call the true coefficient); ``oracle_total`` additionally includes
    its bias term and equals ``oracle_value`` for the other cells. ``mc_se``
    and ``ci95_of_mean`` are None when only one rep completed.
    """

    spec_name: str
    coef: str
    mean_estimate: float
    mc_se: float | None
    mean_reported_se: float
    ci95_of_mean: tuple[float, float] | None
    oracle_value: float
    oracle_total: float
    bias: float
    coverage: float


@dataclass(frozen=True)
class AggregateReport:
    """All cells of one run plus the exclusion log.

    ``timings`` holds the run's ``perf_counter`` seconds per ``STAGES``
    entry, summed over its blocks; it is the same for every setting of a
    study and is left out of comparisons, so equal seeds give equal reports.
    """

    cells: tuple[CoefficientSummary, ...]
    reps_requested: int
    reps_completed: int
    exclusions: tuple[tuple[int, str], ...]
    config: SimConfig
    timings: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def n_excluded(self) -> int:
        return len(self.exclusions)

    @property
    def exclusion_counts(self) -> dict[str, int]:
        """The number of excluded reps per reason, in the order the reasons first occur."""
        return dict(Counter(reason for _, reason in self.exclusions))

    def cell(self, spec_name: str, coef: str) -> CoefficientSummary:
        for cell in self.cells:
            if cell.spec_name == spec_name and cell.coef == coef:
                return cell
        raise KeyError((spec_name, coef))


@dataclass(frozen=True)
class _Graphs:
    """What a block of reps derives from its networks alone: the networks, their node
    degrees (one row per network), their degree summary, the settings' design stack
    at the degrees present, and every oracle field (networks x settings)."""

    nets: tuple[Network, ...]
    degree: np.ndarray
    summary: DegreeSummary
    stack: np.ndarray
    oracle: dict[str, np.ndarray]


def _graphs(configs: Sequence[SimConfig], nets: Sequence[Network]) -> _Graphs:
    degree = np.stack([net.degree for net in nets])
    summary = DegreeSummary.of(degree)
    stack = design_stack([config.design for config in configs], summary.degrees)
    return _Graphs(tuple(nets), degree, summary, stack, oracle_block(stack, summary, configs[0].p))


def _block_size(n: int) -> int:
    """Reps per block: the most whose n-unit arrays hold at most ``_BLOCK_UNITS`` units, at
    least one."""
    return max(1, _BLOCK_UNITS // n)


def _simulate_block(configs: Sequence[SimConfig], fixed: _Graphs | None, reps: range):
    """Every setting of the reps ``reps``, and the reasons some are excluded.

    Each rep draws its graph (unless ``fixed`` is the state of the network
    every rep shares), its treatment and its noise from its own seeds. Then
    one pass over the block evaluates the designs and oracles at the degrees
    of its graphs, groups the noise into cells, derives every setting's cell
    means and fits each specification. Returns an array of shape (settings,
    len(CELLS), 4, completed reps) holding each cell's (estimate, se,
    oracle_value, oracle_total), the (rep, reason) of each excluded rep, and
    the seconds spent per stage.
    """
    first = configs[0]
    seconds = {}
    clock = perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        seconds[stage], clock = perf_counter() - clock, perf_counter()

    if fixed is None:
        nets = [first.graph.generate(first.n, derive_seed(first.base_seed, rep, "graph"))
                for rep in reps]
        lap("generate")
        graphs = _graphs(configs, nets)
        lap("graph_state")
    else:
        graphs, nets = fixed, fixed.nets * len(reps)
    # one row per rep, written in place, so that each rep's own arrays are freed
    # before the next rep draws
    d, t = np.empty((2, len(reps), first.n), dtype=np.int64)
    noise = np.empty((len(reps), first.n))
    for i, (rep, net) in enumerate(zip(reps, nets)):
        tr = assign_bernoulli(first.n, first.p, derive_seed(first.base_seed, rep, "treatment"))
        d[i] = tr.d
        t[i] = compute_exposure(net, tr).treated_neighbors
        noise_rng = np.random.default_rng(derive_seed(first.base_seed, rep, "noise"))
        noise_rng.standard_normal(first.n, out=noise[i])
    lap("draws")
    degree = np.broadcast_to(graphs.degree, d.shape)
    # every setting's cell means and sums of squares; raises if a mean is not finite
    cells = outcome_cells(graphs.stack, [config.design.noise_sd for config in configs],
                          graphs.summary, exposure_cells(degree, t, d, noise))
    lap("cells")

    out = np.empty((len(configs), len(CELLS), 4, len(reps)))
    errors = []
    cell = 0  # CELLS lists each spec's direct cell, then its spillover cell
    for name, spec in SPECS.items():
        beta, se, _, spec_errors = fit_cells(name, cells)
        errors.append(spec_errors)
        direct, value, total = (graphs.oracle[f].T for f in spec.oracle_fields)
        for column, target, with_bias in ((TREATED, direct, direct), (spec.slope, value, total)):
            j = spec.columns.index(column)
            out[:, cell, 0] = beta[:, j].T
            out[:, cell, 1] = se[:, j].T
            out[:, cell, 2] = target
            out[:, cell, 3] = with_bias
            cell += 1
        lap(f"fit.{name}")
    # a degenerate draw (rank deficiency or unusable subsample) is excluded with
    # the error of its first failing specification
    reasons = [next((error for error in rep_errors if error is not None), None)
               for rep_errors in zip(*errors)]
    exclusions = [(rep, str(error)) for rep, error in zip(reps, reasons) if error is not None]
    return out[..., [reason is None for reason in reasons]], exclusions, seconds


def _aggregate(configs: Sequence[SimConfig], per_cell: np.ndarray,
               exclusions: tuple[tuple[int, str], ...],
               timings: dict[str, float]) -> list[AggregateReport]:
    """Summarize every setting's (settings, len(CELLS), 4, completed reps) array."""
    # every reduction runs over the contiguous last axis, so each sum keeps the
    # order it has over one cell's reps
    per_cell = np.ascontiguousarray(per_cell)
    estimates, ses, oracle_values, oracle_totals = per_cell.transpose(2, 0, 1, 3)
    r = per_cell.shape[-1]
    mean = estimates.mean(axis=-1)
    oracle_value = oracle_values.mean(axis=-1)
    # with one rep there is no spread; the zeros stand in for the None reported
    mc_se = estimates.std(axis=-1, ddof=1) / np.sqrt(r) if r > 1 else np.zeros_like(mean)
    covered = np.abs(estimates - oracle_values) <= 1.96 * ses
    stats = np.stack([
        mean, mc_se, ses.mean(axis=-1), mean - 1.96 * mc_se, mean + 1.96 * mc_se,
        oracle_value, oracle_totals.mean(axis=-1), mean - oracle_value, covered.mean(axis=-1),
    ], axis=-1).tolist()
    return [
        AggregateReport(
            cells=tuple(
                CoefficientSummary(
                    spec_name, coef, m, se if r > 1 else None, reported,
                    (low, high) if r > 1 else None, value, total, bias, coverage,
                )
                for (spec_name, coef), (m, se, reported, low, high, value, total, bias, coverage)
                in zip(CELLS, setting)
            ),
            reps_requested=config.reps,
            reps_completed=r,
            exclusions=exclusions,
            config=config,
            timings=timings,
        )
        for config, setting in zip(configs, stats)
    ]


def run_study(configs: Sequence[SimConfig], workers: int = 1) -> list[AggregateReport]:
    """Execute settings that differ only in ``design`` (else ParameterError).

    Seeds ignore the design, so each rep draws its graph, treatment and noise
    once for every setting. The reps run in blocks of ``_block_size(n)``: one
    pass over a block evaluates every setting's design once into one stack at
    the degrees its graphs have, computes all their oracles, groups the noise
    into exposure cells, derives every setting's cell means from them
    (``outcome_cells``), and fits each specification once for all settings
    and reps. A rep's numbers do not depend on the other reps of its block.
    Reps whose fit meets a singularity, an empty subsample or too few units
    are excluded and logged, with a warning above 1%. Without
    ``regenerate_graph_each_rep`` one network, with its degree summary, stack
    and oracle, is built per call and shared by every rep. ``workers > 1``
    spreads two or more blocks over a process pool of at most one worker per
    block, with the same result, aggregated in rep order; one block runs
    serially. A worker that ends abruptly, as when the kernel kills it for
    lack of memory, raises MemoryError. Fewer than one worker is a
    ParameterError.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1 (got {workers})")
    configs = tuple(configs)
    if not configs:
        raise ParameterError("a study needs at least one setting")
    first = configs[0]
    for config in configs:
        config.validate()
        differ = [f.name for f in fields(SimConfig)
                  if f.name != "design" and getattr(config, f.name) != getattr(first, f.name)]
        if differ:
            raise ParameterError(
                f"settings of one study may differ only in design, not in {differ}"
            )
    timings = dict.fromkeys(STAGES, 0.0)
    fixed = None
    if not first.regenerate_graph_each_rep:
        # Network is immutable and the seeds ignore the design, so every rep
        # can share the graph rep 0 would draw and all that derives from it
        start = perf_counter()
        net = first.graph.generate(first.n, derive_seed(first.base_seed, 0, "graph"))
        timings["generate"] = perf_counter() - start
        fixed = _graphs(configs, [net])
        timings["graph_state"] = perf_counter() - start - timings["generate"]
    size = _block_size(first.n)
    blocks = [range(start, min(start + size, first.reps)) for start in range(0, first.reps, size)]
    block_fn = partial(_simulate_block, configs, fixed)
    if workers > 1 and len(blocks) > 1:
        # only a pool needs multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
                results = list(pool.map(block_fn, blocks))
        except BrokenProcessPool as exc:  # the kernel ends a worker when memory runs out
            raise MemoryError(f"a worker process ended abruptly ({exc})") from exc
    else:
        results = [block_fn(block) for block in blocks]

    exclusions = tuple(exclusion for _, block_exclusions, _ in results
                       for exclusion in block_exclusions)
    for _, _, seconds in results:
        for stage, value in seconds.items():
            timings[stage] += value
    excluded = len(exclusions)
    if excluded == first.reps:
        raise EmptySubsampleError("every repetition failed; nothing to aggregate")
    if excluded > 0.01 * first.reps:
        warnings.warn(f"{excluded} of {first.reps} repetitions were excluded", stacklevel=2)
    start = perf_counter()
    reports = _aggregate(configs, np.concatenate([values for values, _, _ in results], axis=-1),
                         exclusions, timings)
    timings["aggregate"] = perf_counter() - start  # the reports share this dict
    return reports


def write_results_csv(
    entries: Sequence[tuple[str, str, AggregateReport]], path: str | Path
) -> None:
    """Write aggregated results rows (one per design/c/spec/coefficient).

    ``ci_low``/``ci_high`` are the representative single-experiment interval
    mean_estimate +/- 1.96 * mean reported se, matching how per-fit intervals
    are built; ``mc_se`` is blank for single-rep runs.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for design_label, c_label, report in entries:
            for cell in report.cells:
                half = 1.96 * cell.mean_reported_se
                writer.writerow(
                    [
                        design_label,
                        c_label,
                        cell.spec_name,
                        cell.coef,
                        cell.mean_estimate,
                        cell.oracle_value,
                        cell.bias,
                        cell.mean_estimate - half,
                        cell.mean_estimate + half,
                        cell.coverage,
                        "" if cell.mc_se is None else cell.mc_se,
                        report.n_excluded,
                    ]
                )
