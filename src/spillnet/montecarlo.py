"""Repeated-simulation harness: graphs, treatments, outcomes, three fits per rep.

Every repetition draws its own seeds from a documented mixing function, so
runs are bit-reproducible from (config) alone, reps are independent, and the
aggregate is identical whether reps execute serially or in a process pool.
``run_study`` runs settings that differ only in design from one draw per rep.
"""

from __future__ import annotations

import csv
import hashlib
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .dgp import BuiltinDesign, Design, DesignSpec, design_stack, outcome_cells
from .errors import DEGENERATE_FIT_ERRORS, EmptySubsampleError, ParameterError
from .estimators import SPECS, TREATED, cell_design, cell_table, least_squares
from .exposure import assign_bernoulli
from .graph import (
    WS_CALIBRATED, DegreeSummary, Network, generate_erdos_renyi, generate_watts_strogatz, summarize,
)
from .oracle import oracle_columns

CELLS = tuple((spec_name, coef) for spec_name in SPECS for coef in ("direct", "spillover"))

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
    """All cells of one run plus the exclusion log."""

    cells: tuple[CoefficientSummary, ...]
    reps_requested: int
    reps_completed: int
    exclusions: tuple[tuple[int, str], ...]
    config: SimConfig

    @property
    def n_excluded(self) -> int:
        return len(self.exclusions)

    def cell(self, spec_name: str, coef: str) -> CoefficientSummary:
        for cell in self.cells:
            if cell.spec_name == spec_name and cell.coef == coef:
                return cell
        raise KeyError((spec_name, coef))


@dataclass(frozen=True)
class _GraphState:
    """What a rep derives from its network alone: the degree summary, and the
    settings' design stack and oracle columns at its degrees."""

    net: Network
    summary: DegreeSummary
    stack: np.ndarray
    oracle: dict[str, np.ndarray | None]


def _graph_state(configs: Sequence[SimConfig], net: Network) -> _GraphState:
    summary = summarize(net)
    stack = design_stack([config.design for config in configs], summary.degrees)
    return _GraphState(net, summary, stack, oracle_columns(stack, summary, configs[0].p))


def _simulate_rep(configs: Sequence[SimConfig], fixed: _GraphState | None, rep: int):
    """One repetition of every setting, or the reason it is excluded.

    Returns an array of shape (settings, len(CELLS), 4) holding each cell's
    (estimate, se, oracle_value, oracle_total). ``fixed`` is the state of
    the network shared by every rep, or None to draw one per rep.
    """
    first = configs[0]
    if fixed is None:
        net = first.graph.generate(first.n, derive_seed(first.base_seed, rep, "graph"))
        state = _graph_state(configs, net)
    else:
        state = fixed
    tr = assign_bernoulli(first.n, first.p, derive_seed(first.base_seed, rep, "treatment"))
    noise_rng = np.random.default_rng(derive_seed(first.base_seed, rep, "noise"))
    noise = cell_table(state.net, tr, noise_rng.standard_normal(first.n))
    # every setting's cell means and sums of squares; raises if a mean is not finite
    cells = outcome_cells(state.stack, [config.design.noise_sd for config in configs],
                          state.summary, noise)
    fits = []
    try:
        for name, spec in SPECS.items():
            x, rows = cell_design(name, cells)
            fits.append(least_squares(x, cells.mean[rows], spec.columns, cells.count[rows],
                                      cells.within[rows]))
    except DEGENERATE_FIT_ERRORS as exc:
        # degenerate draw (rank deficiency or unusable subsample): exclude the rep
        return str(exc)

    out = np.empty((len(configs), len(CELLS), 4))
    cell = 0  # CELLS lists each spec's direct cell, then its spillover cell
    for spec, (beta, se, _) in zip(SPECS.values(), fits):
        direct, value, total = (state.oracle[f] for f in spec.oracle_fields)
        for column, target, with_bias in ((TREATED, direct, direct), (spec.slope, value, total)):
            j = spec.columns.index(column)
            out[:, cell, 0] = beta[j]
            out[:, cell, 1] = se[j]
            out[:, cell, 2] = target
            out[:, cell, 3] = with_bias
            cell += 1
    return out


def _aggregate(configs: Sequence[SimConfig], results: list) -> list[AggregateReport]:
    """Summarize every setting's per-rep (settings, len(CELLS), 4) arrays and exclusion reasons."""
    exclusions = tuple(
        (rep, res) for rep, res in enumerate(results) if isinstance(res, str)
    )
    # (settings, cells, 4, reps): every reduction runs over the contiguous last
    # axis, so each sum keeps the order it has over one cell's reps
    per_cell = np.stack([res for res in results if not isinstance(res, str)], axis=-1)
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
        )
        for config, setting in zip(configs, stats)
    ]


def run_study(configs: Sequence[SimConfig], workers: int = 1) -> list[AggregateReport]:
    """Execute settings that differ only in ``design`` (else ParameterError).

    Seeds ignore the design, so each rep draws its graph, treatment and noise
    once for every setting, evaluates every setting's design once into one
    stack, computes all their oracles in one pass, groups the noise into
    exposure cells once, derives every setting's cell means from it
    (``outcome_cells``), and fits each specification once for all settings
    on those cells. Reps whose fit meets a singularity, an empty subsample
    or too few units are excluded and logged, with a warning above 1%. Without
    ``regenerate_graph_each_rep`` one network, with its summary, stack and
    oracle, is built per call and shared by every rep. ``workers > 1``
    spreads reps over a process pool with the same result, aggregated in rep
    order; fewer than one worker is a ParameterError.
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
    fixed = None
    if not first.regenerate_graph_each_rep:
        # Network is immutable and the seeds ignore the design, so every rep
        # can share the graph rep 0 would draw and all that derives from it
        net = first.graph.generate(first.n, derive_seed(first.base_seed, 0, "graph"))
        fixed = _graph_state(configs, net)
    rep_fn = partial(_simulate_rep, configs, fixed)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(rep_fn, range(first.reps), chunksize=64))
    else:
        results = [rep_fn(rep) for rep in range(first.reps)]

    excluded = sum(isinstance(res, str) for res in results)
    if excluded == first.reps:
        raise EmptySubsampleError("every repetition failed; nothing to aggregate")
    if excluded > 0.01 * first.reps:
        warnings.warn(f"{excluded} of {first.reps} repetitions were excluded", stacklevel=2)
    return _aggregate(configs, results)


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
