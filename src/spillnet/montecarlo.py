"""Repeated-simulation harness: graphs, treatments, outcomes, three fits per rep.

Every repetition draws its own seeds from a documented mixing function, so
runs are bit-reproducible from (config) alone, reps are independent, and the
aggregate is identical whether reps execute serially or in a process pool.
"""

from __future__ import annotations

import csv
import hashlib
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .dgp import BuiltinDesign, DesignSpec, resolve_design, simulate_outcomes
from .errors import EmptySubsampleError, ParameterError, SingularModelError
from .estimators import SPECS, TREATED
from .exposure import assign_bernoulli, compute_exposure
from .graph import WS_CALIBRATED, Network, generate_erdos_renyi, generate_watts_strogatz, summarize
from .oracle import oracle_report

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
    design: BuiltinDesign | DesignSpec = field(default_factory=lambda: BuiltinDesign(3, 0.0))
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


def _simulate_rep(config: SimConfig, rep: int):
    """One repetition: returns {cell: (estimate, se, oracle_value, oracle_total)} or a failure reason."""
    graph_rep = rep if config.regenerate_graph_each_rep else 0
    net = config.graph.generate(config.n, derive_seed(config.base_seed, graph_rep, "graph"))
    tr = assign_bernoulli(config.n, config.p, derive_seed(config.base_seed, rep, "treatment"))
    spec = resolve_design(config.design, np.unique(net.degree).tolist())
    y = simulate_outcomes(net, tr, spec, derive_seed(config.base_seed, rep, "noise"))
    profile = compute_exposure(net, tr)
    try:
        fits = {
            name: fit_fn(net, tr, y, profile=profile) for name, (fit_fn, _, _) in SPECS.items()
        }
    except (SingularModelError, EmptySubsampleError, ParameterError) as exc:
        # degenerate draw (rank deficiency or unusable subsample): exclude the rep
        return str(exc)

    report = oracle_report(spec, summarize(net), config.p)
    out = {}
    for name, fit in fits.items():
        _, slope, oracle_fields = SPECS[name]
        direct, value, total = (getattr(report, field) for field in oracle_fields)
        out[(name, "direct")] = (fit.coef(TREATED), fit.se[TREATED], direct, direct)
        out[(name, "spillover")] = (fit.coef(slope), fit.se[slope], value, total)
    return out


def run(config: SimConfig, workers: int = 1) -> AggregateReport:
    """Execute the configured repetitions and aggregate every cell.

    Reps whose fit raises a singularity (or an empty subsample) are excluded
    and logged; more than 1% exclusions triggers a run-level warning.
    Deterministic given the config, including under ``workers > 1``:
    aggregation order is fixed by rep index, not completion order.
    """
    config.validate()
    rep_fn = partial(_simulate_rep, config)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(rep_fn, range(config.reps), chunksize=64))
    else:
        results = [rep_fn(rep) for rep in range(config.reps)]

    exclusions = tuple(
        (rep, res) for rep, res in enumerate(results) if isinstance(res, str)
    )
    completed = [res for res in results if not isinstance(res, str)]
    if not completed:
        raise EmptySubsampleError("every repetition failed; nothing to aggregate")
    if len(exclusions) > 0.01 * config.reps:
        warnings.warn(
            f"{len(exclusions)} of {config.reps} repetitions were excluded",
            stacklevel=2,
        )

    cells = []
    for key in CELLS:
        estimates = np.array([res[key][0] for res in completed])
        ses = np.array([res[key][1] for res in completed])
        oracle_values = np.array([res[key][2] for res in completed])
        oracle_totals = np.array([res[key][3] for res in completed])
        covered = np.abs(estimates - oracle_values) <= 1.96 * ses
        r = estimates.size
        mean_estimate = float(estimates.mean())
        if r > 1:
            mc_se = float(estimates.std(ddof=1) / np.sqrt(r))
            ci_of_mean = (mean_estimate - 1.96 * mc_se, mean_estimate + 1.96 * mc_se)
        else:
            mc_se = None
            ci_of_mean = None
        oracle_value = float(oracle_values.mean())
        cells.append(
            CoefficientSummary(
                spec_name=key[0],
                coef=key[1],
                mean_estimate=mean_estimate,
                mc_se=mc_se,
                mean_reported_se=float(ses.mean()),
                ci95_of_mean=ci_of_mean,
                oracle_value=oracle_value,
                oracle_total=float(oracle_totals.mean()),
                bias=mean_estimate - oracle_value,
                coverage=float(covered.mean()),
            )
        )
    return AggregateReport(
        cells=tuple(cells),
        reps_requested=config.reps,
        reps_completed=len(completed),
        exclusions=exclusions,
        config=config,
    )


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
