"""Degree-indexed outcome designs and outcome simulation.

A design is three tabulated functions of degree -- the mean untreated
baseline, the own-treatment (direct) effect, and the per-treated-neighbor
(spillover) effect -- plus a Gaussian noise scale. Outcomes are simulated
from the partially linear form

    Y = baseline(degree) + direct(degree) * D + spillover(degree) * T + noise,

which is exact for any design satisfying neighbor exchangeability, no
own-by-neighbor interaction, and a constant per-neighbor increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigurationError, IngestionError, ParameterError
from .exposure import TreatmentVector, compute_exposure
from .graph import DegreeSummary, Network, nonnegative_int, read_table

DESIGN_IDS = (1, 2, 3)


@dataclass(frozen=True)
class DesignSpec:
    """Tabulated degree-functions defining a data generating process.

    The maps must cover every degree present in the network a spec is applied
    to; ``ConfigurationError`` is raised otherwise. Table values and the noise
    scale must be finite (``ParameterError`` otherwise).
    """

    baseline: Mapping[int, float]
    direct_effect: Mapping[int, float]
    spillover_effect: Mapping[int, float]
    noise_sd: float

    def __post_init__(self):
        if not 0.0 <= self.noise_sd < math.inf:
            raise ParameterError("noise_sd must be finite and nonnegative")
        for table in (self.baseline, self.direct_effect, self.spillover_effect):
            if not all(map(math.isfinite, table.values())):
                raise ParameterError("design table values must be finite")

    def require_degrees(self, degrees: Iterable[int]) -> None:
        missing = sorted(
            {int(g) for g in degrees}
            - (set(self.baseline) & set(self.direct_effect) & set(self.spillover_effect))
        )
        if missing:
            raise ConfigurationError(f"design does not cover degrees {missing}")


@dataclass(frozen=True)
class BuiltinDesign:
    """One of the three built-in designs, scaled by the spillover constant c.

    All three share a unit direct effect and spillover c / (1 + degree); they
    differ only in how strongly the baseline depends on degree:
    design 1 baseline = 1 + degree, design 2 = 1 + 1{degree > 0},
    design 3 = 1 (no degree dependence).
    """

    design_id: int
    c: float = 0.0

    def __post_init__(self):
        if self.design_id not in DESIGN_IDS:
            raise ParameterError(f"unknown design_id {self.design_id}; expected one of {DESIGN_IDS}")


def expand(builtin: BuiltinDesign, degrees: Iterable[int]) -> DesignSpec:
    """Tabulate a built-in design over the given degrees (noise_sd = 1)."""
    degs = sorted({int(g) for g in degrees})
    if any(g < 0 for g in degs):
        raise ParameterError("degrees must be nonnegative")
    if builtin.design_id == 1:
        baseline = {g: 1.0 + g for g in degs}
    elif builtin.design_id == 2:
        baseline = {g: 1.0 + (1.0 if g > 0 else 0.0) for g in degs}
    else:
        baseline = {g: 1.0 for g in degs}
    return DesignSpec(
        baseline=baseline,
        direct_effect={g: 1.0 for g in degs},
        spillover_effect={g: builtin.c / (1.0 + g) for g in degs},
        noise_sd=1.0,
    )


def resolve_design(design: BuiltinDesign | DesignSpec, degrees: Iterable[int]) -> DesignSpec:
    """Expand a built-in design or validate a user spec against the degrees."""
    if isinstance(design, BuiltinDesign):
        return expand(design, degrees)
    design.require_degrees(degrees)
    return design


def _lookup(table: Mapping[int, float], degree: np.ndarray) -> np.ndarray:
    arr = np.zeros(int(degree.max()) + 1)
    for g, val in table.items():
        if g <= degree.max():
            arr[g] = val
    return arr[degree]


def simulate_outcomes(
    net: Network, tr: TreatmentVector, spec: DesignSpec, seed: int
) -> np.ndarray:
    """Simulate outcomes from the partially linear form.

    Noise is iid Normal(0, noise_sd^2), drawn independently of the network
    and treatment; deterministic given ``seed``.
    """
    spec.require_degrees(np.unique(net.degree).tolist())
    profile = compute_exposure(net, tr)
    y = (
        _lookup(spec.baseline, profile.degree)
        + _lookup(spec.direct_effect, profile.degree) * tr.d
        + _lookup(spec.spillover_effect, profile.degree) * profile.treated_neighbors
    )
    if spec.noise_sd > 0:
        y = y + spec.noise_sd * np.random.default_rng(seed).standard_normal(net.n)
    return y


@dataclass(frozen=True)
class EffectGaps:
    """Mean-effect differences between nodes with and without neighbors.

    ``baseline`` is E[baseline(degree) | degree>0] - baseline(0), and
    ``direct`` likewise for the direct effect, both against the empirical
    degree distribution. None when either stratum is empty.
    """

    baseline: float | None
    direct: float | None


def true_effect_deltas(spec: DesignSpec, summary: DegreeSummary) -> EffectGaps:
    """Baseline and direct-effect gaps driving the imputation bias."""
    spec.require_degrees(summary.histogram.keys())
    has_isolated = summary.isolated_fraction > 0
    has_positive = summary.positive_share > 0
    if not (has_isolated and has_positive):
        return EffectGaps(baseline=None, direct=None)
    baseline_gap = summary.expect(lambda g: spec.baseline[g], positive_only=True) - spec.baseline[0]
    direct_gap = (
        summary.expect(lambda g: spec.direct_effect[g], positive_only=True)
        - spec.direct_effect[0]
    )
    return EffectGaps(baseline=baseline_gap, direct=direct_gap)


def load_design_csv(path: str | Path, noise_sd: float) -> DesignSpec:
    """Load a tabulated design from a ``degree,theta00,mu_de,lambda_se`` CSV."""
    columns, lines = read_table(
        path,
        {"degree": nonnegative_int, "theta00": float, "mu_de": float, "lambda_se": float},
        unique="degree",
    )
    if not lines:
        raise IngestionError(f"{path}:1: design file has no rows")
    degrees = columns["degree"]
    return DesignSpec(
        baseline=dict(zip(degrees, columns["theta00"])),
        direct_effect=dict(zip(degrees, columns["mu_de"])),
        spillover_effect=dict(zip(degrees, columns["lambda_se"])),
        noise_sd=noise_sd,
    )
