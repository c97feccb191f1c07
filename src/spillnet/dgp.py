"""Degree-indexed outcome designs and outcome simulation.

A design is three functions of degree -- the mean untreated baseline, the
own-treatment (direct) effect, and the per-treated-neighbor (spillover)
effect -- plus a Gaussian noise scale; ``design.tables(degrees)`` evaluates
them at an array of degrees. Outcomes are simulated from the partially
linear form

    Y = baseline(degree) + direct(degree) * D + spillover(degree) * T + noise,

which is exact for any design satisfying neighbor exchangeability, no
own-by-neighbor interaction, and a constant per-neighbor increment.
``outcome_cells`` gives many designs' outcomes at once as an exposure-cell
table, which is all the fits read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, IngestionError, ParameterError
from .estimators import CellTable
from .graph import DegreeSummary, nonnegative_int, read_table

DESIGN_IDS = (1, 2, 3)


@dataclass(frozen=True)
class DesignSpec:
    """Tabulated degree-functions defining a data generating process.

    The maps must cover every degree present in the network a spec is applied
    to; ``tables`` raises ``ConfigurationError`` otherwise. Table values and
    the noise scale must be finite (``ParameterError`` otherwise).
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

    def tables(self, degrees: np.ndarray) -> np.ndarray:
        """The baseline, direct and spillover rows at ``degrees``, shape (3, len(degrees))."""
        maps = (self.baseline, self.direct_effect, self.spillover_effect)
        keys = np.asarray(degrees).tolist()
        try:
            return np.array([[table[g] for g in keys] for table in maps], dtype=float)
        except KeyError:
            missing = sorted({g for g in keys if not all(g in table for table in maps)})
            raise ConfigurationError(f"design does not cover degrees {missing}") from None


@dataclass(frozen=True)
class BuiltinDesign:
    """One of the three built-in designs, scaled by the spillover constant c.

    All three share a unit direct effect and spillover c / (1 + degree); they
    differ only in how strongly the baseline depends on degree:
    design 1 baseline = 1 + degree, design 2 = 1 + 1{degree > 0},
    design 3 = 1 (no degree dependence). The noise scale is always 1.
    """

    design_id: int
    c: float = 0.0
    noise_sd: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.design_id not in DESIGN_IDS:
            raise ParameterError(f"unknown design_id {self.design_id}; expected one of {DESIGN_IDS}")
        if not math.isfinite(self.c):
            raise ParameterError(f"spillover constant c must be finite (got {self.c})")

    def tables(self, degrees: np.ndarray) -> np.ndarray:
        """The baseline, direct and spillover rows at ``degrees``, shape (3, len(degrees))."""
        g = np.asarray(degrees, dtype=float)
        rows = np.ones((3, g.size))
        if self.design_id == 1:
            rows[0] += g
        elif self.design_id == 2:
            rows[0] += g > 0
        rows[2] = self.c / (1.0 + g)
        return rows


Design = BuiltinDesign | DesignSpec


def design_stack(designs: Sequence[Design], degrees: np.ndarray) -> np.ndarray:
    """Every design's ``tables(degrees)`` in one array of shape (3, len(designs), len(degrees)).

    Row [:, j] holds the baseline, direct and spillover values of
    ``designs[j]``; each design is evaluated once and must cover ``degrees``.
    """
    stack = np.empty((3, len(designs), len(degrees)))
    for j, design in enumerate(designs):
        stack[:, j] = design.tables(degrees)
    return stack


def outcome_cells(
    stack: np.ndarray, noise_sd: Sequence[float], summary: DegreeSummary,
    noise: CellTable,
) -> CellTable:
    """The cell table of D designs' outcomes for one draw or a block of draws, one column
    per design.

    ``noise`` is the cell table of the draws' shared standard-normal noise,
    and ``stack`` the designs' ``design_stack`` at ``summary.degrees``,
    which must hold every cell degree. Within a cell the design part
    baseline + direct * d + spillover * t is constant, so column j's cell
    mean is that part plus ``noise_sd[j]`` times the noise mean, and its
    within-cell sum of squares is ``noise_sd[j]**2`` times the noise's.
    Raises ParameterError when a cell mean is not finite.
    """
    sd = np.asarray(noise_sd, dtype=float)
    baseline, direct, spillover = stack[:, :, np.searchsorted(summary.degrees, noise.degree)]
    part = baseline + direct * noise.treated + spillover * noise.treated_neighbors
    return replace(noise, mean=part.T + noise.mean * sd, within=noise.within * sd**2)


@dataclass(frozen=True)
class EffectGaps:
    """Mean-effect differences between nodes with and without neighbors.

    ``baseline`` is E[baseline(degree) | degree>0] - baseline(0), and
    ``direct`` likewise for the direct effect, both against the empirical
    degree distribution: one row per network, and a column per design for
    tables with a design axis. NaN for a network that lacks either stratum.
    """

    baseline: np.ndarray
    direct: np.ndarray


def effect_gaps(summary: DegreeSummary, baseline: np.ndarray, direct: np.ndarray) -> EffectGaps:
    """Baseline and direct-effect gaps of tables whose last axis is ``summary.degrees``."""
    both = (summary.n_positive > 0) & (summary.n_positive < summary.n)
    pos = summary.positive

    def gap(values: np.ndarray) -> np.ndarray:
        return np.where(both, summary.mean(values[..., pos], positive_only=True) - values[..., 0],
                        np.nan)

    return EffectGaps(baseline=gap(baseline), direct=gap(direct))


def load_design_csv(path: str | Path, noise_sd: float) -> DesignSpec:
    """Load a tabulated design from a ``degree,theta00,mu_de,lambda_se`` CSV."""
    columns, lines, _ = read_table(
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
