"""Randomized treatment assignment and treated-neighbor exposure statistics.

``ExposureProfile`` stores the two counts of each node, its degree and its
treated neighbours. The treated-neighbor *fraction* is undefined for nodes
without neighbors, so ``dbar`` exists only for the positive-degree subsample;
the zero-imputed variant used by the naive regression, ``dbar_star``, is a
separate, full-length array. Both are derived from the counts when first
read. Keeping the two apart is deliberate: conflating them is exactly the
practice this package exists to diagnose.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .graph import DegreeSummary, Network, seeded_rng


@dataclass(frozen=True)
class TreatmentVector:
    """Binary treatment indicators plus the assignment probability."""

    d: np.ndarray
    p: float

    @property
    def n(self) -> int:
        return int(self.d.size)


def assign_bernoulli(n: int, p: float, seed: int) -> TreatmentVector:
    """Draw iid Bernoulli(p) treatments, deterministic given ``seed`` (PCG64).

    Assignment reads only (n, p, seed), never the network, so treatments are
    independent of the graph by construction.
    """
    if n < 1:
        raise ParameterError("need at least one unit")
    if not 0.0 < p < 1.0:
        raise ParameterError("treatment probability must lie strictly in (0, 1)")
    rng = seeded_rng(seed)
    d = (rng.random(n) < p).astype(np.int64)
    return TreatmentVector(d=d, p=p)


@dataclass(frozen=True)
class ExposureProfile:
    """Per-node exposure counts for one (network, treatment) pair.

    ``dbar`` (fraction of treated neighbors) is aligned with ``positive``,
    the sorted indices of nodes that have neighbors; it simply does not exist
    for isolated nodes. ``dbar_star`` is the full-length zero-imputed version.
    The three are computed from ``degree`` and ``treated_neighbors`` when
    first read.
    """

    degree: np.ndarray
    treated_neighbors: np.ndarray

    @property
    def n(self) -> int:
        return int(self.degree.size)

    @property
    def isolated(self) -> np.ndarray:
        return self.degree == 0

    @cached_property
    def positive(self) -> np.ndarray:
        return np.flatnonzero(self.degree > 0)

    @cached_property
    def dbar(self) -> np.ndarray:
        return self.treated_neighbors[self.positive] / self.degree[self.positive]

    @cached_property
    def dbar_star(self) -> np.ndarray:
        dbar_star = np.zeros(self.n, dtype=float)
        dbar_star[self.positive] = self.dbar
        return dbar_star


def compute_exposure(net: Network, tr: TreatmentVector) -> ExposureProfile:
    """Count each node's treated neighbors."""
    if tr.n != net.n:
        raise ParameterError(f"treatment length {tr.n} does not match n={net.n}")
    # each edge counts the far end's treatment at both ends; float sums of 0/1 are exact
    weights = tr.d[np.concatenate([net.v, net.u])].astype(float)
    t = np.bincount(np.concatenate([net.u, net.v]), weights=weights, minlength=net.n).astype(np.int64)
    return ExposureProfile(degree=net.degree, treated_neighbors=t)


def cov_dbar_star_degree_closed_form(summary: DegreeSummary, p: float) -> np.ndarray:
    """Covariance between the zero-imputed treated fraction and degree, per network.

    Evaluated on the empirical degree distribution:
    {E(degree | degree>0) - E(degree)} * p * Pr(degree>0). Strictly positive
    whenever the network mixes isolated and non-isolated nodes; exactly zero
    when it does not.
    """
    gap = summary.mean_degree_positive - summary.mean_degree
    return np.where(summary.n_positive > 0, gap * p * summary.positive_share, 0.0)


def write_scatter_csv(profile: ExposureProfile, path: str | Path) -> None:
    """Write per-node scatter data; ``dbar`` is left empty for isolated nodes.

    Where a node has neighbors its ``dbar`` is its ``dbar_star``.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "degree", "dbar", "dbar_star", "isolated"])
        writer.writerows(
            [i, g, star if g > 0 else "", star, int(g == 0)]
            for i, (g, star) in enumerate(zip(profile.degree.tolist(), profile.dbar_star.tolist()))
        )
