"""Randomized treatment assignment and treated-neighbor exposure counts.

A unit's exposure is two counts: its degree g (``Network.degree``) and its
treated-neighbour count t (``compute_exposure``), both plain int arrays with
one entry per unit. The treated-neighbor *fraction* t/g is undefined for a
unit without neighbors, and is never stored: the scatter CSV leaves its
``dbar`` blank, and the ``dbar_reg`` fit is ``connected_only``. The
zero-imputed fraction ``dbar_star``, t/g where g > 0 and 0 where g = 0, is
what the naive regression uses. Keeping the two apart is deliberate:
conflating them is exactly the practice this package exists to diagnose.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ParameterError
from .graph import DegreeSummary, Network, seeded_rng


def assign_bernoulli(n: int, p: float, seed: int) -> np.ndarray:
    """Draw iid Bernoulli(p) treatments, a 0/1 int64 array, deterministic given ``seed``.

    The generator is PCG64. Assignment reads only (n, p, seed), never the
    network, so treatments are independent of the graph by construction.
    """
    if n < 1:
        raise ParameterError("need at least one unit")
    if not 0.0 < p < 1.0:
        raise ParameterError("treatment probability must lie strictly in (0, 1)")
    rng = seeded_rng(seed)
    return (rng.random(n) < p).astype(np.int64)


def compute_exposure(net: Network, d: np.ndarray) -> np.ndarray:
    """Each node's treated-neighbor count under the treatments ``d``, an int64 array."""
    if d.size != net.n:
        raise ParameterError(f"treatment length {d.size} does not match n={net.n}")
    # each edge counts the far end's treatment at both ends; float sums of 0/1 are exact
    weights = d[np.concatenate([net.v, net.u])].astype(float)
    return np.bincount(np.concatenate([net.u, net.v]), weights=weights,
                       minlength=net.n).astype(np.int64)


def cov_dbar_star_degree_closed_form(summary: DegreeSummary, p: float) -> np.ndarray:
    """Covariance between the zero-imputed treated fraction and degree, per network.

    Evaluated on the empirical degree distribution:
    {E(degree | degree>0) - E(degree)} * p * Pr(degree>0). Strictly positive
    whenever the network mixes isolated and non-isolated nodes; exactly zero
    when it does not.
    """
    gap = summary.mean_degree_positive - summary.mean_degree
    return np.where(summary.n_positive > 0, gap * p * summary.positive_share, 0.0)


def scatter_rows(degree: np.ndarray, t: np.ndarray) -> Iterator[list]:
    """The per-node scatter CSV rows, header first, of the degrees and treated-neighbor counts.

    ``dbar_star`` is t / g, and 0 for an isolated node, whose ``dbar`` is
    left empty; where a node has neighbors its ``dbar`` is its ``dbar_star``.
    """
    dbar_star = t / np.maximum(degree, 1)
    yield ["node", "degree", "dbar", "dbar_star", "isolated"]
    for i, (g, star) in enumerate(zip(degree.tolist(), dbar_star.tolist())):
        yield [i, g, star if g > 0 else "", star, int(g == 0)]
