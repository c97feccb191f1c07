"""Population regression coefficients implied by a degree distribution.

Each of the three specifications has a closed-form population (projection)
coefficient vector once the degree distribution, the treatment probability
and the design are fixed. This module evaluates those closed forms against
the *realized* empirical degree distribution of a network, which makes them
exact on finite graphs and independent of how the graph was generated.

For small graphs, ``enumeration_population_ols`` computes the same
projection coefficients by brute force -- averaging the exact moment
matrices over all 2^n treatment vectors and a uniformly drawn node -- and
serves as the independent check on every closed form here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgp import DesignSpec, true_effect_deltas
from .errors import EmptySubsampleError, ParameterError, SingularModelError
from .estimators import CONST, DBAR, DBAR_STAR, DEGREE, SPECS, TREATED, TREATED_NEIGHBORS
from .graph import DegreeSummary, Network

ENUMERATION_MAX_NODES = 12

SPEC_NAMES = tuple(SPECS)


@dataclass(frozen=True)
class OracleReport:
    """Theoretical coefficients for all three specifications, plus intermediates.

    ``dbar_star_weighted`` is the weighted average of degree-scaled spillover
    effects that the zero-imputed regression is *meant* to estimate -- the
    value reported as the true coefficient -- while ``dbar_star_bias`` is the
    contamination term added on top of it; their sum is the actual population
    coefficient. Fields are None where undefined (e.g. no positive-degree
    nodes).
    """

    t_direct: float
    t_spillover: float | None
    dbar_direct: float | None
    dbar_spillover: float | None
    dbar_star_direct: float
    dbar_star_bias: float | None
    dbar_star_weighted: float | None
    dbar_star_total: float | None
    treated_prob: float
    positive_share: float
    baseline_gap: float | None
    direct_gap: float | None
    mean_inverse_degree_positive: float | None
    mean_dbar_star: float
    var_dbar_star: float


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ParameterError("treatment probability must lie strictly in (0, 1)")


def t_weights(summary: DegreeSummary) -> dict[int, float]:
    """Weights degree / E(degree) applied to spillovers by the count regression.

    Nonnegative, mean one under the degree distribution, and zero at degree
    zero: nodes without neighbors do not contribute.
    """
    if summary.mean_degree == 0:
        raise ParameterError("weights undefined: no edges in the network")
    return {g: g / summary.mean_degree for g in summary.histogram}


def dbar_weights(summary: DegreeSummary) -> dict[int, float]:
    """Weights (1/degree) / E(1/degree | degree>0) used by the fraction regression.

    Defined over positive degrees only; mean one under the conditional
    distribution, largest for degree-1 nodes.
    """
    inv_mean = summary.mean_inverse_degree_positive
    if inv_mean is None:
        raise ParameterError("weights undefined: no nodes with neighbors")
    return {g: (1.0 / g) / inv_mean for g in summary.histogram if g > 0}


def true_t_coefficients(
    spec: DesignSpec, summary: DegreeSummary, p: float
) -> tuple[float, float | None]:
    """Population (direct, spillover) coefficients of the count regression.

    direct = E[direct_effect(degree)]; spillover = the degree-weighted mean
    of spillover_effect, i.e. E[degree * spillover] / E[degree]. The
    spillover coefficient is None on an all-isolated network.
    """
    _check_p(p)
    spec.require_degrees(summary.histogram.keys())
    direct = summary.expect(lambda g: spec.direct_effect[g])
    if summary.mean_degree == 0:
        return direct, None
    spill = summary.expect(lambda g: g * spec.spillover_effect[g]) / summary.mean_degree
    return direct, spill


def true_dbar_coefficients(
    spec: DesignSpec, summary: DegreeSummary, p: float
) -> tuple[float | None, float | None]:
    """Population (direct, spillover) coefficients of the fraction regression.

    Both condition on degree > 0 (isolated nodes are excluded from the fit):
    direct = E[direct_effect | degree>0], spillover = the inverse-degree
    weighted mean of degree * spillover_effect, which reduces to
    E[spillover | degree>0] / E[1/degree | degree>0]. None when the network
    has no positive-degree nodes.
    """
    _check_p(p)
    spec.require_degrees(summary.histogram.keys())
    if summary.mean_inverse_degree_positive is None:
        return None, None
    direct = summary.expect(lambda g: spec.direct_effect[g], positive_only=True)
    spill = (
        summary.expect(lambda g: spec.spillover_effect[g], positive_only=True)
        / summary.mean_inverse_degree_positive
    )
    return direct, spill


def _dbar_second_moment_factor(g: int, p: float, positive_share: float) -> float:
    # E[dbar * (dbar - E[dbar_star]) | degree = g] for a Binomial(g, p)/g fraction
    return p * p + p * (1.0 - p) / g - p * p * positive_share


def imputation_bias(
    baseline_gap: float | None, direct_gap: float | None, p: float,
    positive_share: float, mean_inverse_degree_positive: float | None,
) -> float | None:
    """Bias of the zero-imputed spillover slope from the isolated nodes.

    (baseline_gap + p * direct_gap) * (1 - s) / (p * (1 - s) + (1 - p) *
    E[1/degree | degree>0]), with s the positive-degree share and the gaps
    taken between connected and isolated nodes. Exactly 0 when s = 1; None
    when the gaps are undefined.
    """
    if positive_share == 1.0:
        return 0.0
    if baseline_gap is None or direct_gap is None:
        return None
    s, inv_mean = positive_share, mean_inverse_degree_positive
    return (baseline_gap + p * direct_gap) * (1.0 - s) / (p * (1.0 - s) + (1.0 - p) * inv_mean)


def true_dbar_star_coefficients(
    spec: DesignSpec, summary: DegreeSummary, p: float
) -> tuple[float, float | None, float | None]:
    """Population (direct, bias, weighted) parts of the zero-imputed regression.

    The spillover coefficient decomposes into ``bias + weighted``. The bias
    is ``imputation_bias`` of the design's gaps; it vanishes exactly when
    s = 1 or when both gaps are zero. The weighted part averages
    degree * spillover_effect with weights proportional to
    E[dbar * (dbar - mean of the imputed fraction) | degree], evaluated with
    exact Binomial moments. Bias and weighted are None when every node is
    isolated (the imputed fraction is then identically zero).
    """
    _check_p(p)
    spec.require_degrees(summary.histogram.keys())
    direct = summary.expect(lambda g: spec.direct_effect[g])
    s = summary.positive_share
    if s == 0.0:
        return direct, None, None

    factor = lambda g: _dbar_second_moment_factor(g, p, s)
    weighted = (
        summary.expect(lambda g: g * spec.spillover_effect[g] * factor(g), positive_only=True)
        / summary.expect(factor, positive_only=True)
    )
    gaps = true_effect_deltas(spec, summary)
    bias = imputation_bias(gaps.baseline, gaps.direct, p, s, summary.mean_inverse_degree_positive)
    return direct, bias, weighted


def dbar_star_moments(summary: DegreeSummary, p: float) -> tuple[float, float]:
    """Exact mean and variance of the zero-imputed treated fraction.

    mean = p * s and variance = p * s * (p * (1 - s) + (1 - p) *
    E[1/degree | degree>0]) with s the positive-degree share; both follow
    from Binomial neighbor counts. Variance is exactly 0 when s = 0.
    """
    _check_p(p)
    s = summary.positive_share
    if s == 0.0:
        return 0.0, 0.0
    inv_mean = summary.mean_inverse_degree_positive
    return p * s, p * s * (p * (1.0 - s) + (1.0 - p) * inv_mean)


def oracle_report(spec: DesignSpec, summary: DegreeSummary, p: float) -> OracleReport:
    """Assemble every theoretical coefficient and intermediate in one record."""
    t_direct, t_spill = true_t_coefficients(spec, summary, p)
    dbar_direct, dbar_spill = true_dbar_coefficients(spec, summary, p)
    star_direct, star_bias, star_weighted = true_dbar_star_coefficients(spec, summary, p)
    gaps = true_effect_deltas(spec, summary)
    mean_star, var_star = dbar_star_moments(summary, p)
    total = None if star_bias is None else star_bias + star_weighted
    return OracleReport(
        t_direct=t_direct,
        t_spillover=t_spill,
        dbar_direct=dbar_direct,
        dbar_spillover=dbar_spill,
        dbar_star_direct=star_direct,
        dbar_star_bias=star_bias,
        dbar_star_weighted=star_weighted,
        dbar_star_total=total,
        treated_prob=p,
        positive_share=summary.positive_share,
        baseline_gap=gaps.baseline,
        direct_gap=gaps.direct,
        mean_inverse_degree_positive=summary.mean_inverse_degree_positive,
        mean_dbar_star=mean_star,
        var_dbar_star=var_star,
    )


def enumeration_population_ols(
    net: Network, spec: DesignSpec, p: float, which: str
) -> dict[str, float]:
    """Exact population projection coefficients by exhausting all treatments.

    Enumerates every treatment vector with its Bernoulli probability, draws
    the node uniformly (conditioned on degree > 0 for ``dbar_reg``), builds
    the exact moment matrices of the chosen specification's regressors
    against the noise-free outcome, and solves the projection. Limited to
    n <= 12 (2^n vectors).
    """
    _check_p(p)
    if which not in SPEC_NAMES:
        raise ParameterError(f"unknown specification {which!r}; expected one of {SPEC_NAMES}")
    n = net.n
    if n > ENUMERATION_MAX_NODES:
        raise ParameterError(
            f"enumeration limited to n <= {ENUMERATION_MAX_NODES} (got {n})"
        )
    spec.require_degrees(np.unique(net.degree).tolist())

    degree = net.degree.astype(float)
    adjacency = np.zeros((n, n))
    for i, nbrs in enumerate(net.adjacency):
        adjacency[i, list(nbrs)] = 1.0

    codes = np.arange(2**n, dtype=np.uint64)
    d_mat = ((codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(float)
    n_treated = d_mat.sum(axis=1)
    log_prob = n_treated * np.log(p) + (n - n_treated) * np.log1p(-p)
    prob = np.exp(log_prob)

    t_mat = d_mat @ adjacency.T

    baseline = np.array([spec.baseline[int(g)] for g in degree])
    direct = np.array([spec.direct_effect[int(g)] for g in degree])
    spill = np.array([spec.spillover_effect[int(g)] for g in degree])
    y = baseline[None, :] + direct[None, :] * d_mat + spill[None, :] * t_mat

    if which == "t_reg":
        names = (CONST, TREATED, TREATED_NEIGHBORS, DEGREE)
        cols = [np.ones_like(d_mat), d_mat, t_mat, np.broadcast_to(degree, d_mat.shape)]
        unit_mask = np.ones(n, dtype=bool)
    elif which == "dbar_reg":
        unit_mask = net.degree > 0
        if not unit_mask.any():
            raise EmptySubsampleError("no units with neighbors to condition on")
        names = (CONST, TREATED, DBAR)
        dbar = t_mat[:, unit_mask] / degree[unit_mask]
        cols = [np.ones_like(dbar), d_mat[:, unit_mask], dbar]
    else:
        names = (CONST, TREATED, DBAR_STAR)
        dbar_star = np.zeros_like(t_mat)
        pos = net.degree > 0
        dbar_star[:, pos] = t_mat[:, pos] / degree[pos]
        cols = [np.ones_like(d_mat), d_mat, dbar_star]
        unit_mask = np.ones(n, dtype=bool)

    w = np.stack([c[:, unit_mask] if c.shape[1] == n else c for c in cols], axis=-1)
    y_used = y[:, unit_mask]
    m_units = int(unit_mask.sum())
    weights = prob / m_units

    moment = np.einsum("vik,vil,v->kl", w, w, weights)
    target = np.einsum("vik,vi,v->k", w, y_used, weights)

    eigvals = np.linalg.eigvalsh(moment)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        raise SingularModelError(
            f"population moment matrix for {which} is singular", columns=names
        )
    beta = np.linalg.solve(moment, target)
    return dict(zip(names, beta.tolist()))
