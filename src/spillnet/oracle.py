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

from .dgp import Design, EffectGaps, effect_gaps
from .errors import EmptySubsampleError, ParameterError, SingularModelError
from .estimators import CONST, DBAR, DBAR_STAR, DEGREE, SPECS, TREATED, TREATED_NEIGHBORS
from .graph import DegreeSummary, Network

ENUMERATION_MAX_NODES = 12


@dataclass(frozen=True)
class OracleReport:
    """Population coefficients of the three specifications, plus intermediates.

    Each spillover coefficient is a weighted average of degree-specific
    effects over the empirical degree distribution. ``t_spillover`` averages
    spillover(degree) with ``t_weights``: E[degree * spillover] / E[degree].
    The fraction regression fits the units with neighbors only:
    ``dbar_direct`` = E[direct | degree>0], and ``dbar_spillover`` averages
    degree * spillover(degree) with ``dbar_weights``: E[spillover |
    degree>0] / E[1/degree | degree>0]. ``t_direct`` = ``dbar_star_direct``
    = E[direct]. The zero-imputed slope ``dbar_star_total`` is
    ``dbar_star_weighted + dbar_star_bias``. The weighted part, the value
    that regression is *meant* to estimate and reported as its true
    coefficient, averages degree * spillover(degree) with weights
    proportional to E[dbar * (dbar - E[dbar_star]) | degree] (exact Binomial
    moments). The bias is ``imputation_bias`` of the two gaps: exactly 0
    without isolated nodes or when both gaps are 0. ``dbar_direct`` and the
    spillover fields are None when no node has a neighbor, the gaps when
    either stratum is empty.
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


def t_weights(summary: DegreeSummary) -> np.ndarray:
    """Weights degree / E(degree) applied to spillovers by the count regression.

    One row per network, aligned with ``summary.degrees``; nonnegative, mean
    one under the network's degree distribution, and zero at degree zero:
    nodes without neighbors do not contribute. NaN for a network without
    edges.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(summary.mean_degree > 0, summary.degrees / summary.mean_degree, np.nan)


def dbar_weights(summary: DegreeSummary) -> np.ndarray:
    """Weights (1/degree) / E(1/degree | degree>0) used by the fraction regression.

    One row per network, aligned with the positive degrees,
    ``summary.degrees[summary.positive]``; mean one under the conditional
    distribution, largest for degree-1 nodes. NaN for a network in which no
    node has a neighbor.
    """
    return (1.0 / summary.degrees[summary.positive]) / summary.mean_inverse_degree_positive


def imputation_bias(summary: DegreeSummary, gaps: EffectGaps, p: float) -> np.ndarray:
    """Bias of the zero-imputed spillover slope from the isolated nodes.

    (baseline_gap + p * direct_gap) * (1 - s) / (p * (1 - s) + (1 - p) *
    E[1/degree | degree>0]), with s the positive-degree share of each network
    of ``summary`` and the gaps taken between connected and isolated nodes,
    one row per network (and a column per design, say). Exactly 0 where
    s = 1; NaN where the gaps are undefined.
    """
    s, inv_mean = summary.positive_share, summary.mean_inverse_degree_positive
    bias = ((gaps.baseline + p * gaps.direct) * (1.0 - s)
            / (p * (1.0 - s) + (1.0 - p) * inv_mean))
    return np.where(s == 1.0, 0.0, bias)


def dbar_star_moments(summary: DegreeSummary, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance of the zero-imputed treated fraction, per network.

    mean = p * s and variance = p * s * (p * (1 - s) + (1 - p) *
    E[1/degree | degree>0]) with s the positive-degree share; both follow
    from Binomial neighbor counts. Variance is exactly 0 where s = 0.
    """
    _check_p(p)
    s, inv_mean = summary.positive_share, summary.mean_inverse_degree_positive
    var = p * s * (p * (1.0 - s) + (1.0 - p) * inv_mean)
    return p * s, np.where(s != 0.0, var, 0.0)


def oracle_block(stack: np.ndarray, summary: DegreeSummary, p: float) -> dict[str, np.ndarray]:
    """Every ``OracleReport`` field for D designs and a block of B networks at once.

    ``stack`` holds the designs' tables at ``summary.degrees``, shape
    (3, D, len(degrees)) as ``dgp.design_stack`` builds it. Each field is a
    (B, D) array; the weights, the effect gaps and the bias broadcast over
    both axes. A field undefined for a network (no node with a neighbor, or
    an empty stratum) is NaN in its row. ``OracleReport`` gives the formula
    of each field. A network's row is what it gets alone, since every sum
    over the degrees is a ``DegreeSummary.mean``.
    """
    _check_p(p)
    baseline, direct, spill = stack
    gaps = effect_gaps(summary, baseline, direct)
    s = summary.positive_share
    pos = summary.positive
    g = summary.degrees[pos]
    t_direct = summary.mean(direct)
    # E[dbar * (dbar - E[dbar_star]) | degree = g] for a Binomial(g, p)/g fraction
    factor = p * p + p * (1.0 - p) / g - p * p * s[:, None]
    star_weighted = (summary.mean(g * spill[:, pos] * factor, positive_only=True)
                     / summary.mean(factor, positive_only=True))
    star_bias = imputation_bias(summary, gaps, p)
    mean_star, var_star = dbar_star_moments(summary, p)
    values = dict(
        t_direct=t_direct,
        t_spillover=summary.mean(t_weights(summary)[:, None] * spill),
        dbar_direct=summary.mean(direct[:, pos], positive_only=True),
        dbar_spillover=summary.mean(dbar_weights(summary)[:, None] * g * spill[:, pos],
                                    positive_only=True),
        dbar_star_direct=t_direct,
        dbar_star_bias=star_bias,
        dbar_star_weighted=star_weighted,
        dbar_star_total=star_bias + star_weighted,
        treated_prob=p,
        positive_share=s,
        baseline_gap=gaps.baseline,
        direct_gap=gaps.direct,
        mean_inverse_degree_positive=summary.mean_inverse_degree_positive,
        mean_dbar_star=mean_star,
        var_dbar_star=var_star,
    )
    shape = (summary.counts.shape[0], stack.shape[1])
    return {name: np.broadcast_to(v, shape) for name, v in values.items()}


def oracle_report(design: Design, summary: DegreeSummary, p: float) -> OracleReport:
    """Assemble every theoretical coefficient and intermediate in one record.

    The one-design view of ``oracle_block`` at the first network of
    ``summary``: evaluates the design (checking its coverage) and the effect
    gaps once. A field that is NaN there is None.
    """
    block = oracle_block(design.tables(summary.degrees)[:, None], summary, p)
    return OracleReport(**{
        name: None if np.isnan(v[0, 0]) else float(v[0, 0]) for name, v in block.items()
    })


def enumeration_population_ols(
    net: Network, spec: Design, p: float, which: str
) -> dict[str, float]:
    """Exact population projection coefficients by exhausting all treatments.

    Enumerates every treatment vector with its Bernoulli probability, draws
    the node uniformly (among the units with neighbors for a
    ``connected_only`` specification), builds the exact moment matrices of
    the regressors of ``SPECS[which]`` against the noise-free outcome, and
    solves the projection. Limited to n <= 12 (2^n vectors).
    """
    _check_p(p)
    if which not in SPECS:
        raise ParameterError(f"unknown specification {which!r}; expected one of {tuple(SPECS)}")
    regression = SPECS[which]
    n = net.n
    if n > ENUMERATION_MAX_NODES:
        raise ParameterError(
            f"enumeration limited to n <= {ENUMERATION_MAX_NODES} (got {n})"
        )
    baseline, direct, spill = spec.tables(net.degree)
    degree = net.degree.astype(float)
    a_mat = np.zeros((n, n))
    a_mat[net.u, net.v] = a_mat[net.v, net.u] = 1.0

    codes = np.arange(2**n, dtype=np.uint64)
    d_mat = ((codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(float)
    n_treated = d_mat.sum(axis=1)
    log_prob = n_treated * np.log(p) + (n - n_treated) * np.log1p(-p)
    prob = np.exp(log_prob)

    t_mat = d_mat @ a_mat.T

    y = baseline[None, :] + direct[None, :] * d_mat + spill[None, :] * t_mat

    pos = net.degree > 0
    unit_mask = pos if regression.connected_only else np.ones(n, dtype=bool)
    if not unit_mask.any():
        raise EmptySubsampleError("no units with neighbors to condition on")
    fraction = np.zeros_like(t_mat)  # the treated fraction, imputed as zero where degree = 0
    fraction[:, pos] = t_mat[:, pos] / degree[pos]
    column = {CONST: np.ones_like(d_mat), TREATED: d_mat, TREATED_NEIGHBORS: t_mat,
              DEGREE: np.broadcast_to(degree, d_mat.shape), DBAR: fraction, DBAR_STAR: fraction}
    w = np.stack([column[name][:, unit_mask] for name in regression.columns], axis=-1)
    y_used = y[:, unit_mask]
    m_units = int(unit_mask.sum())
    weights = prob / m_units

    moment = np.einsum("vik,vil,v->kl", w, w, weights)
    target = np.einsum("vik,vi,v->k", w, y_used, weights)

    eigvals = np.linalg.eigvalsh(moment)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        raise SingularModelError(
            f"population moment matrix for {which} is singular", columns=regression.columns
        )
    beta = np.linalg.solve(moment, target)
    return dict(zip(regression.columns, beta.tolist()))
