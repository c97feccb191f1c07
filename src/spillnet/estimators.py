"""OLS core and the three spillover regression specifications.

All fits report homoskedastic (iid) standard errors and 95% intervals built
as coefficient +/- 1.96 * se. One thin SVD per design matrix gives the rank
check, the coefficients and the standard errors of every outcome column fitted
on it; they agree with the normal equations to well below 1e-9 for the small,
well-conditioned systems used here (<= 4 columns). ``SPECS`` describes the
three specifications and ``design_matrix`` builds the columns of any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubsampleError, ParameterError, SingularModelError, TooFewUnitsError
from .exposure import ExposureProfile, TreatmentVector, compute_exposure
from .graph import Network, distinct

# Coefficient (column) names shared across specifications.
CONST = "const"
TREATED = "treated"
TREATED_NEIGHBORS = "treated_neighbors"
DEGREE = "degree"
DBAR = "dbar"
DBAR_STAR = "dbar_star"

# Relative pivot threshold for declaring a design matrix rank deficient.
RANK_RTOL = 1e-10

Z95 = 1.96


@dataclass(frozen=True)
class RegressionFit:
    """A fitted linear specification with iid standard errors."""

    spec_name: str
    coefficients: dict[str, float]
    se: dict[str, float]
    ci95: dict[str, tuple[float, float]]
    n_used: int
    r_squared: float
    rss: float
    sigma2: float

    def coef(self, name: str) -> float:
        return self.coefficients[name]


def _collinear_columns(x: np.ndarray, names: tuple[str, ...]) -> tuple[str, ...]:
    # a column is flagged when the others reproduce it (relative residual ~ 0)
    flagged = []
    for j in range(x.shape[1]):
        others = np.delete(x, j, axis=1)
        col = x[:, j]
        if others.shape[1] == 0:
            fitted = np.zeros_like(col)
        else:
            fitted = others @ np.linalg.lstsq(others, col, rcond=None)[0]
        scale = np.linalg.norm(col)
        if scale == 0.0 or np.linalg.norm(col - fitted) <= 1e-8 * max(scale, 1.0):
            flagged.append(names[j])
    return tuple(flagged)


def least_squares(x: np.ndarray, ys: np.ndarray,
                  names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares of every column of ``ys`` (n x D) on ``x`` (n x k).

    One thin SVD of x serves all D columns. Returns the coefficients and the
    iid standard errors, both k x D, and the D residual sums of squares.
    Raises SingularModelError naming the collinear columns when x is rank
    deficient, and ParameterError when there are not more rows than columns
    or an entry is not finite.
    """
    n, k = x.shape
    if n <= k:
        raise ParameterError(f"need more rows ({n}) than columns ({k})")
    if not (np.isfinite(x).all() and np.isfinite(ys).all()):
        raise ParameterError("design matrix and outcome must be finite")

    # x = U diag(s) Vt gives the rank check, beta = V diag(1/s) U'y
    # and diag((x'x)^-1) = sum_j (V_ij / s_j)^2
    u_mat, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        cols = _collinear_columns(x, names)
        raise SingularModelError(
            f"design matrix is rank deficient; collinear columns: {', '.join(cols) or 'unknown'}",
            columns=cols,
        )
    beta = vt.T @ (u_mat.T @ ys / s[:, None])
    residuals = ys - x @ beta
    rss = np.einsum("ij,ij->j", residuals, residuals)
    se = np.sqrt(np.outer(np.sum((vt / s[:, None]) ** 2, axis=0), rss / (n - k)))
    return beta, se, rss


def ols(design_matrix: np.ndarray, y: np.ndarray, names: tuple[str, ...],
        spec_name: str = "ols") -> RegressionFit:
    """Least squares of y on the given columns (leading column = constant).

    ``least_squares`` with one outcome column, so it raises the same errors.
    """
    x = np.asarray(design_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ParameterError("design matrix and outcome shapes do not match")
    if len(names) != x.shape[1]:
        raise ParameterError("need one name per design-matrix column")
    beta, se, rss = least_squares(x, y[:, None], names)
    n, k = x.shape
    rss = float(rss[0])
    tss = float(np.sum((y - y.mean()) ** 2))
    coef = dict(zip(names, beta[:, 0].tolist()))
    se_map = dict(zip(names, se[:, 0].tolist()))
    ci = {name: (coef[name] - Z95 * se_map[name], coef[name] + Z95 * se_map[name])
          for name in names}
    return RegressionFit(
        spec_name=spec_name,
        coefficients=coef,
        se=se_map,
        ci95=ci,
        n_used=n,
        r_squared=1.0 - rss / tss if tss > 0 else 0.0,
        rss=rss,
        sigma2=rss / (n - k),
    )


@dataclass(frozen=True)
class Specification:
    """One spillover regression: its columns, the units it fits and its targets.

    ``connected_only`` fits only the units with neighbors; ``min_units`` is
    the fewest fitted units it accepts; ``oracle_fields`` names the
    OracleReport fields of the population direct coefficient, of the
    spillover target and of that target plus its bias.
    """

    columns: tuple[str, ...]
    connected_only: bool
    min_units: int
    slope: str
    oracle_fields: tuple[str, str, str]


SPECS = {
    "t_reg": Specification(
        (CONST, TREATED, TREATED_NEIGHBORS, DEGREE), False, 5,
        TREATED_NEIGHBORS, ("t_direct", "t_spillover", "t_spillover"),
    ),
    "dbar_reg": Specification(
        (CONST, TREATED, DBAR), True, 4,
        DBAR, ("dbar_direct", "dbar_spillover", "dbar_spillover"),
    ),
    "dbar_star_reg": Specification(
        (CONST, TREATED, DBAR_STAR), False, 4,
        DBAR_STAR, ("dbar_star_direct", "dbar_star_weighted", "dbar_star_total"),
    ),
}


def design_matrix(spec_name: str, tr: TreatmentVector,
                  prof: ExposureProfile) -> tuple[np.ndarray, np.ndarray | None]:
    """The regressors of a specification and the units they cover (None: all).

    Raises EmptySubsampleError when a connected-only fit has no units with
    neighbors and TooFewUnitsError when it has fewer than ``min_units``.
    """
    spec = SPECS[spec_name]
    rows = prof.positive if spec.connected_only else None
    if rows is not None and rows.size == 0:
        raise EmptySubsampleError(
            "no units with neighbors; treated fraction is undefined everywhere"
        )
    size = prof.n if rows is None else rows.size
    if size < spec.min_units:
        subsample = " with neighbors" if spec.connected_only else ""
        raise TooFewUnitsError(f"{spec_name} needs at least {spec.min_units} units{subsample}")
    full = {TREATED: tr.d, TREATED_NEIGHBORS: prof.treated_neighbors, DEGREE: prof.degree,
            DBAR_STAR: prof.dbar_star}
    x = np.empty((size, len(spec.columns)))
    for j, name in enumerate(spec.columns):
        if name == CONST:
            x[:, j] = 1.0
        elif name == DBAR:
            x[:, j] = prof.dbar  # exists only on the units with neighbors, this fit's rows
        else:
            x[:, j] = full[name] if rows is None else full[name][rows]
    return x, rows


def fit_specification(spec_name: str, net: Network, tr: TreatmentVector, y: np.ndarray, *,
                      profile: ExposureProfile | None = None) -> RegressionFit:
    """Fit the specification ``SPECS[spec_name]`` of ``y`` on (net, tr).

    ``profile``, the exposure of (net, tr), is computed when not given.
    """
    prof = profile if profile is not None else compute_exposure(net, tr)
    x, rows = design_matrix(spec_name, tr, prof)
    y = np.asarray(y, dtype=float)
    return ols(x, y if rows is None else y[rows], SPECS[spec_name].columns, spec_name=spec_name)


@dataclass(frozen=True)
class StratifiedResult:
    """Per-degree fits plus the strata that could not be fit, with reasons."""

    fits: dict[int, RegressionFit]
    skipped: dict[int, str]


def stratified_regression(net: Network, tr: TreatmentVector, y: np.ndarray, *,
                          profile: ExposureProfile | None = None) -> StratifiedResult:
    """Separate OLS per degree stratum.

    Positive-degree strata regress the outcome on (1, own treatment,
    treated-neighbor count); the degree-0 stratum omits the neighbor count,
    since spillovers do not exist for nodes without neighbors. Strata that
    are too small or degenerate are skipped with a reason, never fatal.
    """
    prof = profile if profile is not None else compute_exposure(net, tr)
    y = np.asarray(y, dtype=float)
    fits: dict[int, RegressionFit] = {}
    skipped: dict[int, str] = {}
    for g in distinct(prof.degree).tolist():
        idx = np.flatnonzero(prof.degree == g)
        if g == 0:
            names = (CONST, TREATED)
            x = np.column_stack([np.ones(idx.size), tr.d[idx].astype(float)])
        else:
            names = (CONST, TREATED, TREATED_NEIGHBORS)
            x = np.column_stack([
                np.ones(idx.size),
                tr.d[idx].astype(float),
                prof.treated_neighbors[idx].astype(float),
            ])
        if idx.size < len(names) + 2:
            skipped[g] = f"only {idx.size} units; need at least {len(names) + 2}"
            continue
        try:
            fits[g] = ols(x, y[idx], names, spec_name="stratified")
        except SingularModelError as exc:
            if TREATED in exc.columns:
                skipped[g] = "no treatment variation"
            elif TREATED_NEIGHBORS in exc.columns:
                skipped[g] = "no exposure variation"
            else:
                skipped[g] = str(exc)
    return StratifiedResult(fits=fits, skipped=skipped)
