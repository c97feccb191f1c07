"""OLS core and the three spillover regression specifications.

All fits report homoskedastic (iid) standard errors and 95% intervals built
as coefficient +/- 1.96 * se. One thin SVD per fit gives the rank check, the
coefficients and the standard errors; they agree with the normal equations to
well below 1e-9 for the small, well-conditioned systems used here (<= 4 columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubsampleError, ParameterError, SingularModelError
from .exposure import ExposureProfile, TreatmentVector, compute_exposure
from .graph import Network

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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.coefficients)

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


def ols(design_matrix: np.ndarray, y: np.ndarray, names: tuple[str, ...],
        spec_name: str = "ols") -> RegressionFit:
    """Least squares of y on the given columns (leading column = constant).

    Raises SingularModelError naming the collinear columns when the matrix is
    rank deficient, and ParameterError when there are not more rows than
    columns or an entry is not finite.
    """
    x = np.asarray(design_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ParameterError("design matrix and outcome shapes do not match")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("design matrix and outcome must be finite")
    n, k = x.shape
    if len(names) != k:
        raise ParameterError("need one name per design-matrix column")
    if n <= k:
        raise ParameterError(f"need more rows ({n}) than columns ({k})")

    # one thin SVD x = U diag(s) Vt gives the rank check, beta = V diag(1/s) U'y
    # and diag((x'x)^-1) = sum_j (V_ij / s_j)^2
    u_mat, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        cols = _collinear_columns(x, names)
        raise SingularModelError(
            f"design matrix is rank deficient; collinear columns: {', '.join(cols) or 'unknown'}",
            columns=cols,
        )

    beta = (u_mat.T @ y / s) @ vt
    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    sigma2 = rss / (n - k)
    se = np.sqrt(sigma2 * np.sum((vt / s[:, None]) ** 2, axis=0))
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0 else 0.0
    coef = dict(zip(names, beta.tolist()))
    se_map = dict(zip(names, se.tolist()))
    ci = {name: (coef[name] - Z95 * se_map[name], coef[name] + Z95 * se_map[name])
          for name in names}
    return RegressionFit(
        spec_name=spec_name,
        coefficients=coef,
        se=se_map,
        ci95=ci,
        n_used=n,
        r_squared=r_squared,
        rss=rss,
        sigma2=sigma2,
    )


def _profile(net: Network, tr: TreatmentVector,
             profile: ExposureProfile | None) -> ExposureProfile:
    return profile if profile is not None else compute_exposure(net, tr)


def t_regression(net: Network, tr: TreatmentVector, y: np.ndarray, *,
                 profile: ExposureProfile | None = None) -> RegressionFit:
    """Outcome on (1, own treatment, treated-neighbor count, degree), all units."""
    if net.n < 5:
        raise ParameterError("t_regression needs at least 5 units")
    prof = _profile(net, tr, profile)
    x = np.column_stack([
        np.ones(net.n),
        tr.d.astype(float),
        prof.treated_neighbors.astype(float),
        prof.degree.astype(float),
    ])
    return ols(x, y, (CONST, TREATED, TREATED_NEIGHBORS, DEGREE), spec_name="t_reg")


def dbar_regression(net: Network, tr: TreatmentVector, y: np.ndarray, *,
                    profile: ExposureProfile | None = None) -> RegressionFit:
    """Outcome on (1, own treatment, treated fraction), positive-degree units only."""
    prof = _profile(net, tr, profile)
    pos = prof.positive
    if pos.size == 0:
        raise EmptySubsampleError("no units with neighbors; treated fraction is undefined everywhere")
    if pos.size < 4:
        raise ParameterError("dbar_regression needs at least 4 units with neighbors")
    y = np.asarray(y, dtype=float)
    x = np.column_stack([
        np.ones(pos.size),
        tr.d[pos].astype(float),
        prof.dbar,
    ])
    return ols(x, y[pos], (CONST, TREATED, DBAR), spec_name="dbar_reg")


def dbar_star_regression(net: Network, tr: TreatmentVector, y: np.ndarray, *,
                         profile: ExposureProfile | None = None) -> RegressionFit:
    """Outcome on (1, own treatment, zero-imputed treated fraction), all units."""
    if net.n < 4:
        raise ParameterError("dbar_star_regression needs at least 4 units")
    prof = _profile(net, tr, profile)
    x = np.column_stack([
        np.ones(net.n),
        tr.d.astype(float),
        prof.dbar_star,
    ])
    return ols(x, y, (CONST, TREATED, DBAR_STAR), spec_name="dbar_star_reg")


# The three specifications: name -> (fit function, spillover slope column, the
# OracleReport fields of the population direct coefficient, of the spillover
# target and of that target plus its bias).
SPECS = {
    "t_reg": (t_regression, TREATED_NEIGHBORS, ("t_direct", "t_spillover", "t_spillover")),
    "dbar_reg": (dbar_regression, DBAR, ("dbar_direct", "dbar_spillover", "dbar_spillover")),
    "dbar_star_reg": (
        dbar_star_regression, DBAR_STAR,
        ("dbar_star_direct", "dbar_star_weighted", "dbar_star_total"),
    ),
}


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
    prof = _profile(net, tr, profile)
    y = np.asarray(y, dtype=float)
    fits: dict[int, RegressionFit] = {}
    skipped: dict[int, str] = {}
    for g in np.unique(prof.degree).tolist():
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
