"""Exposure cells and their diagnostics, the OLS core and the three spillover regressions.

Every regressor of the three specifications is a function of a unit's own
treatment d, its treated-neighbour count t and its degree g, so OLS on the
units is weighted least squares on the occupied (g, t, d) cells:
``exposure_cells`` groups the units of one rep, or of a block of reps, into
those cells with each cell's unit count, mean outcome and within-cell sum of
squares (``cell_table(net, tr, y)`` is its one-rep call), and every fit
takes that table as its one input and solves that small system, whatever
the number of units. ``fit_cells`` fits a specification on every rep of a
table, one stacked SVD per cell count; ``least_squares`` is the same solver
for one problem: one thin SVD of the weighted rows gives the rank check,
the coefficients and the iid standard errors of every outcome column, with
95% intervals built as coefficient +/- 1.96 * se. ``SPECS`` describes the
three specifications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubsampleError, ParameterError, SingularModelError, TooFewUnitsError
from .exposure import TreatmentVector, compute_exposure
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


# Column of each regressor in ``CellTable.regressors``. One treated-fraction
# column serves both fractions: it is t/g where g > 0, and 0 where g = 0.
CELL_COLUMNS = {CONST: 0, TREATED: 1, TREATED_NEIGHBORS: 2, DEGREE: 3, DBAR: 4, DBAR_STAR: 4}


@dataclass(frozen=True)
class CellTable:
    """Units grouped by (rep, degree, treated-neighbour count, own treatment).

    Cell c holds ``count[c]`` units of degree ``degree[c]``; row c of
    ``regressors`` holds their regressors (1, d, t, g, t/g), laid out by
    ``CELL_COLUMNS``. ``mean[c]`` is their mean outcome and ``within[c]``
    the sum of squared deviations from it, one column per outcome
    (cells x D). Only occupied cells appear, sorted by (rep, degree, treated
    neighbours, treatment); rep b's cells are rows ``bounds[b]`` to
    ``bounds[b + 1]``, and a one-rep table has ``bounds`` [0, cells]. Raises
    ParameterError when a mean or sum of squares is not finite.
    """

    degree: np.ndarray
    regressors: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    within: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean).all() and np.isfinite(self.within).all()):
            raise ParameterError("outcome must be finite")

    @property
    def treated(self) -> np.ndarray:
        """Each cell's own treatment d."""
        return self.regressors[:, CELL_COLUMNS[TREATED]]

    @property
    def treated_neighbors(self) -> np.ndarray:
        """Each cell's treated-neighbour count t."""
        return self.regressors[:, CELL_COLUMNS[TREATED_NEIGHBORS]]


def exposure_cells(degree: np.ndarray, treated_neighbors: np.ndarray, d: np.ndarray,
                   y: np.ndarray) -> CellTable:
    """The exposure cells of one rep, or of a block of reps, and the outcome ``y`` in them.

    The four arrays give each unit's degree, treated-neighbour count,
    treatment and outcome: 1-D for one rep, or (reps, n) with one row per
    rep. One ``bincount`` over a dense key counts the cells: in each rep,
    each degree present gets a block of 2 (degree + 1) keys, one per
    (treated neighbours, treatment), and rep b's keys follow rep b - 1's, so
    the key range is at most 2 (n + 2 |E|) summed over the reps. Each cell's
    sums run over its units in order, so a rep's cells do not depend on the
    other reps of its block. Raises ParameterError when the arrays
    differ in shape or hold no unit, or a treatment is not 0 or 1.
    """
    degree, treated_neighbors, d = (np.atleast_2d(a) for a in (degree, treated_neighbors, d))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if not degree.shape == treated_neighbors.shape == d.shape == y.shape or y.size == 0:
        raise ParameterError("network, treatment and outcome must cover the same units")
    if not ((d == 0) | (d == 1)).all():
        raise ParameterError("treatment must be 0 or 1")
    reps = degree.shape[0]
    width = int(degree.max()) + 1
    # slot (b, g) = b * width + g; its block of keys starts at start[slot], and
    # a degree absent from rep b has an empty block
    slot = degree + (np.arange(reps) * width)[:, None]
    present = np.bincount(slot.ravel(), minlength=reps * width) > 0
    block = np.where(present, 2 * (np.arange(reps * width) % width + 1), 0)
    end = np.cumsum(block)
    start = end - block
    # key = start + 2 t + d, in place since a block's unit arrays are large; np.take
    # may write over its own indices, as with mode="clip" it is unbuffered and reads
    # each index before it writes that entry
    key = np.take(start, slot, out=slot, mode="clip")
    key += treated_neighbors
    key += treated_neighbors
    key += d.astype(np.int64, copy=False)
    key = key.ravel()
    count = np.bincount(key, minlength=end[-1])
    occupied = np.flatnonzero(count)
    slots = np.searchsorted(end, occupied, side="right")
    rep, cell_degree = np.divmod(slots, width)
    local = occupied - start[slots]
    t = local >> 1
    regressors = np.column_stack([np.ones(occupied.size), local & 1, t, cell_degree,
                                  t / np.maximum(cell_degree, 1)])
    rank = np.zeros(end[-1], dtype=np.int64)  # each key's index among the occupied cells
    rank[occupied] = np.arange(occupied.size)
    cell = np.take(rank, key, out=key, mode="clip")
    count = count[occupied]
    y = y.ravel()
    mean = np.bincount(cell, weights=y, minlength=count.size) / count
    deviation = mean[cell]
    np.subtract(y, deviation, out=deviation)
    deviation *= deviation
    within = np.bincount(cell, weights=deviation, minlength=count.size)
    return CellTable(cell_degree, regressors, count, mean[:, None], within[:, None],
                     np.searchsorted(rep, np.arange(reps + 1)))


def cell_table(net: Network, tr: TreatmentVector, y: np.ndarray) -> CellTable:
    """The exposure cells of (net, tr) and the outcome ``y`` in them (one column).

    Counts the treated neighbours (``compute_exposure``), then calls
    ``exposure_cells`` for this one rep.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (net.n,) or tr.n != net.n or net.n == 0:
        raise ParameterError("network, treatment and outcome must cover the same units")
    profile = compute_exposure(net, tr)
    return exposure_cells(profile.degree, profile.treated_neighbors, tr.d, y)


@dataclass(frozen=True)
class ExposureDiagnostics:
    """Sample covariances / r-squared between degree and treated fractions.

    Fields are None when undefined (empty subsample, or an r-squared whose
    underlying variance is zero).
    """

    cov_dbar_degree_on_positive: float | None
    cov_dbar_star_degree: float
    r2_dbar: float | None
    r2_dbar_star: float | None


def _cov(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    # population (1/n) convention, matching the linear-projection algebra
    n = weights.sum()
    return float(weights @ ((x - weights @ x / n) * (y - weights @ y / n)) / n)


def _r2(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float | None:
    vx = _cov(x, x, weights)
    vy = _cov(y, y, weights)
    if vx == 0.0 or vy == 0.0:
        return None
    return _cov(x, y, weights) ** 2 / (vx * vy)


def empirical_exposure_diagnostics(cells: CellTable) -> ExposureDiagnostics:
    """Sample covariance and squared-correlation diagnostics for one draw.

    Each unit-level moment is a count-weighted sum over the cells, in their
    sorted order, so the result does not depend on the order of the units.
    """
    weights = cells.count.astype(float)
    degree = cells.degree.astype(float)
    fraction = cells.regressors[:, CELL_COLUMNS[DBAR_STAR]]
    pos = slice(int(np.searchsorted(cells.degree, 1)), None)  # cells are sorted by degree
    connected = (degree[pos], fraction[pos], weights[pos])
    return ExposureDiagnostics(
        cov_dbar_degree_on_positive=_cov(*connected) if connected[2].size else None,
        cov_dbar_star_degree=_cov(degree, fraction, weights),
        r2_dbar=_r2(*connected) if connected[2].size else None,
        r2_dbar_star=_r2(degree, fraction, weights),
    )


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


def _rank_error(x: np.ndarray, weights: np.ndarray, names: tuple[str, ...]) -> SingularModelError:
    """The error of a rank-deficient problem, naming the columns the others reproduce."""
    cols = _collinear_columns(np.sqrt(weights)[:, None] * x, names)
    return SingularModelError(
        f"design matrix is rank deficient; collinear columns: {', '.join(cols) or 'unknown'}",
        columns=cols,
    )


def _solve(x: np.ndarray, ys: np.ndarray, weights: np.ndarray, within: np.ndarray):
    """``least_squares`` of a stack of problems of one shape, and which are rank deficient.

    ``x`` is (..., c, k), ``ys`` and ``within`` (..., c, D) and ``weights``
    (..., c). Returns the coefficients and standard errors (..., k, D), the
    residual sums of squares (..., D) and a rank-deficiency flag (...); the
    numbers of a deficient problem mean nothing. Each problem's numbers are
    those it has when solved alone.
    """
    c, k = x.shape[-2:]
    n = np.asarray(weights.sum(axis=-1))
    if (n <= k).any():
        raise ParameterError(f"need more rows ({int(n.min())}) than columns ({k})")
    root = np.sqrt(weights)[..., None]
    rows = root * x
    # rows = U diag(s) Vt gives the rank check, beta = V diag(1/s) U'(root ys)
    # and diag((x'Wx)^-1) = sum_j (V_ij / s_j)^2
    u_mat, s, vt = np.linalg.svd(rows, full_matrices=False)
    singular = (c < k) | (s[..., -1] <= RANK_RTOL * s[..., 0])
    targets = root * ys
    with np.errstate(divide="ignore", invalid="ignore"):  # only a deficient problem's s has a 0
        beta = np.swapaxes(vt, -1, -2) @ (np.swapaxes(u_mat, -1, -2) @ targets / s[..., None])
        residuals = targets - rows @ beta
        rss = within.sum(axis=-2) + np.einsum("...ij,...ij->...j", residuals, residuals)
        se = np.sqrt(np.sum((vt / s[..., None]) ** 2, axis=-2)[..., :, None]
                     * (rss / (n - k)[..., None])[..., None, :])
    return beta, se, rss, singular


def least_squares(x: np.ndarray, ys: np.ndarray, names: tuple[str, ...], weights: np.ndarray,
                  within: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted least squares of every column of ``ys`` (c x D) on ``x`` (c x k).

    Row i stands for ``weights[i]`` units that share the regressors ``x[i]``,
    whose outcomes have mean ``ys[i]`` and sum of squared deviations
    ``within[i]``; a unit row has weight 1 and within 0. The rows sqrt(w) x
    have the singular values of the unit rows, so one thin SVD of them serves
    all D columns as if the n = sum(weights) units were fitted. Returns the
    coefficients and the iid standard errors, both k x D, and the D residual
    sums of squares. Raises ParameterError when there are not more units than
    columns, and SingularModelError naming the collinear columns when there
    are fewer rows than columns or the rows are rank deficient. The caller
    checks that the inputs are finite.
    """
    beta, se, rss, singular = _solve(x, ys, weights, within)
    if singular:
        raise _rank_error(x, weights, names)
    return beta, se, rss


def _fit(spec_name: str, names: tuple[str, ...], x: np.ndarray, weights: np.ndarray,
         y: np.ndarray, within: np.ndarray) -> RegressionFit:
    """``least_squares`` of one outcome column (c x 1), as a RegressionFit."""
    beta, se, rss = least_squares(x, y, names, weights, within)
    return _fit_record(spec_name, names, beta, se, rss, weights, y, within)


def _fit_record(spec_name: str, names: tuple[str, ...], beta: np.ndarray, se: np.ndarray,
                rss: np.ndarray, weights: np.ndarray, y: np.ndarray,
                within: np.ndarray) -> RegressionFit:
    """The solved fit of one outcome column as a RegressionFit: ``beta`` and ``se`` (k x 1)
    and ``rss`` (1,), with the rows' weights, mean outcomes (c x 1) and within sums."""
    n, k = int(weights.sum()), beta.shape[0]
    rss = float(rss[0])
    y = y[:, 0]
    tss = float(within.sum() + weights @ (y - weights @ y / n) ** 2)
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


def ols(design_matrix: np.ndarray, y: np.ndarray, names: tuple[str, ...],
        spec_name: str = "ols") -> RegressionFit:
    """Least squares of y on the given columns (leading column = constant).

    ``least_squares`` on unit rows, so it raises the same errors, and
    ParameterError when an entry is not finite.
    """
    x = np.asarray(design_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ParameterError("design matrix and outcome shapes do not match")
    if len(names) != x.shape[1]:
        raise ParameterError("need one name per design-matrix column")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("design matrix and outcome must be finite")
    return _fit(spec_name, names, x, np.ones(y.size, dtype=np.int64), y[:, None],
                np.zeros((y.size, 1)))


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


def _regressors(cells: CellTable, rows: slice, names: tuple[str, ...]) -> np.ndarray:
    """The named regressors on the cells ``rows``, one column per name."""
    return cells.regressors[rows, [CELL_COLUMNS[name] for name in names]]


def _spec_rows(spec_name: str, cells: CellTable) -> tuple[np.ndarray, np.ndarray, list]:
    """Each rep's cells that a specification covers, rows ``lo[b]`` to ``hi[b]``, and the
    error that rep's fit meets before it is solved, or None.

    The error is EmptySubsampleError when a connected-only fit has no units
    with neighbors and TooFewUnitsError when it has fewer than ``min_units``.
    """
    spec = SPECS[spec_name]
    lo, hi = cells.bounds[:-1], cells.bounds[1:]
    if spec.connected_only:
        # a rep's cells are sorted by degree, so its units with neighbors are a suffix
        isolated = np.concatenate([[0], np.cumsum(cells.degree == 0)])
        lo = lo + isolated[hi] - isolated[lo]
    units = np.concatenate([[0], np.cumsum(cells.count)])
    subsample = " with neighbors" if spec.connected_only else ""
    errors = [
        EmptySubsampleError("no units with neighbors; treated fraction is undefined everywhere")
        if first == last else
        TooFewUnitsError(f"{spec_name} needs at least {spec.min_units} units{subsample}")
        if size < spec.min_units else None
        for first, last, size in zip(lo.tolist(), hi.tolist(), (units[hi] - units[lo]).tolist())
    ]
    return lo, hi, errors


def fit_cells(spec_name: str, cells: CellTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Fit the specification ``SPECS[spec_name]`` on every rep of ``cells`` at once.

    Returns the coefficients and iid standard errors, both (reps, k, D) in
    the order of the specification's columns, the residual sums of squares
    (reps, D), and each rep's degenerate-fit error, or None: the error of
    ``_spec_rows``, else the SingularModelError of ``least_squares``. A rep
    with an error has NaN results. The reps with the same number of cell rows
    are solved in one stacked SVD. Padding a rep with zero-weight rows instead
    would change the last bits of some fits, and so make a rep's fit depend on
    the other reps of its table.
    """
    return _fit_rows(spec_name, cells, *_spec_rows(spec_name, cells))


def _fit_rows(spec_name: str, cells: CellTable, lo: np.ndarray, hi: np.ndarray,
              errors: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """``fit_cells`` on the rows ``_spec_rows`` found: lo[b] to hi[b], with their errors."""
    spec = SPECS[spec_name]
    columns = [CELL_COLUMNS[name] for name in spec.columns]
    beta = np.full((lo.size, len(columns), cells.mean.shape[1]), np.nan)
    se = beta.copy()
    rss = np.full((lo.size, cells.mean.shape[1]), np.nan)
    size = hi - lo
    pending = np.array([error is None for error in errors])
    for c in distinct(size[pending]).tolist():
        group = np.flatnonzero(pending & (size == c))
        rows = lo[group, None] + np.arange(c)
        x = cells.regressors[rows[..., None], columns]
        weights = cells.count[rows]
        beta[group], se[group], rss[group], singular = _solve(
            x, cells.mean[rows], weights, cells.within[rows])
        for g in np.flatnonzero(singular).tolist():
            errors[group[g]] = _rank_error(x[g], weights[g], spec.columns)
    return beta, se, rss, errors


def fit_specification(spec_name: str, cells: CellTable) -> RegressionFit:
    """Fit the specification ``SPECS[spec_name]`` on the one-rep cell table ``cells``.

    The one-rep call of ``fit_cells``; raises the rep's error.
    """
    lo, hi, errors = _spec_rows(spec_name, cells)
    beta, se, rss, (error,) = _fit_rows(spec_name, cells, lo, hi, errors)
    if error is not None:
        raise error
    rows = slice(int(lo[0]), int(hi[0]))
    return _fit_record(spec_name, SPECS[spec_name].columns, beta[0], se[0], rss[0],
                       cells.count[rows], cells.mean[rows], cells.within[rows])


@dataclass(frozen=True)
class StratifiedResult:
    """Per-degree fits plus the strata that could not be fit, with reasons."""

    fits: dict[int, RegressionFit]
    skipped: dict[int, str]


def stratified_regression(cells: CellTable) -> StratifiedResult:
    """Separate OLS per degree stratum, each fitted from that degree's cells.

    Positive-degree strata regress the outcome on (1, own treatment,
    treated-neighbor count); the degree-0 stratum omits the neighbor count,
    since spillovers do not exist for nodes without neighbors. Strata that
    are too small or degenerate are skipped with a reason, never fatal.
    """
    fits: dict[int, RegressionFit] = {}
    skipped: dict[int, str] = {}
    bounds = np.flatnonzero(np.diff(cells.degree)) + 1
    for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), cells.degree.size]):
        g = int(cells.degree[lo])
        names = (CONST, TREATED) if g == 0 else (CONST, TREATED, TREATED_NEIGHBORS)
        rows = slice(lo, hi)
        size = int(cells.count[rows].sum())
        if size < len(names) + 2:
            skipped[g] = f"only {size} units; need at least {len(names) + 2}"
            continue
        try:
            fits[g] = _fit("stratified", names, _regressors(cells, rows, names),
                           cells.count[rows], cells.mean[rows], cells.within[rows])
        except SingularModelError as exc:
            if TREATED in exc.columns:
                skipped[g] = "no treatment variation"
            elif TREATED_NEIGHBORS in exc.columns:
                skipped[g] = "no exposure variation"
            else:
                skipped[g] = str(exc)
    return StratifiedResult(fits=fits, skipped=skipped)
