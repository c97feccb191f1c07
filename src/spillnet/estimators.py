"""Exposure cells, their diagnostics, the one least-squares solver and the three spillover fits.

Every regressor of the three specifications is a function of a unit's own
treatment d, its treated-neighbour count t and its degree g, so OLS on the
units is weighted least squares on the occupied (g, t, d) cells.
``exposure_cells(degree, t, d, y)`` groups the units of one rep (1-D
arrays) or of a block of reps (one row per rep) into those cells, with each
cell's unit count, mean outcome and within-cell sum of squares; every
command builds its cells there. Every fit solves through ``_solve``: one
thin SVD of a stack of weighted problems gives the rank check, the
coefficients and the iid standard errors of every outcome column, whatever
the number of units; ``_rank_error`` names a flagged problem's collinear
columns by the same rule. ``_fit_rows`` solves ranges of cell rows, one
stacked SVD per range size; ``fit_cells`` fits a specification of ``SPECS``
on every rep of a table, and ``stratified_regression`` fits each degree
stratum of a one-rep table. ``ols`` solves unit rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubsampleError, ParameterError, SingularModelError, TooFewUnitsError
from .graph import distinct

# Coefficient (column) names shared across specifications.
CONST = "const"
TREATED = "treated"
TREATED_NEIGHBORS = "treated_neighbors"
DEGREE = "degree"
DBAR = "dbar"
DBAR_STAR = "dbar_star"

# Relative singular-value threshold for declaring a design matrix rank deficient.
RANK_RTOL = 1e-10

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


def _rank_error(x: np.ndarray, weights: np.ndarray, names: tuple[str, ...]) -> SingularModelError:
    """The error of a rank-deficient problem, naming the columns the others reproduce.

    By ``_solve``'s rule, from one SVD of the rows sqrt(w) x: a column is named when its
    unit vector has a part of squared length above ``RANK_RTOL`` outside the span of the
    right singular vectors whose values exceed ``RANK_RTOL`` times the largest. Those
    parts sum to the rank deficit, so a problem ``_solve`` flags names a column.
    """
    _, s, vt = np.linalg.svd(np.sqrt(weights)[:, None] * x, full_matrices=False)
    outside = 1.0 - np.sum(vt[s > RANK_RTOL * s[0]] ** 2, axis=0)
    cols = tuple(name for name, part in zip(names, outside.tolist()) if part > RANK_RTOL)
    return SingularModelError(
        f"design matrix is rank deficient; collinear columns: {', '.join(cols)}", columns=cols)


def _solve(x: np.ndarray, ys: np.ndarray, weights: np.ndarray, within: np.ndarray):
    """Weighted least squares of a stack of problems of one shape, and which are rank deficient.

    ``x`` is (..., c, k), ``ys`` and ``within`` (..., c, D) and ``weights``
    (..., c). Row i stands for ``weights[i]`` units with regressors ``x[i]``,
    mean outcome ``ys[i]`` and sum of squared deviations ``within[i]`` (a unit
    row has weight 1 and within 0); the rows sqrt(w) x have the singular
    values of the units, so one thin SVD serves all D columns. Returns the
    coefficients and iid standard errors (..., k, D), the residual sums of
    squares (..., D) and a flag (...) for a problem with fewer rows than columns or
    rank-deficient rows (its smallest singular value at most ``RANK_RTOL`` times its
    largest), whose numbers mean nothing. Raises ParameterError when a problem has no
    more units than columns; the caller checks that the inputs are finite. The rows are
    made C-contiguous before the SVD, so a problem's numbers do not depend on the memory
    layout of ``x``.
    """
    c, k = x.shape[-2:]
    n = np.asarray(weights.sum(axis=-1))
    if (n <= k).any():
        raise ParameterError(f"need more rows ({int(n.min())}) than columns ({k})")
    root = np.sqrt(weights)[..., None]
    rows = np.ascontiguousarray(root * x)
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


def ols(design_matrix: np.ndarray, y: np.ndarray,
        names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares of y on the unit rows ``design_matrix``, one name per column.

    Returns the coefficients and iid standard errors, one per column, and
    the residual sum of squares. ``_solve`` on unit rows, so it raises the
    same ParameterError; also SingularModelError naming the collinear
    columns, and ParameterError when an entry is not finite.
    """
    x = np.asarray(design_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ParameterError("design matrix and outcome shapes do not match")
    if len(names) != x.shape[1]:
        raise ParameterError("need one name per design-matrix column")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("design matrix and outcome must be finite")
    weights = np.ones(y.size, dtype=np.int64)
    beta, se, rss, singular = _solve(x, y[:, None], weights, np.zeros((y.size, 1)))
    if singular:
        raise _rank_error(x, weights, names)
    return beta[:, 0], se[:, 0], rss[0]


@dataclass(frozen=True)
class Specification:
    """One spillover regression: its columns, the units it fits and its targets.

    ``connected_only`` fits only the units with neighbors, and a fit needs
    more of them than it has columns; ``oracle_fields`` names the
    OracleReport fields of the population direct coefficient, of the
    spillover target and of that target plus its bias.
    """

    columns: tuple[str, ...]
    connected_only: bool
    slope: str
    oracle_fields: tuple[str, str, str]


SPECS = {
    "t_reg": Specification(
        (CONST, TREATED, TREATED_NEIGHBORS, DEGREE), False,
        TREATED_NEIGHBORS, ("t_direct", "t_spillover", "t_spillover"),
    ),
    "dbar_reg": Specification(
        (CONST, TREATED, DBAR), True,
        DBAR, ("dbar_direct", "dbar_spillover", "dbar_spillover"),
    ),
    "dbar_star_reg": Specification(
        (CONST, TREATED, DBAR_STAR), False,
        DBAR_STAR, ("dbar_star_direct", "dbar_star_weighted", "dbar_star_total"),
    ),
}


def _units(cells: CellTable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The number of units in the cells ``lo[b]`` to ``hi[b]`` of each range b."""
    units = np.concatenate([[0], np.cumsum(cells.count)])
    return units[hi] - units[lo]


def _spec_rows(spec_name: str, cells: CellTable) -> tuple[np.ndarray, np.ndarray, list]:
    """Each rep's cells that a specification covers, rows ``lo[b]`` to ``hi[b]``, and the
    error that rep's fit meets before it is solved, or None.

    The error is EmptySubsampleError when a connected-only fit has no units
    with neighbors and TooFewUnitsError when it has no more units than columns.
    """
    spec = SPECS[spec_name]
    fewest = len(spec.columns) + 1
    lo, hi = cells.bounds[:-1], cells.bounds[1:]
    if spec.connected_only:
        # a rep's cells are sorted by degree, so its units with neighbors are a suffix
        isolated = np.concatenate([[0], np.cumsum(cells.degree == 0)])
        lo = lo + isolated[hi] - isolated[lo]
    subsample = " with neighbors" if spec.connected_only else ""
    errors = [
        EmptySubsampleError("no units with neighbors; treated fraction is undefined everywhere")
        if first == last else
        TooFewUnitsError(f"{spec_name} needs at least {fewest} units{subsample}")
        if size < fewest else None
        for first, last, size in zip(lo.tolist(), hi.tolist(), _units(cells, lo, hi).tolist())
    ]
    return lo, hi, errors


def fit_cells(spec_name: str, cells: CellTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Fit the specification ``SPECS[spec_name]`` on every rep of ``cells`` at once.

    ``_fit_rows`` on the rows and errors ``_spec_rows`` finds, one range per
    rep: the errors are each rep's degenerate-fit error, or None.
    """
    return _fit_rows(SPECS[spec_name].columns, cells, *_spec_rows(spec_name, cells))


def _fit_rows(columns: tuple[str, ...], cells: CellTable, lo: np.ndarray, hi: np.ndarray,
              errors: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Regress the outcomes of the cells ``lo[b]`` to ``hi[b]`` on ``columns``, for each b.

    Solves the ranges whose ``errors[b]`` is None, those of one size in one
    stacked ``_solve``; padding with zero-weight rows instead would make a
    range's last bits depend on the other ranges. Returns the coefficients
    and iid standard errors, both (ranges, k, D) and NaN for a range with an
    error, each range's number of units, and ``errors`` with each
    rank-deficient range's SingularModelError set in place.
    """
    index = [CELL_COLUMNS[name] for name in columns]
    beta = np.full((lo.size, len(index), cells.mean.shape[1]), np.nan)
    se = beta.copy()
    size = hi - lo
    pending = np.array([error is None for error in errors], dtype=bool)  # bool when empty too
    for c in distinct(size[pending]).tolist():
        group = np.flatnonzero(pending & (size == c))
        rows = lo[group, None] + np.arange(c)
        x = cells.regressors[rows[..., None], index]
        weights = cells.count[rows]
        beta[group], se[group], _, singular = _solve(
            x, cells.mean[rows], weights, cells.within[rows])
        for g in np.flatnonzero(singular).tolist():
            errors[group[g]] = _rank_error(x[g], weights[g], columns)
    return beta, se, _units(cells, lo, hi), errors


def stratified_regression(
    cells: CellTable,
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]], dict[int, str]]:
    """Separate OLS per degree stratum of the one-rep, one-outcome table ``cells``.

    Positive-degree strata regress the outcome on (1, own treatment,
    treated-neighbor count); the degree-0 stratum omits the neighbor count,
    since spillovers do not exist for nodes without neighbors. One
    ``_fit_rows`` call fits the degree-0 stratum, one the others. Returns
    {degree: (coefficients, standard errors)} of the fitted strata and
    {degree: reason} of the skipped ones (too few units or a degenerate
    fit), both in ascending order of degree.
    """
    first = np.flatnonzero(np.diff(cells.degree, prepend=-1))  # cells are sorted by degree
    end = np.append(first[1:], cells.degree.size)
    degrees = cells.degree[first]
    fits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    skipped: dict[int, str] = {}
    for columns, group in (((CONST, TREATED), degrees == 0),
                           ((CONST, TREATED, TREATED_NEIGHBORS), degrees > 0)):
        need = len(columns) + 2
        lo, hi = first[group], end[group]
        errors = [f"only {size} units; need at least {need}" if size < need else None
                  for size in _units(cells, lo, hi).tolist()]
        beta, se, _, errors = _fit_rows(columns, cells, lo, hi, errors)
        for g, b, s, error in zip(degrees[group].tolist(), beta[..., 0], se[..., 0], errors):
            if error is None:
                fits[g] = b, s
            elif isinstance(error, SingularModelError):
                skipped[g] = ("no treatment variation" if TREATED in error.columns else
                              "no exposure variation" if TREATED_NEIGHBORS in error.columns else
                              str(error))
            else:
                skipped[g] = error
    return fits, skipped
