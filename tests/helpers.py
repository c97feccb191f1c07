"""Independent brute-force oracles used to verify library computations.

Everything here sticks to first principles (explicit enumeration, textbook
normal equations) so that agreement with the library is meaningful.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import random

import numpy as np

from spillnet.dgp import DesignSpec, design_stack
from spillnet.errors import (
    EmptySubsampleError, IngestionError, ParameterError, SingularModelError, TooFewUnitsError,
)
from spillnet.estimators import (
    CONST, DBAR, DBAR_STAR, DEGREE, RANK_RTOL, SPECS, TREATED, TREATED_NEIGHBORS,
    CellTable, ExposureDiagnostics, exposure_cells,
)
from spillnet.exposure import compute_exposure
from spillnet.graph import DegreeSummary, Network, seeded_rng
from spillnet.oracle import OracleReport


def enumerate_treatments(n: int, p: float):
    """Yield every treatment vector with its Bernoulli probability."""
    for code in range(2**n):
        d = np.array([(code >> i) & 1 for i in range(n)], dtype=np.int64)
        k = int(d.sum())
        yield d, p**k * (1.0 - p) ** (n - k)


def neighbor_lists(net: Network) -> list[list[int]]:
    """Each node's sorted neighbors, built edge by edge from ``net.u`` and ``net.v``."""
    nbrs: list[list[int]] = [[] for _ in range(net.n)]
    for a, b in zip(net.u.tolist(), net.v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return [sorted(x) for x in nbrs]


def edge_pairs(net: Network) -> list[tuple[int, int]]:
    """All edges as (i, j) pairs with i < j, in the network's order."""
    return list(zip(net.u.tolist(), net.v.tolist()))


def check_invariants(net: Network) -> None:
    """Assert endpoints in range, u < v, and edges sorted without repeats."""
    if net.u.shape != net.v.shape or net.u.ndim != 1:
        raise AssertionError("edge arrays differ in shape")
    if not ((net.u >= 0).all() and (net.u < net.v).all() and (net.v < net.n).all()):
        raise AssertionError("an edge has u < 0, u >= v or v >= n")
    keys = net.u * net.n + net.v
    if not (np.diff(keys) > 0).all():
        raise AssertionError("edges are unsorted or repeated")


def cell(report, spec_name: str, coef: str):
    """The ``CoefficientSummary`` of one specification's coefficient in a report."""
    return next(summary for summary in report.cells
                if summary.spec_name == spec_name and summary.coef == coef)


def csv_lines(rows) -> list[str]:
    """The lines of the CSV file of ``rows``, written by the ``csv.writer`` call of
    ``spillnet.cli.main``."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().splitlines()


def treated_neighbor_counts(neighbors, d: np.ndarray) -> np.ndarray:
    return np.array([int(d[nbrs].sum()) for nbrs in neighbors], dtype=np.int64)


def rep_cells(net: Network, d: np.ndarray, y: np.ndarray) -> CellTable:
    """The exposure cells of one rep on ``net``, built as ``spillnet audit`` builds them."""
    return exposure_cells(net.degree, compute_exposure(net, d), d, y)


def unit_exposure(net: Network, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each unit's degree and treated-neighbour count, from its neighbour list."""
    neighbors = neighbor_lists(net)
    degree = np.array([len(nbrs) for nbrs in neighbors], dtype=np.int64)
    return degree, treated_neighbor_counts(neighbors, d)


def exact_dbar_star_moments(net, p: float) -> tuple[float, float, float]:
    """(mean, variance, covariance-with-degree) of the zero-imputed fraction.

    Expectations run over all 2^n treatment vectors and a uniformly drawn
    node, entirely by enumeration.
    """
    degree = net.degree.astype(float)
    safe = np.maximum(degree, 1.0)
    neighbors = neighbor_lists(net)
    e_x = e_xx = e_xg = 0.0
    for d, prob in enumerate_treatments(net.n, p):
        t = treated_neighbor_counts(neighbors, d)
        dbar_star = np.where(degree > 0, t / safe, 0.0)
        e_x += prob * float(dbar_star.mean())
        e_xx += prob * float((dbar_star**2).mean())
        e_xg += prob * float((dbar_star * degree).mean())
    mean_degree = float(degree.mean())
    return e_x, e_xx - e_x**2, e_xg - e_x * mean_degree


def normal_equation_ols(x: np.ndarray, y: np.ndarray):
    """Textbook normal-equation solve with homoskedastic standard errors."""
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (x.shape[0] - x.shape[1])
    se = np.sqrt(np.diag(sigma2 * xtx_inv))
    return beta, se


def reference_watts_strogatz(
    n: int, k: int, beta: float, delete_prob: float, seed: int
) -> Network:
    """The sequential pure-Python Watts-Strogatz-with-deletion generator.

    Rewires one lattice edge at a time on Mersenne Twister draws.
    ``spillnet.graph.generate_watts_strogatz`` settles the rewires in claim
    rounds on PCG64 instead, so the two agree in distribution on sparse
    graphs, not seed by seed.
    """
    if n < 3:
        raise ParameterError("watts-strogatz requires n >= 3")
    if k % 2 != 0 or k < 0:
        raise ParameterError("k must be a nonnegative even integer")
    if k >= n:
        raise ParameterError("k must be smaller than n")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError("beta must lie in [0, 1]")
    if not 0.0 <= delete_prob <= 1.0:
        raise ParameterError("delete_prob must lie in [0, 1]")

    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(1, k // 2 + 1):
            a, b = i, (i + j) % n
            adj[a].add(b)
            adj[b].add(a)
            edges.append((a, b))

    for idx, (a, b) in enumerate(edges):
        if rng.random() < beta:
            if len(adj[a]) >= n - 1:
                continue  # no legal target left; keep the edge in place
            while True:
                c = rng.randrange(n)
                if c != a and c not in adj[a]:
                    break
            adj[a].discard(b)
            adj[b].discard(a)
            adj[a].add(c)
            adj[c].add(a)
            edges[idx] = (a, c)

    surviving = sorted({(min(a, b), max(a, b)) for a, b in edges if b in adj[a]})
    for a, b in surviving:
        if rng.random() < delete_prob:
            adj[a].discard(b)
            adj[b].discard(a)

    pairs = sorted((a, b) for a in range(n) for b in adj[a] if a < b)
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return Network(n, u, v)


def round_watts_strogatz(
    n: int, k: int, beta: float, delete_prob: float, seed: int
) -> Network:
    """The claim rounds of ``spillnet.graph.generate_watts_strogatz``, one claim at a time.

    Follows the rules in that function's docstring with Python sets and
    lists, and draws the same numbers in the same order: ``random(m)`` for
    the rewire coins, ``integers(n, size)`` per round for the targets of the
    unresolved rewires (ascending lattice index), then ``random(survivors)``
    for the deletion coins of the surviving edges in sorted order. So the two
    give the same graph seed by seed.
    """
    half = k // 2
    lattice = [(a, (a + j) % n) for a in range(n) for j in range(1, half + 1)]
    lattice_of = {(min(a, b), max(a, b)): idx for idx, (a, b) in enumerate(lattice)}
    rng = np.random.default_rng(seed)
    pending = (rng.random(len(lattice)) < beta).tolist()
    moved = [False] * len(lattice)
    created: set[tuple[int, int]] = set()
    degree = [k] * n
    todo = [idx for idx, coin in enumerate(pending) if coin]
    while todo:
        targets = rng.integers(n, size=len(todo)).tolist()
        first_pending: dict[int, int] = {}  # each node's lowest unresolved lattice edge
        for idx in todo:
            for node in lattice[idx]:
                first_pending.setdefault(node, idx)
        claimed: set[tuple[int, int]] = set()
        won = []
        # every test reads the state at the start of the round
        for idx, c in zip(todo, targets):
            a = lattice[idx][0]
            pair = (min(a, c), max(a, c))
            if degree[a] >= n - 1:
                if first_pending[a] == idx:
                    pending[idx] = False  # no free pair, none can open: keep the edge
                continue
            on_lattice = pair in lattice_of and not moved[lattice_of[pair]]
            if c == a or on_lattice or pair in created or pair in claimed:
                continue
            claimed.add(pair)  # the lowest lattice index claims the pair first
            won.append((idx, c, pair))
        for idx, c, pair in won:
            pending[idx] = False
            moved[idx] = True
            created.add(pair)
            degree[lattice[idx][1]] -= 1
            degree[c] += 1
        todo = [idx for idx in todo if pending[idx]]

    kept = [(min(a, b), max(a, b)) for idx, (a, b) in enumerate(lattice) if not moved[idx]]
    edges = sorted([*kept, *created])
    coins = rng.random(len(edges)).tolist()
    pairs = [edge for edge, coin in zip(edges, coins) if coin >= delete_prob]
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return Network(n, u, v)


def reference_design(design_id: int, c: float, degrees) -> DesignSpec:
    """A built-in design tabulated one degree at a time into dicts (noise_sd = 1)."""
    degs = sorted({int(g) for g in degrees})
    if design_id == 1:
        baseline = {g: 1.0 + g for g in degs}
    elif design_id == 2:
        baseline = {g: 1.0 + (1.0 if g > 0 else 0.0) for g in degs}
    else:
        baseline = {g: 1.0 for g in degs}
    return DesignSpec(
        baseline=baseline,
        direct_effect={g: 1.0 for g in degs},
        spillover_effect={g: c / (1.0 + g) for g in degs},
        noise_sd=1.0,
    )


def reference_oracle_report(spec: DesignSpec, histogram: dict[int, int], p: float) -> OracleReport:
    """Every oracle formula as a sum over a {degree: count} dict, one lambda call per degree.

    ``spillnet.oracle.oracle_report`` evaluates the same formulas as dot
    products over the degrees present; the two agree to rounding.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError("treatment probability must lie strictly in (0, 1)")
    histogram = dict(sorted(histogram.items()))
    n = sum(histogram.values())
    n_isolated = histogram.get(0, 0)
    n_positive = n - n_isolated
    mean_degree = sum(g * c for g, c in histogram.items()) / n
    inv_mean = None
    if n_positive > 0:
        inv_mean = sum(c / g for g, c in histogram.items() if g > 0) / n_positive
    s = 1.0 - n_isolated / n

    def expect(fn, positive_only=False):
        items = [(g, c) for g, c in histogram.items() if not positive_only or g > 0]
        total = sum(c for _, c in items)
        if total == 0:
            raise ParameterError("empty degree stratum in expectation")
        return sum(c * fn(g) for g, c in items) / total

    baseline_gap = direct_gap = None
    if n_isolated > 0 and n_positive > 0:
        baseline_gap = expect(lambda g: spec.baseline[g], positive_only=True) - spec.baseline[0]
        direct_gap = (
            expect(lambda g: spec.direct_effect[g], positive_only=True) - spec.direct_effect[0]
        )
    direct = expect(lambda g: spec.direct_effect[g])

    t_spill = None
    if mean_degree != 0:
        t_spill = expect(lambda g: g * spec.spillover_effect[g]) / mean_degree

    dbar_direct = dbar_spill = None
    if inv_mean is not None:
        dbar_direct = expect(lambda g: spec.direct_effect[g], positive_only=True)
        dbar_spill = expect(lambda g: spec.spillover_effect[g], positive_only=True) / inv_mean

    star_bias = star_weighted = total = None
    if s != 0.0:
        factor = lambda g: p * p + p * (1.0 - p) / g - p * p * s  # noqa: E731
        star_weighted = (
            expect(lambda g: g * spec.spillover_effect[g] * factor(g), positive_only=True)
            / expect(factor, positive_only=True)
        )
        if s == 1.0:
            star_bias = 0.0
        elif baseline_gap is not None and direct_gap is not None:
            star_bias = ((baseline_gap + p * direct_gap) * (1.0 - s)
                         / (p * (1.0 - s) + (1.0 - p) * inv_mean))
        if star_bias is not None:
            total = star_bias + star_weighted

    mean_star = var_star = 0.0
    if s != 0.0:
        mean_star, var_star = p * s, p * s * (p * (1.0 - s) + (1.0 - p) * inv_mean)
    return OracleReport(
        t_direct=direct,
        t_spillover=t_spill,
        dbar_direct=dbar_direct,
        dbar_spillover=dbar_spill,
        dbar_star_direct=direct,
        dbar_star_bias=star_bias,
        dbar_star_weighted=star_weighted,
        dbar_star_total=total,
        treated_prob=p,
        positive_share=s,
        baseline_gap=baseline_gap,
        direct_gap=direct_gap,
        mean_inverse_degree_positive=inv_mean,
        mean_dbar_star=mean_star,
        var_dbar_star=var_star,
    )


def reference_read_table(path, columns, unique=None):
    """``spillnet.graph.read_table`` as a per-row loop that asks the reader for each line.

    Appends each non-blank row and ``reader.line_num`` as it goes, instead of
    reading every row at once and deriving the lines from the line breaks in
    quoted cells. The file is read as UTF-8 with an optional byte-order mark;
    column parsing, the bad-cell rescan and every error text are the same.
    """
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [cell.strip() for cell in next(reader, [])]
        missing = [name for name in columns if name not in header]
        if missing:
            raise IngestionError(f"{path}:1: missing columns {missing} in header {header}")
        for row in reader:
            if "".join(row).strip():
                rows.append(row)
                lines.append(reader.line_num)
    values, bad, row_of = {}, [], {}
    for name, parse in columns.items():
        index = header.index(name)
        try:
            column = values[name] = list(
                map(parse, map(str.strip, map(operator.itemgetter(index), rows))))
            if not all(map(math.isfinite, filter(float.__instancecheck__, column))):
                raise ValueError("non-finite number")
            if name == unique:
                row_of = dict(zip(column, range(len(column))))
                if len(row_of) < len(column):
                    raise ValueError("repeated value")
        except (IndexError, ValueError):
            bad.append((name, *_reference_bad_cells(rows, lines, index, parse, name == unique)))
    if bad:
        bad.sort(key=lambda item: item[2][0])
        raise IngestionError("; ".join(
            f"{path}:{at[0]}: column {name!r}: {error}; bad lines {at[:20]}"
            for name, error, at in bad
        ))
    return values, lines, row_of


def _reference_bad_cells(rows, lines, index, parse, unique):
    error, at, first_line = "", [], {}
    for row, line in zip(rows, lines):
        try:
            if index >= len(row):
                raise ValueError("missing cell")
            value = parse(row[index].strip())
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite number {value!r}")
            if unique and first_line.setdefault(value, line) != line:
                raise ValueError(f"duplicate {value!r}, first on line {first_line[value]}")
        except ValueError as exc:
            if not at:
                error = str(exc)
            at.append(line)
    return error, at


def _reference_collinear_columns(x: np.ndarray, names: tuple[str, ...]) -> tuple[str, ...]:
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


def _reference_solve(x: np.ndarray, ys: np.ndarray, names: tuple[str, ...]):
    """Least squares of every column of ``ys`` on the unit rows ``x`` by one thin SVD."""
    n, k = x.shape
    if n <= k:
        raise ParameterError(f"need more rows ({n}) than columns ({k})")
    if not (np.isfinite(x).all() and np.isfinite(ys).all()):
        raise ParameterError("design matrix and outcome must be finite")
    u_mat, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        cols = _reference_collinear_columns(x, names)
        raise SingularModelError(
            f"design matrix is rank deficient; collinear columns: {', '.join(cols) or 'unknown'}",
            columns=cols,
        )
    beta = vt.T @ (u_mat.T @ ys / s[:, None])
    residuals = ys - x @ beta
    rss = np.einsum("ij,ij->j", residuals, residuals)
    se = np.sqrt(np.outer(np.sum((vt / s[:, None]) ** 2, axis=0), rss / (n - k)))
    return beta, se, rss


def reference_outcome_matrix(
    stack: np.ndarray, noise_sd, summary: DegreeSummary, net: Network, d: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Outcomes of D designs for one draw, one n-row column per design.

    ``stack`` is the designs' ``design_stack`` at ``summary.degrees``, the
    distinct degrees of ``net``. Column j is the partially linear form of
    ``stack[:, j]`` at each unit, plus ``noise_sd[j]`` times the shared
    standard-normal ``noise``.
    """
    degree, t = unit_exposure(net, d)
    tables = np.zeros((3, summary.degrees[-1] + 1, stack.shape[1]))
    tables[:, summary.degrees] = stack.transpose(0, 2, 1)
    baseline, direct, spillover = tables.take(degree, axis=1)
    y = baseline + direct * d[:, None] + spillover * t[:, None]
    return y + noise[:, None] * np.asarray(noise_sd, dtype=float)


def unit_outcomes(net: Network, d: np.ndarray, design, seed: int) -> np.ndarray:
    """One design's outcome per unit: ``reference_outcome_matrix`` of that design
    alone, with its standard-normal noise drawn from ``seeded_rng(seed)``."""
    summary = DegreeSummary.of(net.degree)
    noise = seeded_rng(seed).standard_normal(net.n)
    stack = design_stack([design], summary.degrees)
    return reference_outcome_matrix(stack, [design.noise_sd], summary, net, d, noise)[:, 0]


def _reference_cov(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((x - x.mean()) * (y - y.mean())))


def _reference_r2(x: np.ndarray, y: np.ndarray) -> float | None:
    vx = _reference_cov(x, x)
    vy = _reference_cov(y, y)
    if vx == 0.0 or vy == 0.0:
        return None
    return _reference_cov(x, y) ** 2 / (vx * vy)


def reference_exposure_diagnostics(net: Network, d: np.ndarray) -> ExposureDiagnostics:
    """The exposure diagnostics as population (1/n) moments over the unit rows.

    ``spillnet.estimators.empirical_exposure_diagnostics`` weights the cells
    by their counts instead; the two agree to rounding.
    """
    degree, t = unit_exposure(net, d)
    gamma = degree.astype(float)
    pos = np.flatnonzero(degree > 0)
    dbar = t[pos] / degree[pos]
    dbar_star = np.zeros(net.n)
    dbar_star[pos] = dbar
    if pos.size > 0:
        cov_pos = _reference_cov(gamma[pos], dbar)
        r2_pos = _reference_r2(gamma[pos], dbar)
    else:
        cov_pos = r2_pos = None
    return ExposureDiagnostics(
        cov_dbar_degree_on_positive=cov_pos,
        cov_dbar_star_degree=_reference_cov(gamma, dbar_star),
        r2_dbar=r2_pos,
        r2_dbar_star=_reference_r2(gamma, dbar_star),
    )


def reference_design_matrix(spec_name: str, net: Network, d: np.ndarray):
    """A specification's n x k regressors on the units it covers, and those units (None: all)."""
    spec = SPECS[spec_name]
    degree, t = unit_exposure(net, d)
    rows = np.flatnonzero(degree > 0) if spec.connected_only else None
    if rows is not None and rows.size == 0:
        raise EmptySubsampleError(
            "no units with neighbors; treated fraction is undefined everywhere"
        )
    size = net.n if rows is None else rows.size
    fewest = len(spec.columns) + 1
    if size < fewest:
        subsample = " with neighbors" if spec.connected_only else ""
        raise TooFewUnitsError(f"{spec_name} needs at least {fewest} units{subsample}")
    # the fraction is t / g where g > 0; a connected-only fit never reads the 0 at g = 0
    fraction = np.where(degree > 0, t / np.maximum(degree, 1), 0.0)
    full = {TREATED: d, TREATED_NEIGHBORS: t, DEGREE: degree, DBAR: fraction,
            DBAR_STAR: fraction}
    x = np.empty((size, len(spec.columns)))
    for j, name in enumerate(spec.columns):
        if name == CONST:
            x[:, j] = 1.0
        else:
            x[:, j] = full[name] if rows is None else full[name][rows]
    return x, rows


def reference_least_squares(spec_name: str, net: Network, d: np.ndarray, ys: np.ndarray):
    """A specification fitted to every column of ``ys`` (n x D) on its unit rows.

    Builds the n x k design matrix and factorises it with one thin SVD, as
    spillnet did before it fitted from exposure cells. Returns beta and se
    (k x D) and rss (D), or raises the error of a degenerate fit.
    """
    x, rows = reference_design_matrix(spec_name, net, d)
    return _reference_solve(x, ys if rows is None else ys[rows], SPECS[spec_name].columns)


def _reference_ols(x: np.ndarray, y: np.ndarray,
                   names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients and standard errors of y on the unit rows x."""
    beta, se, _ = _reference_solve(x, y[:, None], names)
    return beta[:, 0], se[:, 0]


def reference_stratified(net: Network, d: np.ndarray, y: np.ndarray):
    """Per-degree OLS on unit rows, each stratum found by a scan of the whole degree array.

    Returns ``{degree: (beta, se)}`` of the fitted strata and ``{degree:
    reason}`` of the skipped ones.
    """
    degree, t = unit_exposure(net, d)
    fits, skipped = {}, {}
    for g in np.unique(degree).tolist():
        idx = np.flatnonzero(degree == g)
        if g == 0:
            names = (CONST, TREATED)
            x = np.column_stack([np.ones(idx.size), d[idx].astype(float)])
        else:
            names = (CONST, TREATED, TREATED_NEIGHBORS)
            x = np.column_stack([
                np.ones(idx.size),
                d[idx].astype(float),
                t[idx].astype(float),
            ])
        if idx.size < len(names) + 2:
            skipped[g] = f"only {idx.size} units; need at least {len(names) + 2}"
            continue
        try:
            fits[g] = _reference_ols(x, y[idx], names)
        except SingularModelError as exc:
            if TREATED in exc.columns:
                skipped[g] = "no treatment variation"
            elif TREATED_NEIGHBORS in exc.columns:
                skipped[g] = "no exposure variation"
            else:
                skipped[g] = str(exc)
    return fits, skipped
