"""Undirected interference networks: construction, random generation, summaries.

Networks are simple (no self-links, no parallel edges) and symmetric. All
types are immutable after construction and safe to share across threads;
randomness lives entirely in the generator functions, which are pure
functions of their arguments.
"""

from __future__ import annotations

import csv
import gc
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import IngestionError, ParameterError

# Calibrated Watts-Strogatz-with-deletion parameters. At n = 1000 these give
# roughly 10% isolated nodes, mean degree 2 and a maximum degree around 7;
# the heavy deletion stage is what produces the isolated nodes.
WS_CALIBRATED = {"k": 8, "beta": 0.25, "delete_prob": 0.75}


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable undirected simple graph on nodes 0..n-1, stored as its edges.

    Edge e joins ``u[e] < v[e]``; the edges are sorted by (u, v) and none
    repeats, as every constructor in this module guarantees, so the graph is
    symmetric and has no self-links. Both arrays are read-only.
    """

    n: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u.flags.writeable = False
        self.v.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.u, other.u)
                and np.array_equal(self.v, other.v))

    def __reduce__(self):
        # rebuild through __init__, so an unpickled copy is read-only too
        return Network, (self.n, self.u, self.v)

    @cached_property
    def degree(self) -> np.ndarray:
        """Per-node neighbor counts as a read-only int array."""
        degree = np.bincount(np.concatenate([self.u, self.v]), minlength=self.n)
        degree.flags.writeable = False
        return degree


@dataclass(frozen=True, eq=False)
class DegreeSummary:
    """The empirical degree distributions of a block of networks, over the degrees of all.

    ``degrees`` holds the distinct degrees present in any of the networks,
    sorted; ``counts[b, j]`` is the number of nodes of network b with degree
    ``degrees[j]``, 0 where it has none. Both are read-only int arrays.
    ``of`` summarizes networks from their node degrees, one network from a
    1-D array, and ``from_histogram`` one network from its degree counts.
    Every moment is an array with one row per network, shape (networks, 1),
    so that it broadcasts against one column per design; a moment undefined for
    a network (a conditional one whose stratum is empty) is NaN in its row.
    A sum over the degrees runs one term at a time in degree order, so a
    degree a network lacks adds an exact 0: a network's moments do not
    depend on the other networks of its block, and cost O(distinct degrees)
    whatever the largest degree.
    """

    degrees: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        degrees, counts = self.degrees, self.counts
        if (degrees.ndim != 1 or counts.ndim != 2 or counts.shape[1:] != degrees.shape
                or counts.size == 0):
            raise ParameterError("a summary needs nonempty degrees and one aligned row of "
                                 "counts per network")
        if (degrees[0] < 0 or (np.diff(degrees) <= 0).any() or (counts < 0).any()
                or not counts.any(axis=0).all() or not counts.any(axis=1).all()):
            raise ParameterError("degrees must be distinct, sorted and nonnegative, and counts "
                                 "nonnegative; each degree must be some node's and each "
                                 "network must have a node")
        if max(map(sum, counts.tolist())) >= 2**63:  # exact, where an int64 or float sum is not
            raise ParameterError("counts must sum to less than 2**63")
        degrees.flags.writeable = False
        counts.flags.writeable = False

    @staticmethod
    def of(degree: np.ndarray) -> "DegreeSummary":
        """The summary of networks whose node degrees are the rows of ``degree``; a 1-D
        ``degree`` is one network. Raises ParameterError for a negative degree or no node."""
        degree = np.atleast_2d(degree)
        if degree.size == 0 or degree.min() < 0:
            raise ParameterError("degrees must be nonnegative, with at least one node")
        networks, width = degree.shape[0], int(degree.max()) + 1
        slot = np.arange(networks)[:, None] * width + degree
        counts = np.bincount(slot.ravel(), minlength=networks * width).reshape(networks, width)
        degrees = np.flatnonzero(counts.any(axis=0))
        return DegreeSummary(degrees, counts[:, degrees])

    @staticmethod
    def from_histogram(histogram: Mapping[int, int]) -> "DegreeSummary":
        """The one-row summary of a {degree: node count} mapping."""
        try:
            pairs = np.array(sorted(histogram.items()), dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ParameterError("degrees and counts must be below 2**63") from None
        return DegreeSummary(pairs[:, 0].copy(), pairs[None, :, 1].copy())

    @cached_property
    def positive(self) -> slice:
        """The entries of ``degrees`` and of each row of ``counts`` with degree > 0."""
        return slice(int(self.degrees[0] == 0), None)

    @cached_property
    def n(self) -> np.ndarray:
        return self.counts.sum(axis=1, keepdims=True)

    @cached_property
    def n_positive(self) -> np.ndarray:
        return self.counts[:, self.positive].sum(axis=1, keepdims=True)

    @cached_property
    def isolated_fraction(self) -> np.ndarray:
        return (self.n - self.n_positive) / self.n

    @cached_property
    def positive_share(self) -> np.ndarray:
        """Fraction of nodes with at least one neighbor."""
        return 1.0 - self.isolated_fraction

    @cached_property
    def mean_degree(self) -> np.ndarray:
        return self.mean(self.degrees)

    @cached_property
    def mean_degree_positive(self) -> np.ndarray:
        return self.mean(self.degrees[self.positive], positive_only=True)

    @cached_property
    def mean_inverse_degree_positive(self) -> np.ndarray:
        return self.mean(1.0 / self.degrees[self.positive], positive_only=True)

    def mean(self, values: np.ndarray, positive_only: bool = False) -> np.ndarray:
        """Each network's average of ``values``, aligned with ``degrees`` (or with
        ``degrees[positive]`` under ``positive_only``, which conditions on degree > 0)
        along the last axis.

        ``values`` of shape (D, degrees) gives (networks, D); one row per
        network, (networks, 1, degrees), gives (networks, 1). The mean is
        NaN for a network whose stratum is empty.
        """
        weights, total = self.counts[:, None, :], self.n
        if positive_only:
            weights, total = weights[..., self.positive], self.n_positive
        terms = np.asarray(values, dtype=float) * weights
        sums = np.cumsum(terms, axis=-1)[..., -1] if terms.shape[-1] else terms.sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):  # an empty stratum's mean is NaN
            return sums / total


def seeded_rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` (PCG64) for a nonnegative integer seed.

    Raises ParameterError naming the seed when it is negative.
    """
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer (got {seed})")
    return np.random.default_rng(seed)


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array.

    Equal to ``np.unique(values)``, by a sort and an adjacent difference.
    numpy's hash-based ``unique`` imports ``numpy.ma`` on its first call,
    ~15 ms, which is more than a short command spends on the sort.
    """
    values = np.sort(values)
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _network_from_keys(n: int, keys: np.ndarray) -> Network:
    """Build a network from sorted, distinct packed edge keys ``u * n + v``, u < v.

    Every constructor in this module ends here.
    """
    return Network(n, *np.divmod(keys, n))


@lru_cache(maxsize=1)
def _ring_lattice(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The far end ``hi`` of each ring-lattice edge idx, which joins idx // (k/2) to
    ``hi[idx]``, and the edge's packed key; read-only, and cached for the next graph."""
    half = k // 2
    lo = np.repeat(np.arange(n, dtype=np.int64), half)
    hi = (lo + np.tile(np.arange(1, half + 1), n)) % n
    keys = np.minimum(lo, hi) * n + np.maximum(lo, hi)
    hi.flags.writeable = keys.flags.writeable = False
    return hi, keys


def generate_watts_strogatz(
    n: int, k: int, beta: float, delete_prob: float, seed: int
) -> Network:
    """Ring-lattice small-world graph with an extra edge-deletion stage.

    Starts from a ring lattice with k/2 neighbors on each side, rewires each
    edge independently with probability ``beta`` (the far endpoint is redrawn
    uniformly, rejecting self-links and duplicates), then deletes each
    surviving edge independently with probability ``delete_prob``. Plain
    rewiring never strands a node, so the deletion stage is what creates
    isolated nodes. Deterministic given ``seed`` (PCG64).

    Lattice edge idx joins a = idx // (k/2) and b = (a + idx % (k/2) + 1) % n.
    The draws are one ``rng.random()`` coin per lattice edge, then the claim
    rounds, then one coin per surviving edge in sorted order. In each round
    every unresolved rewire of an edge (a, b) draws a target
    ``rng.integers(n)``. The claim is legal when the target c differs from a
    and the pair (a, c) is free: neither a created edge nor a lattice pair
    whose edge has not moved away (kept, unresolved, or (a, b) itself). Among
    legal claims on one pair the lowest lattice index wins; the others draw
    again next round. A rewire whose node has no free pair keeps its edge,
    unless a lower-indexed unresolved rewire of one of that node's lattice
    edges may still free one. The lowest unresolved rewire never waits, so
    the rounds end. On sparse graphs this matches the sequential process,
    which settles one rewire at a time, in distribution; on dense ones (k
    close to n, as at n <= 12), where claims often collide, it differs
    measurably.
    """
    n = operator.index(n)
    if n < 3:
        raise ParameterError("watts-strogatz requires n >= 3")
    if n * n >= 2**63:
        raise ParameterError("watts-strogatz requires n * n < 2**63")
    if k % 2 != 0 or k < 0:
        raise ParameterError("k must be a nonnegative even integer")
    if k >= n:
        raise ParameterError("k must be smaller than n")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError("beta must lie in [0, 1]")
    if not 0.0 <= delete_prob <= 1.0:
        raise ParameterError("delete_prob must lie in [0, 1]")

    half = k // 2
    m = n * half
    hi, lattice_keys = _ring_lattice(n, k)
    rng = seeded_rng(seed)
    pending = rng.random(m) < beta  # lattice edges whose rewire is unresolved
    moved = np.zeros(m, dtype=bool)
    degree = np.full(n, k)
    created = np.array([n * n])  # sorted created edge keys, closed by a sentinel
    todo = np.flatnonzero(pending)
    while todo.size:
        a = todo // half
        c = rng.integers(n, size=todo.size)
        gap = (c - a) % n
        key = np.minimum(a, c) * n + np.maximum(a, c)
        # (a, c) is lattice edge a * half + gap - 1 when 0 < gap <= half, and
        # c * half + n - gap - 1 when gap >= n - half
        forward = gap <= half
        on_lattice = forward | (gap >= n - half)
        lattice = np.where(forward, a * half + gap - 1, c * half + n - gap - 1)
        taken = ((on_lattice & ~moved[np.where(on_lattice, lattice, 0)])
                 | (created[np.searchsorted(created, key)] == key))
        full = degree[a] >= n - 1
        legal = (gap > 0) & ~taken & ~full
        claims = np.flatnonzero(legal)
        order = np.argsort(key[claims], kind="stable")
        sorted_keys = key[claims][order]
        first = np.ones(claims.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        won = claims[order[first]]
        done = todo[won]
        if full.any():
            # a full node keeps its edge unless a lower-indexed unresolved
            # rewire among its lattice edges may still free a pair
            first_pending = np.full(n, m)
            np.minimum.at(first_pending, a, todo)
            np.minimum.at(first_pending, hi[todo], todo)
            keeps = todo[full & (first_pending[a] == todo)]
            pending[keeps] = False
        pending[done] = False
        moved[done] = True
        created = np.sort(np.concatenate([created, sorted_keys[first]]), kind="stable")
        np.subtract.at(degree, hi[done], 1)
        np.add.at(degree, c[won], 1)
        todo = todo[pending[todo]]

    # stable sorts (timsort) merge the sorted runs they are given in linear time
    keys = np.sort(np.concatenate([lattice_keys[~moved], created[:-1]]), kind="stable")
    return _network_from_keys(n, keys[rng.random(keys.size) >= delete_prob])


def generate_erdos_renyi(n: int, mean_degree: float, seed: int) -> Network:
    """G(n, p) graph with p chosen to target the requested mean degree.

    Each unordered pair is linked independently with probability
    p = mean_degree / (n - 1). Deterministic given ``seed`` (PCG64).

    Geometric edge skipping (Batagelj & Brandes 2005): the pairs (i, j),
    i < j, are numbered in row-major order, and the gap from one linked pair
    to the next is Geometric(p). Gaps are drawn in batches and cumulated into
    pair positions, and each position is mapped back to its pair through the
    row starts i(2n - i - 1)/2. Time and memory are O(n + m) for m edges.
    """
    n = operator.index(n)
    if n < 2:
        raise ParameterError("erdos-renyi requires n >= 2")
    if n * n >= 2**63:
        raise ParameterError("erdos-renyi requires n * n < 2**63")
    if not 0.0 < mean_degree <= n - 1:
        raise ParameterError("mean_degree must lie in (0, n-1]")

    p_edge = mean_degree / (n - 1)
    pairs = n * (n - 1) // 2
    rng = seeded_rng(seed)
    found = [np.empty(0, dtype=np.int64)]
    last = -1  # position of the last linked pair drawn so far
    # p_edge can underflow to 0 for a tiny mean_degree; that links no pair
    while p_edge > 0 and last < pairs:
        remaining = pairs - 1 - last
        expected = remaining * p_edge
        size = int(expected + 6 * math.sqrt(expected * (1 - p_edge))) + 1
        # Any gap of pairs + 1 or more ends the draw, even from position -1.
        # Clipping it there keeps the cumulative sum from wrapping whatever
        # the batch size, since rng.geometric returns 2**63 - 1 for a tiny p.
        pos = last + np.cumsum(np.minimum(rng.geometric(p_edge, size), pairs + 1))
        found.append(pos[pos < pairs])
        last = int(pos[-1])
    pos = np.concatenate(found)
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, pos, side="right") - 1
    return _network_from_keys(n, i * n + pos - starts[i] + i + 1)


def from_edge_list(rows: Iterable[tuple[int, int]] | np.ndarray, n: int) -> Network:
    """Build a network from undirected edge rows, pairs or an ``(m, 2)`` signed-integer array.

    Duplicate rows and opposite orientations collapse to a single edge. An
    out-of-range index or a self-link raises IngestionError naming the edge
    row; an index that is not a signed integer below 2**63, or n * n >= 2**63,
    raises ParameterError.
    """
    n = operator.index(n)
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if n * n >= 2**63:
        raise ParameterError("from_edge_list requires n * n < 2**63")
    pairs = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows))
    if pairs.size and pairs.dtype.kind != "i":  # an empty list is a float array
        raise ParameterError("edge indices must be signed integers below 2**63")
    pairs = pairs.astype(np.int64, copy=False).reshape(len(pairs), 2)
    i, j = pairs[:, 0], pairs[:, 1]
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j))
    if bad.size:
        row = int(bad[0])
        a, b = int(i[row]), int(j[row])
        if not (0 <= a < n and 0 <= b < n):
            raise IngestionError(f"edge row {row}: index ({a}, {b}) out of range for n={n}")
        raise IngestionError(f"edge row {row}: self-link ({a}, {b}) not allowed")
    return _network_from_keys(n, distinct(np.minimum(i, j) * n + np.maximum(i, j)))


def read_table(
    path: str | Path, columns: Mapping[str, Callable[[str], Any]], unique: str | None = None
) -> tuple[dict[str, list], Sequence[int], dict[Any, int]]:
    """Read the named columns of a headed CSV file, one list per column.

    The file is UTF-8, with or without a byte-order mark; undecodable text or
    a malformed CSV row (a field over ``csv.field_size_limit()``, say) raises
    IngestionError naming ``path:line``. The rows are read in one pass of
    ``csv.reader``. Columns are found by header name and other columns are
    ignored. Lines whose cells are all blank are skipped. A blank line has a
    blank or missing first requested cell, so the rows are tested and
    filtered one by one only when that column has such a cell. Each column is
    parsed in one pass: its cells are stripped and mapped through the
    column's parser (``str`` keeps the stripped cells as they are).
    A cell is bad when it is missing, its parser raises ValueError, it parses
    to a non-finite float, or it repeats an earlier value of the ``unique``
    column. Only a column that has a bad cell is rescanned cell by cell, to
    name its bad lines. Any bad cell raises IngestionError naming
    ``path:line`` and the first 20 bad lines of each bad column, the columns
    ordered by their first bad line. Returns the columns, the file line of
    each row (a row that spans lines is at its last line; a ``range`` when no
    row was skipped and no quoted cell holds a line break), and the row of
    each ``unique`` value (empty without ``unique``).

    The cyclic garbage collector is paused while the rows are built and
    parsed, and the caller's state (enabled or disabled) is restored on
    return or error. Each row is a new list the collector tracks, so a large
    table would trigger many collections, none of which could free anything:
    the rows hold no reference cycles.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _read_table(path, columns, unique)
    finally:
        if collecting:
            gc.enable()


def _read_table(
    path: str | Path, columns: Mapping[str, Callable[[str], Any]], unique: str | None
) -> tuple[dict[str, list], Sequence[int], dict[Any, int]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [cell.strip() for cell in next(reader, [])]
            missing = [name for name in columns if name not in header]
            if missing:
                raise IngestionError(f"{path}:1: missing columns {missing} in header {header}")
            first = reader.line_num
            rows = list(reader)
    except csv.Error as exc:
        raise IngestionError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None
    except UnicodeDecodeError:
        raise IngestionError(_decode_error(path)) from None
    lines = _row_lines(rows, first, reader.line_num)
    leading = header.index(next(iter(columns)))
    try:
        cells = list(_stripped(rows, leading))
        filtered = not all(cells)
    except IndexError:  # a row too short to hold the column
        filtered = True
    if filtered:
        # a row of blank cells joins to a blank string; holding flags rather than the joined
        # strings keeps ~1.5 MB per 20,000 rows off the peak memory
        keep = list(map(bool, map(str.strip, map("".join, rows))))
        lines = list(compress(lines, keep))
        rows = list(compress(rows, keep))
    values: dict[str, list] = {}
    bad: list[tuple[str, str, list[int]]] = []  # column, first error, bad lines
    row_of: dict[Any, int] = {}
    for name, parse in columns.items():
        index = header.index(name)
        try:
            if filtered or index != leading:  # the loop starts at the leading column
                cells = _stripped(rows, index)
            column = values[name] = _parse_column(cells, parse)
            if name == unique:
                row_of = dict(zip(column, range(len(column))))
                if len(row_of) < len(column):
                    raise ValueError("repeated value")
        except (IndexError, ValueError):
            bad.append((name, *_bad_cells(rows, lines, index, parse, name == unique)))
    if bad:
        bad.sort(key=lambda item: item[2][0])  # stable: a tie keeps the columns' order
        raise IngestionError("; ".join(
            f"{path}:{at[0]}: column {name!r}: {error}; bad lines {at[:20]}"
            for name, error, at in bad
        ))
    return values, lines, row_of


def _line_breaks(text: str) -> int:
    """Line breaks in ``text``, each of ``\\n``, ``\\r`` and ``\\r\\n`` counting once."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _row_lines(rows: list[list[str]], first: int, last: int) -> Sequence[int]:
    """The file line on which each row ends, from the lines the reader consumed.

    ``rows`` were read after line ``first`` up to line ``last``. A row takes
    one line, plus one for each line break inside its quoted cells; only the
    last row can end on a break inside a cell, at the end of a file whose
    quote is never closed.
    """
    if last - first == len(rows):  # no quoted cell holds a line break
        return range(first + 1, last + 1)
    breaks = map(_line_breaks, map("".join, rows))
    lines = list(accumulate(breaks, lambda at, n: at + 1 + n, initial=first))[1:]
    lines[-1] = last
    return lines


def _decode_error(path: str | Path) -> str:
    """Name the line of the first byte that is not UTF-8, rescanning the file as bytes."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")  # a byte-order mark is valid UTF-8, so offsets stay exact
    except UnicodeDecodeError as exc:
        line = 1 + _line_breaks(data[:exc.start].decode("utf-8"))
        return f"{path}:{line}: not UTF-8 text ({exc.reason}: {data[exc.start:exc.end]!r})"
    return f"{path}: not UTF-8 text"  # the file changed after the failed read


def _stripped(rows: list[list[str]], index: int) -> Iterator[str]:
    """Cell ``index`` of every row, stripped, lazily: consuming it raises
    IndexError at a row too short to hold the cell."""
    return map(str.strip, map(operator.itemgetter(index), rows))


def _parse_column(cells: Iterable[str], parse: Callable[[str], Any]) -> list:
    """Parse stripped cells; raise ValueError on a bad or non-finite cell."""
    if parse is str:  # str returns a string as it is, and never a float
        return cells if isinstance(cells, list) else list(cells)
    column = list(map(parse, cells))
    try:
        # a sum with a non-finite float term is non-finite, so a finite sum clears the column
        if math.isfinite(sum(column)):
            return column
    except (TypeError, OverflowError):  # values that do not sum to a float
        pass
    if not all(map(math.isfinite, filter(float.__instancecheck__, column))):
        raise ValueError("non-finite number")
    return column


def _bad_cells(
    rows: list[list[str]], lines: Sequence[int], index: int, parse: Callable[[str], Any],
    unique: bool,
) -> tuple[str, list[int]]:
    """Rescan one column cell by cell: the error of its first bad cell and its bad lines."""
    error, at = "", []
    first_line: dict[Any, int] = {}
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


def nonnegative_int(cell: str) -> int:
    """Parse a table cell holding a degree or a count, a nonnegative int64."""
    value = int(cell)
    if value < 0:
        raise ValueError(f"negative integer {value}")
    if value >= 2**63:
        raise ValueError("integer out of range, must be below 2**63")
    return value
