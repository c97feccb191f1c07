"""Undirected interference networks: construction, random generation, summaries.

Networks are simple (no self-links, no parallel edges) and symmetric. All
types are immutable after construction and safe to share across threads;
randomness lives entirely in the generator functions, which are pure
functions of their arguments.
"""

from __future__ import annotations

import csv
import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import IngestionError, ParameterError

# Calibrated Watts-Strogatz-with-deletion parameters. At n = 1000 these give
# roughly 10% isolated nodes, mean degree 2 and a maximum degree around 7;
# the heavy deletion stage is what produces the isolated nodes.
WS_CALIBRATED = {"k": 8, "beta": 0.25, "delete_prob": 0.75}


@dataclass(frozen=True)
class Network:
    """Immutable undirected simple graph on nodes 0..n-1.

    ``adjacency[i]`` is the sorted tuple of i's neighbors. Symmetry
    (j in adjacency[i] iff i in adjacency[j]) and absence of self-links are
    guaranteed by every constructor in this module.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def degree(self) -> np.ndarray:
        """Per-node neighbor counts as an int array."""
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints (u, v) with u < v, sorted lexicographically."""
        u = [i for i in range(self.n) for j in self.adjacency[i] if i < j]
        v = [j for i in range(self.n) for j in self.adjacency[i] if i < j]
        return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)

    def check_invariants(self) -> None:
        """Assert symmetry, no self-links, sortedness and no duplicates."""
        if len(self.adjacency) != self.n:
            raise AssertionError("adjacency length differs from n")
        neighbor_sets = [set(a) for a in self.adjacency]
        for i, nbrs in enumerate(self.adjacency):
            if i in neighbor_sets[i]:
                raise AssertionError(f"self-link at node {i}")
            if len(nbrs) != len(neighbor_sets[i]):
                raise AssertionError(f"duplicate neighbor at node {i}")
            if list(nbrs) != sorted(nbrs):
                raise AssertionError(f"unsorted adjacency at node {i}")
            for j in nbrs:
                if i not in neighbor_sets[j]:
                    raise AssertionError(f"asymmetric edge {i}-{j}")


@dataclass(frozen=True)
class DegreeSummary:
    """Empirical degree-distribution moments of a network.

    ``mean_degree_positive`` and ``mean_inverse_degree_positive`` are None
    when no node has a neighbor (the conditional moments are undefined).
    """

    n: int
    histogram: Mapping[int, int]
    mean_degree: float
    max_degree: int
    isolated_fraction: float
    mean_degree_positive: float | None
    mean_inverse_degree_positive: float | None

    @property
    def positive_share(self) -> float:
        """Fraction of nodes with at least one neighbor."""
        return 1.0 - self.isolated_fraction

    def expect(self, fn: Callable[[int], float], positive_only: bool = False) -> float:
        """Average fn(degree) over the empirical degree distribution.

        With ``positive_only`` the average conditions on degree > 0; raises
        ParameterError when that stratum is empty.
        """
        items = [(g, c) for g, c in self.histogram.items() if not positive_only or g > 0]
        total = sum(c for _, c in items)
        if total == 0:
            raise ParameterError("empty degree stratum in expectation")
        return sum(c * fn(g) for g, c in items) / total

    @staticmethod
    def from_degrees(degrees: Sequence[int] | np.ndarray) -> "DegreeSummary":
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.size == 0:
            raise ParameterError("cannot summarize an empty degree sequence")
        if (degrees < 0).any():
            raise ParameterError("degrees must be nonnegative")
        values, counts = np.unique(degrees, return_counts=True)
        return DegreeSummary.from_histogram(dict(zip(values.tolist(), counts.tolist())))

    @staticmethod
    def from_histogram(histogram: Mapping[int, int]) -> "DegreeSummary":
        if not histogram or any(c <= 0 for c in histogram.values()):
            raise ParameterError("histogram must have positive counts")
        if any(g < 0 for g in histogram):
            raise ParameterError("degrees must be nonnegative")
        n = sum(histogram.values())
        n_isolated = histogram.get(0, 0)
        n_positive = n - n_isolated
        mean = sum(g * c for g, c in histogram.items()) / n
        if n_positive > 0:
            mean_pos = sum(g * c for g, c in histogram.items() if g > 0) / n_positive
            mean_inv_pos = sum(c / g for g, c in histogram.items() if g > 0) / n_positive
        else:
            mean_pos = None
            mean_inv_pos = None
        return DegreeSummary(
            n=n,
            histogram=dict(sorted(histogram.items())),
            mean_degree=mean,
            max_degree=max(histogram),
            isolated_fraction=n_isolated / n,
            mean_degree_positive=mean_pos,
            mean_inverse_degree_positive=mean_inv_pos,
        )


def summarize(net: Network) -> DegreeSummary:
    """Exact empirical degree moments of a network."""
    return DegreeSummary.from_degrees(net.degree)


def _network_from_keys(n: int, keys: np.ndarray) -> Network:
    """Build a network from sorted, distinct packed edge keys ``u * n + v``, u < v.

    Every constructor in this module ends here. The cached ``degree`` and
    ``edge_arrays`` are filled from the same arrays as the adjacency.
    """
    u, v = np.divmod(keys, n)
    # For node x a stable sort by endpoint lists the smaller neighbors (edges
    # ending at x, ascending u) before the larger ones (edges starting at x,
    # ascending v), so every neighbor list comes out sorted.
    ends = np.concatenate([v, u])
    order = np.argsort(ends, kind="stable")
    neighbors = np.concatenate([u, v])[order].tolist()
    degree = np.bincount(ends, minlength=n)
    bounds = [0, *np.cumsum(degree).tolist()]
    adjacency = tuple(map(tuple, map(neighbors.__getitem__, map(slice, bounds[:-1], bounds[1:]))))
    net = Network(n=n, adjacency=adjacency)
    net.__dict__["degree"] = degree
    net.__dict__["edge_arrays"] = (u, v)
    return net


class _WordStream:
    """The 32-bit words that ``random.Random(seed)`` draws, fetched in bulk.

    ``getrandbits(32 * count)`` returns the generator's next ``count`` words
    with the first one least significant, so ``words[i]`` is the i-th
    ``genrand_uint32`` output that ``random()`` and ``randrange()`` would
    consume. A ``random()`` read at word i is ``x / 2**53`` with the 53-bit
    numerator ``x = (w[i] >> 5) * 2**26 + (w[i + 1] >> 6)``, so comparing it
    with a probability p is exactly comparing x with ``ceil(p * 2**53)``.
    """

    def __init__(self, seed: int, count: int) -> None:
        self._rng = random.Random(seed)
        self.words = np.empty(0, dtype=np.uint64)
        self.reserve(count)

    def reserve(self, count: int) -> None:
        """Hold at least ``count`` words, at least doubling the buffer when it grows."""
        if count > self.words.size:
            more = max(count, 2 * self.words.size) - self.words.size
            raw = self._rng.getrandbits(32 * more).to_bytes(4 * more, "little")
            self.words = np.concatenate([self.words, np.frombuffer(raw, dtype="<u4")])

    def coins(self, start: int, count: int) -> np.ndarray:
        """The 53-bit numerators of ``count`` back-to-back ``random()`` calls from word ``start``."""
        self.reserve(start + 2 * count)
        w = self.words[start : start + 2 * count]
        return (w[0::2] >> 5 << 26) | (w[1::2] >> 6)

    def word(self, pos: int) -> int:
        self.reserve(pos + 1)
        return int(self.words[pos])


def _below(p: float) -> int:
    """The 53-bit numerator bound: ``random() < p`` iff the numerator is below it."""
    return math.ceil(p * 2.0**53)


def generate_watts_strogatz(
    n: int, k: int, beta: float, delete_prob: float, seed: int
) -> Network:
    """Ring-lattice small-world graph with an extra edge-deletion stage.

    Starts from a ring lattice with k/2 neighbors on each side, rewires each
    edge independently with probability ``beta`` (the far endpoint is redrawn
    uniformly, rejecting self-links and duplicates), then deletes each
    surviving edge independently with probability ``delete_prob``. Plain
    rewiring never strands a node, so the deletion stage is what creates
    isolated nodes. Deterministic given ``seed`` (Mersenne Twister).

    The draws are those of ``random.Random(seed)`` in a sequential
    implementation: a ``random()`` coin per lattice edge in lattice order
    ``(i, i + j)``, ``randrange(n)`` until the target is legal for each
    rewire, then a ``random()`` coin per surviving edge in sorted order. They
    are replayed in numpy from the generator's 32-bit words: a ``random()``
    is formed from two words as CPython forms it, and ``randrange(n)`` is the
    first word w with ``w >> (32 - n.bit_length()) < n``, which holds only
    while ``n.bit_length() <= 32`` (else ParameterError). The coins are
    vectorised; only the rewires are walked in order, checking each target
    against the lattice and the edges moved or created so far.
    """
    n = operator.index(n)
    if n < 3:
        raise ParameterError("watts-strogatz requires n >= 3")
    if n.bit_length() > 32:
        raise ParameterError("watts-strogatz requires n < 2**32")
    if k % 2 != 0 or k < 0:
        raise ParameterError("k must be a nonnegative even integer")
    if k >= n:
        raise ParameterError("k must be smaller than n")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError("beta must lie in [0, 1]")
    if not 0.0 <= delete_prob <= 1.0:
        raise ParameterError("delete_prob must lie in [0, 1]")

    half = k // 2
    m = n * half  # lattice edge idx joins a = idx // half and (a + idx % half + 1) % n
    shift = 32 - n.bit_length()
    # about twice the randrange words that the rewires are expected to take
    draws = int(2 * beta * m * (1 << n.bit_length()) / (n - k))
    stream = _WordStream(seed, 4 * m + draws + 64)  # two words per coin, two coins per edge

    degree = [k] * n
    moved = bytearray(m)  # 1 where a lattice edge's far end was redrawn
    created: set[int] = set()  # keys u * n + v, u < v, of the edges they became
    pos = drawn = span = 0  # next word; words spent on randrange so far
    while True:
        end = 2 * m + drawn  # just past the last coin of the rewiring stage
        if end >= span:
            # the coin positions below span that rewire, by parity and closed
            # by a sentinel, and the first randrange draw after each
            span = max(end + 1 + draws, 2 * span)
            stream.reserve(span + 1)
            hits, targets = [], []
            for q in (0, 1):
                at = np.flatnonzero(stream.coins(q, (span - q) // 2) < _below(beta)) * 2 + q
                hits.append([*at.tolist(), span])
                targets.append((stream.words[at + 2] >> shift).tolist())
        parity = pos & 1
        i = bisect_left(hits[parity], pos)
        hit = hits[parity][i]
        if hit >= end:
            break
        idx = (hit - drawn) >> 1
        a, j = divmod(idx, half)
        pos = hit + 2
        if degree[a] >= n - 1:
            continue  # no legal target left; keep the edge in place
        c = targets[parity][i]
        pos += 1
        while True:
            if c < n and c != a:
                key = a * n + c if a < c else c * n + a
                if key not in created:
                    gap = (c - a) % n
                    if half < gap < n - half:
                        break  # not a lattice pair
                    if moved[a * half + gap - 1 if gap <= half else c * half + n - gap - 1]:
                        break  # a lattice pair whose edge was moved away
            c = stream.word(pos) >> shift
            pos += 1
        drawn = pos - 2 * (idx + 1)
        moved[idx] = 1
        created.add(key)
        degree[(a + j + 1) % n] -= 1
        degree[c] += 1

    lo = np.repeat(np.arange(n, dtype=np.int64), half)
    hi = (lo + np.tile(np.arange(1, half + 1), n)) % n
    lattice = np.minimum(lo, hi) * n + np.maximum(lo, hi)
    kept = lattice[np.frombuffer(moved, dtype=np.uint8) == 0]
    keys = np.sort(np.concatenate([kept, np.fromiter(created, np.int64, len(created))]))
    return _network_from_keys(n, keys[stream.coins(end, m) >= _below(delete_prob)])


def generate_erdos_renyi(n: int, mean_degree: float, seed: int) -> Network:
    """G(n, p) graph with p chosen to target the requested mean degree.

    Each unordered pair is linked independently with probability
    mean_degree / (n - 1). Deterministic given ``seed`` (PCG64).
    """
    if n < 2:
        raise ParameterError("erdos-renyi requires n >= 2")
    if not 0.0 < mean_degree <= n - 1:
        raise ParameterError("mean_degree must lie in (0, n-1]")

    p_edge = mean_degree / (n - 1)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    linked = rng.random(iu.size) < p_edge
    return _network_from_keys(n, iu[linked] * n + ju[linked])


def from_edge_list(rows: Iterable[tuple[int, int]], n: int) -> Network:
    """Build a network from undirected edge rows.

    Duplicate rows and opposite orientations collapse to a single edge.
    Self-loops and out-of-range indices are rejected.
    """
    if n < 0:
        raise ParameterError("n must be nonnegative")
    rows = list(rows)
    try:
        pairs = np.array(rows, dtype=np.int64).reshape(len(rows), 2)
    except OverflowError:  # an index beyond int64 is out of range; find its row below
        pairs = np.array(rows, dtype=object).reshape(len(rows), 2)
    i, j = pairs[:, 0], pairs[:, 1]
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j))
    if bad.size:
        row_idx = int(bad[0])
        i, j = rows[row_idx]
        if not (0 <= i < n and 0 <= j < n):
            raise IngestionError(f"edge row {row_idx}: index ({i}, {j}) out of range for n={n}")
        raise IngestionError(f"edge row {row_idx}: self-link ({i}, {j}) not allowed")
    i, j = i.astype(np.int64), j.astype(np.int64)
    return _network_from_keys(n, np.unique(np.minimum(i, j) * n + np.maximum(i, j)))


def to_edge_list(net: Network) -> list[tuple[int, int]]:
    """All edges as (i, j) pairs with i < j, sorted."""
    return [(i, j) for i in range(net.n) for j in net.adjacency[i] if i < j]


def read_table(
    path: str | Path, columns: Mapping[str, Callable[[str], Any]], unique: str | None = None
) -> tuple[dict[str, list], list[int]]:
    """Read the named columns of a headed CSV file, one list per column.

    Columns are found by header name and other columns are ignored. Cells are
    stripped and parsed by their column's parser; lines whose cells are all
    blank are skipped.
    A cell is bad when it is missing, its parser raises ValueError, it parses
    to a non-finite float, or it repeats an earlier value of the ``unique``
    column. Any bad cell raises IngestionError naming ``path:line`` and the
    first 20 bad lines of each column. Returns the columns and the file line
    of each row.
    """
    values: dict[str, list] = {name: [] for name in columns}
    bad: dict[str, tuple[str, list[int]]] = {}
    lines: list[int] = []
    first_line: dict[Any, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [cell.strip() for cell in next(reader, [])]
        missing = [name for name in columns if name not in header]
        if missing:
            raise IngestionError(f"{path}:1: missing columns {missing} in header {header}")
        slots = [(name, header.index(name), parse, values[name]) for name, parse in columns.items()]
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            line = reader.line_num
            lines.append(line)
            for name, index, parse, out in slots:
                try:
                    if index >= len(row):
                        raise ValueError("missing cell")
                    value = parse(row[index].strip())
                    if isinstance(value, float) and not math.isfinite(value):
                        raise ValueError(f"non-finite number {value!r}")
                    if name == unique and first_line.setdefault(value, line) != line:
                        raise ValueError(f"duplicate {value!r}, first on line {first_line[value]}")
                    out.append(value)
                except ValueError as exc:
                    bad.setdefault(name, (str(exc), []))[1].append(line)
    if bad:
        raise IngestionError("; ".join(
            f"{path}:{at[0]}: column {name!r}: {error}; bad lines {at[:20]}"
            for name, (error, at) in bad.items()
        ))
    return values, lines


def nonnegative_int(cell: str) -> int:
    """Parse a table cell holding a node index, a degree or a count."""
    value = int(cell)
    if value < 0:
        raise ValueError(f"negative integer {value}")
    return value


def read_edge_csv(path: str | Path) -> list[tuple[int, int]]:
    """Read an edge-list CSV with columns ``src,dst`` holding 0-based node indices."""
    columns, _ = read_table(path, {"src": nonnegative_int, "dst": nonnegative_int})
    return list(zip(columns["src"], columns["dst"]))


def write_edge_csv(net: Network, path: str | Path) -> None:
    """Write the edge list as a ``src,dst`` CSV (one row per undirected edge)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        writer.writerows(to_edge_list(net))
