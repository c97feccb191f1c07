import csv
import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    check_invariants, edge_pairs, neighbor_lists, reference_read_table, reference_watts_strogatz,
    round_watts_strogatz,
)
from spillnet.errors import IngestionError, ParameterError
from spillnet.graph import (
    WS_CALIBRATED,
    DegreeSummary,
    Network,
    distinct,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
    read_table,
)


def test_ws_ring_without_rewiring_or_deletion_is_a_cycle():
    net = generate_watts_strogatz(10, 2, beta=0.0, delete_prob=0.0, seed=123)
    assert np.all(net.degree == 2)
    neighbors = neighbor_lists(net)
    for i in range(10):
        assert neighbors[i] == sorted(((i - 1) % 10, (i + 1) % 10))
    n, k = 40, 6
    lattice = from_edge_list([(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)], n)
    for seed in range(20):
        assert generate_watts_strogatz(n, k, beta=0.0, delete_prob=0.0, seed=seed) == lattice


def test_ws_full_deletion_gives_empty_graph():
    net = generate_watts_strogatz(6, 2, beta=0.0, delete_prob=1.0, seed=9)
    assert np.all(net.degree == 0)
    assert DegreeSummary.of(net.degree).isolated_fraction == 1.0
    for beta in (0.5, 1.0):
        for seed in range(20):
            assert generate_watts_strogatz(40, 6, beta, delete_prob=1.0, seed=seed).u.size == 0


def test_ws_calibrated_matches_reference_degree_profile():
    # roughly 10% isolated, mean degree 2, max degree near 7 at n = 1000
    isos, means, maxes = [], [], []
    for seed in range(5):
        s = DegreeSummary.of(generate_watts_strogatz(1000, seed=seed, **WS_CALIBRATED).degree)
        isos.append(s.isolated_fraction)
        means.append(s.mean_degree)
        maxes.append(s.degrees[-1])
    assert abs(np.mean(isos) - 0.10) <= 0.03
    assert abs(np.mean(means) - 2.0) <= 0.3
    assert abs(np.mean(maxes) - 7.0) <= 3.0


def test_ws_is_deterministic_given_seed():
    a = generate_watts_strogatz(200, 4, 0.3, 0.4, seed=77)
    b = generate_watts_strogatz(200, 4, 0.3, 0.4, seed=77)
    assert a == b
    c = generate_watts_strogatz(200, 4, 0.3, 0.4, seed=78)
    assert a != c


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2, k=2, beta=0.1, delete_prob=0.0),
        dict(n=10, k=3, beta=0.1, delete_prob=0.0),
        dict(n=10, k=10, beta=0.1, delete_prob=0.0),
        dict(n=10, k=2, beta=1.5, delete_prob=0.0),
        dict(n=10, k=2, beta=0.1, delete_prob=-0.2),
        dict(n=2**32, k=2, beta=0.1, delete_prob=0.0),
    ],
)
def test_ws_rejects_bad_parameters(kwargs):
    with pytest.raises(ParameterError):
        generate_watts_strogatz(seed=1, **kwargs)


def _ws_profile(net: Network) -> list[float]:
    degree = net.degree
    return [net.u.size, np.mean(degree == 0), degree.max(),
            *(np.mean(degree == g) for g in range(1, 8))]


def test_ws_matches_the_sequential_generator_in_distribution():
    # The claim rounds settle rewires in a different order from the
    # sequential reference, so the graphs differ seed by seed but should
    # agree in distribution on sparse graphs. Dense ones (k close to n, as at
    # n <= 12) differ measurably and are not compared: over 3,000 seeds
    # without deletion, the mean count of degree-4 nodes has |z| = 3.3 at
    # n = 9, k = 6, beta = 0.9, and degree counts reach |z| > 40 at n = 12,
    # k = 10.
    n_seeds = 2000
    profiles = [
        np.array([
            _ws_profile(generate(200, seed=seed, **WS_CALIBRATED)) for seed in range(n_seeds)
        ])
        for generate in (generate_watts_strogatz, reference_watts_strogatz)
    ]
    ours, theirs = profiles
    pooled_se = np.sqrt((ours.var(axis=0, ddof=1) + theirs.var(axis=0, ddof=1)) / n_seeds)
    z = (ours.mean(axis=0) - theirs.mean(axis=0)) / pooled_se
    assert (np.abs(z) <= 4.5).all(), z.round(2)


def test_ws_equals_its_claim_rounds_one_claim_at_a_time():
    # dense graphs, where claims collide and full nodes wait on lower rewires,
    # and sparse ones; even seeds without deletion, odd ones with
    cases = [(n, k, 30) for n, k in ((9, 6), (9, 4), (12, 10), (16, 14), (25, 22), (40, 6),
                                     (200, 8))]
    cases.append((40, 38, 8))
    for n, k, n_seeds in cases:
        for beta in (0.5, 1.0):
            for seed in range(n_seeds):
                delete_prob = 0.5 * (seed % 2)
                assert (generate_watts_strogatz(n, k, beta, delete_prob, seed)
                        == round_watts_strogatz(n, k, beta, delete_prob, seed)), (n, k, beta, seed)


@pytest.mark.parametrize("n, k", [(3, 2), (9, 6), (12, 10), (40, 6)])
def test_ws_rewiring_keeps_every_edge(n, k):
    for beta in (0.9, 1.0):
        for seed in range(300):
            net = generate_watts_strogatz(n, k, beta, delete_prob=0.0, seed=seed)
            check_invariants(net)
            assert net.u.size == n * k // 2, (beta, seed)


def test_er_complete_graph_at_maximum_mean_degree():
    net = generate_erdos_renyi(5, mean_degree=4, seed=0)
    assert np.all(net.degree == 4)


def test_er_vanishing_mean_degree_gives_empty_graph():
    net = generate_erdos_renyi(2, mean_degree=1e-12, seed=4)
    assert np.all(net.degree == 0)
    # at p = 1e-300 every geometric gap is 2**63 - 1, whose cumulative sum
    # would wrap negative unclipped; at 5e-324 / 9 the edge probability is 0.0
    for n, mean_degree in ((2, 1e-300), (10, 1e-300), (10, 5e-324)):
        for seed in range(5):
            net = generate_erdos_renyi(n, mean_degree, seed=seed)
            assert np.all(net.degree == 0), (n, mean_degree, seed)


def test_er_links_every_pair_at_rate_p():
    n, mean_degree, n_seeds = 6, 1.5, 3000
    p_edge = mean_degree / (n - 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    counts = dict.fromkeys(pairs, 0)
    for seed in range(n_seeds):
        net = generate_erdos_renyi(n, mean_degree, seed=seed)
        for pair in zip(net.u.tolist(), net.v.tolist()):
            counts[pair] += 1  # a KeyError here is a pair outside i < j < n
    bound = 4.5 * math.sqrt(n_seeds * p_edge * (1 - p_edge))
    # the first and last pair positions, where an off-by-one in the
    # position -> pair map would show first
    assert abs(counts[(0, 1)] - n_seeds * p_edge) <= bound
    assert abs(counts[(4, 5)] - n_seeds * p_edge) <= bound
    for pair, count in counts.items():
        assert abs(count - n_seeds * p_edge) <= bound, pair


def test_er_at_200k_nodes_has_binomial_edge_count():
    # a draw over all n(n-1)/2 ~ 2e10 pairs would not fit in memory
    n, mean_degree = 200_000, 2.0
    net = generate_erdos_renyi(n, mean_degree, seed=8)
    pairs = n * (n - 1) / 2
    p_edge = mean_degree / (n - 1)
    edges = net.u.size
    assert abs(edges - pairs * p_edge) <= 5 * math.sqrt(pairs * p_edge * (1 - p_edge))
    assert int(net.degree.sum()) == 2 * edges


def test_er_isolated_fraction_matches_poisson_limit():
    # Pr(degree = 0) -> exp(-2) for mean degree 2 as n grows
    isos = [
        DegreeSummary.of(generate_erdos_renyi(1000, 2.0, seed=s).degree).isolated_fraction
        for s in range(200)
    ]
    assert abs(np.mean(isos) - math.exp(-2)) <= 0.01


def test_er_mean_degree_converges_with_binomial_error():
    n, target, n_seeds = 400, 3.0, 60
    means = [
        DegreeSummary.of(generate_erdos_renyi(n, target, seed=s).degree).mean_degree
        for s in range(n_seeds)
    ]
    p_edge = target / (n - 1)
    pairs = n * (n - 1) / 2
    var_mean_degree = (2.0 / n) ** 2 * pairs * p_edge * (1 - p_edge)
    se = math.sqrt(var_mean_degree / n_seeds)
    assert abs(np.mean(means) - target) <= 3 * se


def test_er_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        generate_erdos_renyi(1, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_erdos_renyi(10, 0.0, seed=0)
    with pytest.raises(ParameterError):
        generate_erdos_renyi(10, 9.5, seed=0)
    with pytest.raises(ParameterError):
        generate_erdos_renyi(2**32, 2.0, seed=0)


def test_from_edge_list_deduplicates_and_symmetrizes():
    net = from_edge_list([(0, 1), (1, 0), (0, 1)], n=3)
    assert edge_pairs(net) == [(0, 1)]
    assert net.degree.tolist() == [1, 1, 0]


def test_from_edge_list_empty_graph():
    net = from_edge_list([], n=4)
    assert DegreeSummary.of(net.degree).isolated_fraction == 1.0


def test_from_edge_list_rejects_self_loops_and_bad_indices():
    with pytest.raises(IngestionError):
        from_edge_list([(0, 0)], n=2)
    with pytest.raises(IngestionError):
        from_edge_list([(0, 5)], n=3)
    with pytest.raises(IngestionError):
        from_edge_list([(-1, 0)], n=3)
    for rows in ([(0.9, 2.5)], np.array([[0.5, 1.7]]), [(0, 1), (1, 2.5)]):
        with pytest.raises(ParameterError, match="^edge indices must be signed integers"):
            from_edge_list(rows, n=3)


def test_edge_list_round_trip():
    net = generate_watts_strogatz(150, 6, 0.4, 0.5, seed=5)
    assert from_edge_list(edge_pairs(net), n=net.n) == net


def test_read_table_returns_the_row_of_each_unique_value(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("id,x\na,1\n\nb,2\nc,3\n")
    columns, lines, index = read_table(path, {"id": str, "x": int}, unique="id")
    assert columns == {"id": ["a", "b", "c"], "x": [1, 2, 3]}
    assert list(lines) == [2, 4, 5]
    assert index == {"a": 0, "b": 1, "c": 2}
    assert read_table(path, {"x": int})[2] == {}
    path.write_text("id,x\na,1\n\nb,2\na,3\n")
    with pytest.raises(IngestionError, match=(
        r"units.csv:5: column 'id': duplicate 'a', first on line 2; bad lines \[5\]$"
    )):
        read_table(path, {"id": str, "x": int}, unique="id")


def test_read_table_names_every_bad_column_in_order_of_its_first_bad_line(tmp_path):
    path = tmp_path / "units.csv"
    # a nan and an inf, a short row and a repeated id, each column in its own way
    path.write_text("id,x,y\na,1.5,1\nb,nan,2\nc,2.5\n\na,3.0,4\nd,inf,5\n")
    with pytest.raises(IngestionError) as info:
        read_table(path, {"id": str, "x": float, "y": int}, unique="id")
    assert str(info.value) == (
        f"{path}:3: column 'x': non-finite number nan; bad lines [3, 7]; "
        f"{path}:4: column 'y': missing cell; bad lines [4]; "
        f"{path}:6: column 'id': duplicate 'a', first on line 2; bad lines [6]"
    )
    # the later column's bad cell comes first in the file, so it is named first
    path.write_text("a,b\n1,x\n2,3\ny,4\n")
    with pytest.raises(IngestionError) as info:
        read_table(path, {"a": int, "b": int})
    assert str(info.value) == (
        f"{path}:2: column 'b': invalid literal for int() with base 10: 'x'; bad lines [2]; "
        f"{path}:4: column 'a': invalid literal for int() with base 10: 'y'; bad lines [4]"
    )


def test_read_table_puts_a_row_that_spans_lines_at_its_last_line(tmp_path):
    path = tmp_path / "units.csv"
    # quoted cells break lines with \n, \r\n and \r; a break in the header counts too
    path.write_bytes(b'id,"x\r\n"\r\n"a\nb",1\r\nc,2\r\n\r\n"d\r\ne\r",3\n')
    columns, lines, _ = read_table(path, {"id": str, "x": int}, unique="id")
    assert columns == {"id": ["a\nb", "c", "d\r\ne"], "x": [1, 2, 3]}
    assert list(lines) == [4, 5, 9]
    # a quote left open at the end of the file holds the last line break
    path.write_bytes(b'id,x\n"a\nb",1\nc,"2\n')
    columns, lines, _ = read_table(path, {"id": str, "x": int})
    assert (columns, list(lines)) == ({"id": ["a\nb", "c"], "x": [1, 2]}, [3, 4])
    path.write_bytes(b'id,x\nc,"2\n')
    assert list(read_table(path, {"x": int})[1]) == [2]


def test_read_table_gives_the_lines_of_a_table_with_one_line_per_row_as_a_range(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("id,x\na,1\nb,2\n")
    assert read_table(path, {"id": str, "x": int})[1] == range(2, 4)


@pytest.mark.parametrize("enabled", [True, False])
def test_read_table_pauses_the_collector_and_leaves_it_as_it_found_it(tmp_path, enabled):
    path = tmp_path / "table.csv"
    seen = []  # the collector's state while each cell of x is parsed

    def parse(cell):
        seen.append(gc.isenabled())
        return int(cell)

    tables = [
        (b"id,x\na,1\nb,2\n", None),
        (b"id,x\na,1\nb,z\n", "column 'x': invalid literal"),
        (b"id,y\na,1\n", "missing columns"),
        (b"id,x\na," + b"9" * (csv.field_size_limit() + 1) + b"\n", "malformed CSV"),
        (b"id,x\na,\xff\n", "not UTF-8 text"),
    ]
    collecting = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for data, error in tables:
            path.write_bytes(data)
            if error is None:
                assert read_table(path, {"id": str, "x": parse})[0]["x"] == [1, 2]
            else:
                with pytest.raises(IngestionError, match=error):
                    read_table(path, {"id": str, "x": parse})
            assert gc.isenabled() is enabled, error
    finally:
        (gc.enable if collecting else gc.disable)()
    assert seen and not any(seen)


_CELLS = ["a", "b", " c ", "1", " 2", "-3", "2.5", "nan", "inf", "x", "", "  ", '"q,1"', '"7"',
          '"a\nb"', '"a\r\nb"', '"a\rb"', '" 4\r\n"', '"a""b"', '"\n"']
_BLANK_LINES = ["", "   ", ",,", " , ,"]
_HEADERS = ["", "id,x,y", " y , id ,x,extra", "id,x", '"id",x,"y"', "\ufeffid,x,y", 'id,"x\r\n",y',
            '"i\nd",x,y']
_COLUMNS = [({"id": str, "x": int, "y": float}, "id"), ({"id": str, "x": int}, None),
            ({"y": float, "id": str}, "id"), ({"x": int}, "x"),
            # the blank-row filter rests on a str column that is never the header's first
            ({"x": str, "y": float, "id": str}, "x")]


@st.composite
def csv_texts(draw):
    """A headed CSV text with quoted line breaks, mixed line endings, blank and short rows."""
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    line = st.one_of(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=4).map(",".join),
                     st.sampled_from(_BLANK_LINES))
    parts = [draw(st.sampled_from(_HEADERS)), draw(endings)]
    for text, ending in draw(st.lists(st.tuples(line, endings), max_size=12)):
        parts += [text, ending]
    if draw(st.booleans()):
        parts.pop()  # no line break after the last row
    parts.append(draw(st.sampled_from(["", '9,"open', '9,"open\n', '"open\r\n'])))
    return "".join(parts)


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), columns=st.sampled_from(_COLUMNS))
def test_read_table_equals_a_per_row_reader(tmp_path_factory, text, columns):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text.encode("utf-8"))

    def outcome(read):
        try:
            values, lines, row_of = read(path, *columns)
            return values, list(lines), row_of
        except IngestionError as exc:
            return str(exc)

    assert outcome(read_table) == outcome(reference_read_table)


def test_from_edge_list_rejects_an_index_beyond_int64():
    for rows in ([(0, 1), (2**63, 1)], [(2**64, 1)], np.array([(0, 1)], dtype=np.uint64)):
        with pytest.raises(ParameterError) as info:
            from_edge_list(rows, n=3)
        assert str(info.value) == "edge indices must be signed integers below 2**63"


def test_from_edge_list_requires_packed_edge_keys_to_fit_int64():
    # edges are packed as u * n + v, which must not wrap around
    with pytest.raises(ParameterError, match=r"^from_edge_list requires n \* n < 2\*\*63$"):
        from_edge_list([(2**32 - 2, 2**32 - 1)], n=2**32)
    n = 3_037_000_499  # the largest n with n * n < 2**63
    assert edge_pairs(from_edge_list([(n - 1, n - 2)], n=n)) == [(n - 2, n - 1)]
    # an int32 array is widened before packing: 99,998 * 100,000 is beyond int32
    net = from_edge_list(np.array([(99_999, 99_998)], dtype=np.int32), n=100_000)
    assert edge_pairs(net) == [(99_998, 99_999)]


def test_from_edge_list_takes_an_index_array():
    rows = [(0, 1), (2, 1), (1, 0)]
    net = from_edge_list(np.array(rows), n=4)
    assert net == from_edge_list(rows, n=4)
    assert edge_pairs(net) == [(0, 1), (1, 2)]
    with pytest.raises(IngestionError, match=r"^edge row 2: self-link \(3, 3\) not allowed$"):
        from_edge_list(np.array([(0, 1), (1, 2), (3, 3)]), n=4)
    with pytest.raises(IngestionError, match=r"^edge row 1: index \(1, 4\) out of range for n=4$"):
        from_edge_list(np.array([(0, 1), (1, 4)]), n=4)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), m=st.integers(0, 60))
def test_distinct_and_network_keys_equal_np_unique(n, seed, m):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(m, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])
    assert np.array_equal(distinct(keys), np.unique(keys))
    assert distinct(keys).dtype == keys.dtype
    net = from_edge_list(pairs, n)
    assert np.array_equal(net.u * n + net.v, np.unique(keys))


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_watts_strogatz(80, 4, 0.5, 0.6, seed=3),
        lambda: generate_erdos_renyi(80, 2.0, seed=3),
        lambda: generate_erdos_renyi(6, 5.0, seed=1),
        lambda: generate_erdos_renyi(2000, 3.0, seed=7),
        lambda: from_edge_list([(0, 1), (2, 3), (1, 2)], n=6),
    ],
)
def test_generated_networks_satisfy_invariants(make):
    check_invariants(make())


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_arbitrary_edge_lists_satisfy_invariants(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=20,
        )
    )
    pairs = [(i, j) for i, j in pairs if i != j]
    net = from_edge_list(pairs, n=n)
    check_invariants(net)
    assert from_edge_list(edge_pairs(net), n=n) == net


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=120),
    data=st.data(),
    beta=st.floats(min_value=0.0, max_value=1.0),
    delete_prob=st.sampled_from([0.0, 0.3, 0.75, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_ws_graphs_satisfy_invariants(n, data, beta, delete_prob, seed):
    k = 2 * data.draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    net = generate_watts_strogatz(n, k, beta, delete_prob, seed)
    check_invariants(net)
    if delete_prob == 0.0:
        assert net.u.size == n * k // 2


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=3000),
    mean_degree=st.floats(min_value=1e-6, max_value=20.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_er_graphs_satisfy_invariants(n, mean_degree, seed):
    net = generate_erdos_renyi(n, min(mean_degree, n - 1), seed)
    check_invariants(net)


@pytest.mark.parametrize(
    "n, pairs",
    [
        (3, [(1, 0)]),
        (3, [(1, 1)]),
        (3, [(0, 1), (0, 1)]),
        (3, [(1, 2), (0, 1)]),
        (3, [(0, 3)]),
    ],
    ids=["u_above_v", "self_link", "repeated", "unsorted", "v_out_of_range"],
)
def test_check_invariants_rejects_malformed_edges(n, pairs):
    net = Network(n, *np.array(pairs, dtype=np.int64).T)
    with pytest.raises(AssertionError):
        check_invariants(net)


def test_network_arrays_are_read_only():
    net = generate_erdos_renyi(50, 2.0, seed=2)
    for values in (net.u, net.v, net.degree):
        with pytest.raises(ValueError):
            values[0] = 7


def test_network_equality():
    net = from_edge_list([(0, 1), (1, 2)], n=4)
    assert net == from_edge_list([(2, 1), (1, 0)], n=4)
    assert not net != from_edge_list([(2, 1), (1, 0)], n=4)
    assert net != from_edge_list([(0, 1)], n=4)
    assert net != from_edge_list([(0, 1), (0, 2)], n=4)  # other u, same v
    assert net != from_edge_list([(0, 2), (1, 2)], n=4)  # same u, other v
    assert net != from_edge_list([(0, 1), (1, 2)], n=5)
    assert not net == "x"
    assert net != "x"


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_watts_strogatz(300, seed=4, **WS_CALIBRATED),
        lambda: generate_erdos_renyi(300, 2.0, seed=4),
    ],
)
def test_network_survives_pickling(make):
    # workers > 1 send a fixed network to the pool by pickling it
    net = make()
    copy = pickle.loads(pickle.dumps(net))
    assert copy == net
    assert np.array_equal(copy.degree, net.degree)
    with pytest.raises(ValueError):
        copy.u[0] = 1

@pytest.mark.parametrize(
    "degree",
    [
        generate_watts_strogatz(500, seed=3, **WS_CALIBRATED).degree,
        generate_erdos_renyi(500, 2.0, seed=3).degree,
        from_edge_list([], n=7).degree,  # an edgeless graph
        np.zeros(4, dtype=np.int64),  # an all-isolated histogram
        np.array([0, 5, 5, 0, 5, 5]),  # degrees with a gap
    ],
    ids=["ws", "er", "edgeless", "all_isolated", "gap"],
)
def test_summary_of_one_network_equals_np_unique(degree):
    degrees, counts = np.unique(degree, return_counts=True)
    for summary in (DegreeSummary.of(degree), DegreeSummary.of(degree[None])):
        assert summary.degrees.dtype == summary.counts.dtype == np.int64
        assert np.array_equal(summary.degrees, degrees)
        assert np.array_equal(summary.counts, counts[None])


def test_summary_of_rejects_a_negative_degree_or_no_node():
    for degree in (np.array([2, -1]), np.array([], dtype=np.int64), np.empty((2, 0), np.int64)):
        with pytest.raises(ParameterError, match="nonnegative, with at least one node"):
            DegreeSummary.of(degree)


def test_summary_hand_example():
    s = DegreeSummary.of(np.array([0, 2, 2]))
    assert s.mean_degree == pytest.approx(4 / 3)
    assert s.positive_share == pytest.approx(2 / 3)
    assert s.mean_degree_positive == pytest.approx(2.0)
    assert s.mean_inverse_degree_positive == pytest.approx(0.5)


def test_summary_validates_each_network_of_its_block():
    block = DegreeSummary(np.array([0, 2]), np.array([[1, 0], [0, 3]]))
    assert block.n.tolist() == [[1], [3]] and block.mean_degree.tolist() == [[0.0], [2.0]]
    # each network's count sum, not the block's, must stay below 2**63
    DegreeSummary(np.array([0, 1]), np.array([[2**62, 2**62 - 1]] * 2))
    for degrees, counts in (
        ([0, 2], [[1, 0], [0, 0]]),  # a network without nodes
        ([0, 2], [[1, 0], [2, 0]]),  # a degree no node has
        ([2, 0], [[1, 1]]),  # unsorted degrees
        ([0, 2], [[1, -1]]),  # a negative count
        ([0, 2], [1, 1]),  # not one row of counts per network
        ([0, 1], [[2**62, 2**62]]),  # a sum of 2**63
    ):
        with pytest.raises(ParameterError):
            DegreeSummary(np.array(degrees), np.array(counts))


def test_summary_mean_inverse_degree_hand_arithmetic():
    s = DegreeSummary.of(np.array([1, 1, 2, 4]))
    assert s.mean_inverse_degree_positive == pytest.approx((1 + 1 + 0.5 + 0.25) / 4)


def test_summary_all_isolated_marks_conditionals_undefined():
    s = DegreeSummary.of(np.array([0, 0, 0]))
    assert s.isolated_fraction == 1.0
    assert np.isnan(s.mean_degree_positive)
    assert np.isnan(s.mean_inverse_degree_positive)


def test_summary_positive_mean_never_below_overall_mean():
    for seed in range(10):
        s = DegreeSummary.of(generate_erdos_renyi(100, 1.5, seed=seed).degree)
        if np.isnan(s.mean_degree_positive):
            continue
        assert s.mean_degree_positive >= s.mean_degree
        if s.isolated_fraction == 0.0:
            assert s.mean_degree_positive == pytest.approx(s.mean_degree)


def test_summary_histogram_counts_match_n():
    s = DegreeSummary.of(generate_watts_strogatz(123, 4, 0.2, 0.5, seed=1).degree)
    assert s.counts.sum() == s.n == 123
    assert s.isolated_fraction == (s.counts[0, 0] if s.degrees[0] == 0 else 0) / 123
