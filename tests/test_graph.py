import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_watts_strogatz
from spillnet.errors import IngestionError, ParameterError
from spillnet.graph import (
    WS_CALIBRATED,
    DegreeSummary,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
    read_edge_csv,
    summarize,
    to_edge_list,
    write_edge_csv,
)
from spillnet.montecarlo import derive_seed


def test_ws_ring_without_rewiring_or_deletion_is_a_cycle():
    net = generate_watts_strogatz(10, 2, beta=0.0, delete_prob=0.0, seed=123)
    assert np.all(net.degree == 2)
    for i in range(10):
        assert net.adjacency[i] == tuple(sorted(((i - 1) % 10, (i + 1) % 10)))


def test_ws_full_deletion_gives_empty_graph():
    net = generate_watts_strogatz(6, 2, beta=0.0, delete_prob=1.0, seed=9)
    assert np.all(net.degree == 0)
    assert summarize(net).isolated_fraction == 1.0


def test_ws_calibrated_matches_reference_degree_profile():
    # roughly 10% isolated, mean degree 2, max degree near 7 at n = 1000
    isos, means, maxes = [], [], []
    for seed in range(5):
        s = summarize(
            generate_watts_strogatz(1000, seed=seed, **WS_CALIBRATED)
        )
        isos.append(s.isolated_fraction)
        means.append(s.mean_degree)
        maxes.append(s.max_degree)
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


def _replay_cases():
    k, beta, delete_prob = (WS_CALIBRATED[key] for key in ("k", "beta", "delete_prob"))
    calibrated = [
        (1000, k, beta, delete_prob, derive_seed(20240601, rep, "graph"))
        for rep in range(200)
    ]
    extremes = [
        (n, k, beta, delete_prob, seed)
        for n, k in ((10, 2), (40, 6))
        for beta in (0.0, 1.0)
        for delete_prob in (0.0, 1.0)
        for seed in (0, 1)
    ]
    # seeds 22, 30 and 33 rewire an edge of a node that has no legal target left
    dense = [(9, 6, 0.9, 0.5, seed) for seed in range(40)]
    # these rewires read past the words and coins fetched up front
    long_draws = [(6, 4, 0.5, 0.5, 2), (5, 2, 0.9, 0.5, 0)]
    return calibrated + extremes + [(1000, 8, 0.25, 0.75, 0)] + dense + long_draws


def test_ws_replays_the_sequential_generator():
    for case in _replay_cases():
        assert generate_watts_strogatz(*case) == reference_watts_strogatz(*case), case


def test_er_complete_graph_at_maximum_mean_degree():
    net = generate_erdos_renyi(5, mean_degree=4, seed=0)
    assert np.all(net.degree == 4)


def test_er_vanishing_mean_degree_gives_empty_graph():
    net = generate_erdos_renyi(2, mean_degree=1e-12, seed=4)
    assert np.all(net.degree == 0)


def test_er_isolated_fraction_matches_poisson_limit():
    # Pr(degree = 0) -> exp(-2) for mean degree 2 as n grows
    isos = [
        summarize(generate_erdos_renyi(1000, 2.0, seed=s)).isolated_fraction
        for s in range(200)
    ]
    assert abs(np.mean(isos) - math.exp(-2)) <= 0.01


def test_er_mean_degree_converges_with_binomial_error():
    n, target, n_seeds = 400, 3.0, 60
    means = [
        summarize(generate_erdos_renyi(n, target, seed=s)).mean_degree
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


def test_from_edge_list_deduplicates_and_symmetrizes():
    net = from_edge_list([(0, 1), (1, 0), (0, 1)], n=3)
    assert to_edge_list(net) == [(0, 1)]
    assert net.degree.tolist() == [1, 1, 0]


def test_from_edge_list_empty_graph():
    net = from_edge_list([], n=4)
    assert summarize(net).isolated_fraction == 1.0


def test_from_edge_list_rejects_self_loops_and_bad_indices():
    with pytest.raises(IngestionError):
        from_edge_list([(0, 0)], n=2)
    with pytest.raises(IngestionError):
        from_edge_list([(0, 5)], n=3)
    with pytest.raises(IngestionError):
        from_edge_list([(-1, 0)], n=3)


def test_edge_list_round_trip():
    net = generate_watts_strogatz(150, 6, 0.4, 0.5, seed=5)
    assert from_edge_list(to_edge_list(net), n=net.n) == net


def test_edge_csv_round_trip(tmp_path):
    net = generate_erdos_renyi(60, 2.5, seed=11)
    path = tmp_path / "edges.csv"
    write_edge_csv(net, path)
    assert from_edge_list(read_edge_csv(path), n=net.n) == net


def test_edge_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("a,b\n0,1\n")
    with pytest.raises(IngestionError):
        read_edge_csv(path)
    # a bad cell is reported at its file line, blank lines included
    path.write_text("src,dst\n0,1\n\n1,x\n2,-1\n")
    with pytest.raises(IngestionError, match=r"edges.csv:4: column 'dst': .*; bad lines \[4, 5\]"):
        read_edge_csv(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_watts_strogatz(80, 4, 0.5, 0.6, seed=3),
        lambda: generate_erdos_renyi(80, 2.0, seed=3),
        lambda: from_edge_list([(0, 1), (2, 3), (1, 2)], n=6),
    ],
)
def test_generated_networks_satisfy_invariants(make):
    make().check_invariants()


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
    net.check_invariants()
    assert from_edge_list(to_edge_list(net), n=n) == net


def test_summary_hand_example():
    s = DegreeSummary.from_degrees([0, 2, 2])
    assert s.mean_degree == pytest.approx(4 / 3)
    assert s.positive_share == pytest.approx(2 / 3)
    assert s.mean_degree_positive == pytest.approx(2.0)
    assert s.mean_inverse_degree_positive == pytest.approx(0.5)


def test_summary_mean_inverse_degree_hand_arithmetic():
    s = DegreeSummary.from_degrees([1, 1, 2, 4])
    assert s.mean_inverse_degree_positive == pytest.approx((1 + 1 + 0.5 + 0.25) / 4)


def test_summary_all_isolated_marks_conditionals_undefined():
    s = DegreeSummary.from_degrees([0, 0, 0])
    assert s.isolated_fraction == 1.0
    assert s.mean_degree_positive is None
    assert s.mean_inverse_degree_positive is None


def test_summary_positive_mean_never_below_overall_mean():
    for seed in range(10):
        s = summarize(generate_erdos_renyi(100, 1.5, seed=seed))
        if s.mean_degree_positive is None:
            continue
        assert s.mean_degree_positive >= s.mean_degree
        if s.isolated_fraction == 0.0:
            assert s.mean_degree_positive == pytest.approx(s.mean_degree)


def test_summary_histogram_counts_match_n():
    s = summarize(generate_watts_strogatz(123, 4, 0.2, 0.5, seed=1))
    assert sum(s.histogram.values()) == 123
    assert s.isolated_fraction == s.histogram.get(0, 0) / 123
