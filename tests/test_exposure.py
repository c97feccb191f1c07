import numpy as np
import pytest

from helpers import csv_lines, exact_dbar_star_moments, reference_exposure_diagnostics, rep_cells
from spillnet.errors import ParameterError
from spillnet.estimators import empirical_exposure_diagnostics
from spillnet.exposure import (
    assign_bernoulli,
    compute_exposure,
    cov_dbar_star_degree_closed_form,
    scatter_rows,
)
from spillnet.graph import (
    WS_CALIBRATED,
    DegreeSummary,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
)


def test_bernoulli_is_deterministic_and_binary():
    a = assign_bernoulli(50, 0.5, seed=10)
    b = assign_bernoulli(50, 0.5, seed=10)
    assert a.dtype == np.int64 and np.array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1}
    c = assign_bernoulli(3, 0.99, seed=1)
    assert set(np.unique(c)) <= {0, 1}


def test_bernoulli_mean_within_three_binomial_ses():
    n = 100_000
    se = np.sqrt(0.25 / n)
    for seed in range(10):
        d = assign_bernoulli(n, 0.5, seed=seed)
        assert abs(d.mean() - 0.5) <= 3 * se


def test_bernoulli_rejects_degenerate_probabilities():
    for p in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ParameterError):
            assign_bernoulli(10, p, seed=0)


def _scatter_rows(net, d):
    """The data rows of the scatter CSV of (net, d): node, degree, dbar, dbar_star, isolated."""
    return csv_lines(scatter_rows(net.degree, compute_exposure(net, d)))[1:]


def test_exposure_on_path_graph_by_hand():
    net = from_edge_list([(0, 1), (1, 2)], n=3)
    d = np.array([1, 0, 1])
    t = compute_exposure(net, d)
    assert t.dtype == np.int64 and t.tolist() == [0, 2, 0]
    assert net.degree.tolist() == [1, 2, 1]
    assert _scatter_rows(net, d) == ["0,1,0.0,0.0,0", "1,2,1.0,1.0,0", "2,1,0.0,0.0,0"]


def test_exposure_marks_isolated_nodes_as_absent():
    net = from_edge_list([(0, 1)], n=3)
    d = np.array([1, 1, 1])
    assert compute_exposure(net, d)[2] == 0
    assert _scatter_rows(net, d)[2] == "2,0,,0.0,1"  # no dbar, dbar_star 0


def test_exposure_star_center_half_treated():
    net = from_edge_list([(0, 1), (0, 2), (0, 3), (0, 4)], n=5)
    d = np.array([0, 1, 1, 0, 0])
    assert compute_exposure(net, d)[0] == 2
    assert _scatter_rows(net, d)[0] == "0,4,0.5,0.5,0"


def test_exposure_length_mismatch_raises():
    net = from_edge_list([(0, 1)], n=2)
    with pytest.raises(ParameterError):
        compute_exposure(net, np.array([1, 0, 1]))


def test_treated_counts_bounded_and_conserve_mass():
    for seed in range(8):
        net = generate_erdos_renyi(70, 2.5, seed=seed)
        d = assign_bernoulli(70, 0.4, seed=seed + 100)
        t = compute_exposure(net, d)
        assert np.all(t <= net.degree)
        assert np.all(t >= 0)
        # each treated node contributes its degree to the total count
        assert t.sum() == int((net.degree * d).sum())


def test_mean_treated_count_is_degree_times_p():
    net = generate_watts_strogatz(300, 4, 0.3, 0.4, seed=2)
    p, n_seeds = 0.4, 800
    totals = np.zeros(net.n)
    for seed in range(n_seeds):
        totals += compute_exposure(net, assign_bernoulli(net.n, p, seed=seed))
    avg = totals / n_seeds
    se = np.sqrt(np.maximum(net.degree, 1) * p * (1 - p) / n_seeds)
    inside = np.abs(avg - net.degree * p) <= 3 * se
    # a few 3-sigma misses among 300 nodes are expected
    assert inside.mean() > 0.98


def test_closed_form_cov_hand_value():
    summary = DegreeSummary.from_histogram({0: 1, 2: 1})
    assert cov_dbar_star_degree_closed_form(summary, 0.5) == pytest.approx(0.25)


def test_closed_form_cov_zero_without_isolation_or_edges():
    no_iso = DegreeSummary.of(np.array([2, 2, 3, 3]))
    assert cov_dbar_star_degree_closed_form(no_iso, 0.5) == 0.0
    all_iso = DegreeSummary.of(np.array([0, 0]))
    assert cov_dbar_star_degree_closed_form(all_iso, 0.5) == 0.0


def test_closed_form_cov_positive_with_mixed_isolation():
    for seed in range(10):
        net = generate_erdos_renyi(40, 1.2, seed=seed)
        s = DegreeSummary.of(net.degree)
        if 0.0 < s.isolated_fraction < 1.0:
            assert cov_dbar_star_degree_closed_form(s, 0.3) > 0.0


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_closed_form_cov_equals_enumeration_on_small_graphs(p):
    nets = [
        from_edge_list([(0, 1), (1, 2), (0, 2)], n=4),  # triangle + isolated
        from_edge_list([(0, 1)], n=4),
        from_edge_list([(0, 1), (2, 3)], n=4),
        generate_erdos_renyi(7, 1.5, seed=1),
        generate_erdos_renyi(8, 2.5, seed=2),
        generate_watts_strogatz(8, 2, 0.5, 0.5, seed=3),
    ]
    for net in nets:
        _, _, cov = exact_dbar_star_moments(net, p)
        closed = cov_dbar_star_degree_closed_form(DegreeSummary.of(net.degree), p)
        assert closed == pytest.approx(cov, abs=1e-12)


def _diagnostics(net, d):
    return empirical_exposure_diagnostics(rep_cells(net, d, np.zeros(net.n)))


def test_diagnostics_constant_degree_gives_exact_zero_cov():
    net = from_edge_list([(0, 1), (2, 3)], n=4)  # all positive degrees equal 1
    diag = _diagnostics(net, np.array([1, 0, 0, 1]))
    assert diag.cov_dbar_degree_on_positive == 0.0
    assert diag.r2_dbar is None


def test_diagnostics_hand_dataset():
    # degrees (0, 1, 1) with dbar_star (0, 1, 0)
    net = from_edge_list([(1, 2)], n=3)
    d = np.array([0, 0, 1])
    assert compute_exposure(net, d).tolist() == [0, 1, 0]
    diag = _diagnostics(net, d)
    gamma = np.array([0.0, 1.0, 1.0])
    star = np.array([0.0, 1.0, 0.0])
    expected = np.mean(gamma * star) - gamma.mean() * star.mean()
    assert diag.cov_dbar_star_degree == pytest.approx(expected)
    assert expected == pytest.approx(1 / 9)


def test_diagnostics_empty_positive_subsample():
    net = from_edge_list([], n=3)
    diag = _diagnostics(net, np.array([1, 0, 1]))
    assert diag.cov_dbar_degree_on_positive is None
    assert diag.r2_dbar is None
    assert diag.r2_dbar_star is None  # dbar_star identically zero
    assert diag.cov_dbar_star_degree == 0.0


def test_diagnostics_reference_setting_r2_pattern():
    net = generate_watts_strogatz(1000, seed=7, **WS_CALIBRATED)
    diag = _diagnostics(net, assign_bernoulli(1000, 0.5, seed=3))
    assert diag.r2_dbar < 0.01
    assert 0.02 <= diag.r2_dbar_star <= 0.10


@pytest.mark.parametrize("make", [
    lambda: generate_watts_strogatz(1000, seed=7, **WS_CALIBRATED),
    lambda: generate_watts_strogatz(300, 4, 0.3, 0.5, seed=2),
    lambda: generate_erdos_renyi(2000, 2.0, seed=5),
    lambda: generate_erdos_renyi(200, 8.0, seed=17),  # no isolated node
    lambda: from_edge_list([(0, 1), (2, 3), (1, 2)], n=9),
    lambda: from_edge_list([], n=5),
])
def test_diagnostics_equal_the_unit_level_moments(make):
    net = make()
    for seed in range(5):
        d = assign_bernoulli(net.n, 0.3 + 0.1 * seed, seed=seed)
        got = _diagnostics(net, d)
        want = reference_exposure_diagnostics(net, d)
        for name, value in vars(want).items():
            if value is None:
                assert getattr(got, name) is None, name
            else:
                assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_diagnostics_ignore_the_order_of_the_units():
    net = generate_watts_strogatz(400, seed=11, **WS_CALIBRATED)
    d = assign_bernoulli(400, 0.5, seed=12)
    diag = _diagnostics(net, d)
    for seed in range(60):
        label = np.random.default_rng(seed).permutation(net.n)  # unit i becomes unit label[i]
        relabelled = from_edge_list(np.column_stack([label[net.u], label[net.v]]), n=net.n)
        moved = np.empty_like(d)
        moved[label] = d
        assert _diagnostics(relabelled, moved) == diag, seed


def test_scatter_csv_format():
    net = from_edge_list([(0, 1)], n=3)
    lines = csv_lines(scatter_rows(net.degree, compute_exposure(net, np.array([1, 0, 0]))))
    assert lines[0] == "node,degree,dbar,dbar_star,isolated"
    assert lines[1] == "0,1,0.0,0.0,0"
    assert lines[2] == "1,1,1.0,1.0,0"
    assert lines[3] == "2,0,,0.0,1"  # dbar left empty for the isolated node
