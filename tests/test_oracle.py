import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spillnet.oracle as oracle_module
from helpers import exact_dbar_star_moments, reference_design, reference_oracle_report
from spillnet.dgp import BuiltinDesign, DesignSpec, design_stack
from spillnet.errors import EmptySubsampleError, ParameterError, SingularModelError
from spillnet.graph import (
    DegreeSummary,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
)
from spillnet.oracle import (
    OracleReport,
    dbar_star_moments,
    dbar_weights,
    enumeration_population_ols,
    oracle_block,
    oracle_report,
    t_weights,
)


def _flat_spec(degrees, spillover, direct=1.0, baseline=None):
    degs = sorted({0, *degrees})
    return DesignSpec(
        baseline={g: (baseline(g) if baseline else 1.0) for g in degs},
        direct_effect={g: direct for g in degs},
        spillover_effect={g: spillover(g) for g in degs},
        noise_sd=0.0,
    )


def test_weights_are_normalized_and_vanish_at_degree_zero():
    summary = DegreeSummary.of(np.array([0, 0, 1, 2, 2, 3, 5]))
    assert summary.degrees.tolist() == [0, 1, 2, 3, 5]
    wt = t_weights(summary)  # one row per network, aligned with summary.degrees
    assert wt.shape == (1, 5) and wt[0, 0] == 0.0
    assert summary.mean(wt[:, None]) == pytest.approx(1.0, abs=1e-12)
    wd = dbar_weights(summary)  # aligned with the positive degrees (1, 2, 3, 5)
    assert wd.shape == (1, summary.degrees[summary.positive].size) == (1, 4)
    mean_wd = summary.mean(wd[:, None], positive_only=True)
    assert mean_wd == pytest.approx(1.0, abs=1e-12)
    assert (wt >= 0).all() and (wd >= 0).all()
    # degree-1 nodes get the single largest fraction-regression weight
    assert wd[0, 0] == wd.max()
    # both are NaN for a network in which no node has a neighbor
    edgeless = DegreeSummary.of(np.array([0, 0]))
    assert np.isnan(t_weights(edgeless)).all() and dbar_weights(edgeless).shape == (1, 0)


def test_t_coefficients_hand_arithmetic():
    summary = DegreeSummary.of(np.array([1, 2, 3]))
    spec = _flat_spec([1, 2, 3], spillover=lambda g: float(g))
    report = oracle_report(spec, summary, 0.5)
    assert report.t_direct == pytest.approx(1.0)
    assert report.t_spillover == pytest.approx(14 / 6)


def test_t_spillover_zero_when_spillovers_vanish():
    summary = DegreeSummary.of(np.array([0, 1, 4]))
    spec = _flat_spec([1, 4], spillover=lambda g: 0.0)
    assert oracle_report(spec, summary, 0.3).t_spillover == 0.0


def test_t_spillover_undefined_on_edgeless_network():
    summary = DegreeSummary.of(np.array([0, 0]))
    spec = _flat_spec([0], spillover=lambda g: 0.0)
    assert oracle_report(spec, summary, 0.5).t_spillover is None


def test_dbar_coefficients_hand_arithmetic():
    summary = DegreeSummary.of(np.array([1, 2]))
    spec = _flat_spec([1, 2], spillover=lambda g: float(g))
    report = oracle_report(spec, summary, 0.5)
    assert report.dbar_direct == pytest.approx(1.0)
    assert report.dbar_spillover == pytest.approx(2.0)


def test_dbar_weights_cancel_inverse_degree_spillovers():
    summary = DegreeSummary.of(np.array([0, 1, 2, 4, 4]))
    k = 0.7
    spec = _flat_spec([1, 2, 4], spillover=lambda g: k / g if g else 0.0)
    assert oracle_report(spec, summary, 0.5).dbar_spillover == pytest.approx(k, abs=1e-12)


def test_dbar_coefficients_undefined_without_positive_degrees():
    summary = DegreeSummary.of(np.array([0, 0, 0]))
    spec = _flat_spec([0], spillover=lambda g: 0.0)
    report = oracle_report(spec, summary, 0.5)
    assert (report.dbar_direct, report.dbar_spillover) == (None, None)


def test_dbar_star_bias_hand_value():
    # half the units isolated, half with one neighbor, baseline gap of one
    summary = DegreeSummary.from_histogram({0: 1, 1: 1})
    spec = _flat_spec([0, 1], spillover=lambda g: 0.0,
                      baseline=lambda g: 1.0 if g > 0 else 0.0)
    report = oracle_report(spec, summary, 0.5)
    assert report.dbar_star_bias == pytest.approx(2 / 3)
    assert report.dbar_star_weighted == pytest.approx(0.0)


def test_dbar_star_bias_hand_value_matches_enumeration():
    net = from_edge_list([(0, 1)], n=4)  # degrees (1, 1, 0, 0)
    spec = _flat_spec([0, 1], spillover=lambda g: 0.0,
                      baseline=lambda g: 1.0 if g > 0 else 0.0)
    summary = DegreeSummary.of(net.degree)
    report = oracle_report(spec, summary, 0.5)
    assert report.dbar_star_bias == pytest.approx(2 / 3)
    coefs = enumeration_population_ols(net, spec, 0.5, "dbar_star_reg")
    assert coefs["dbar_star"] == pytest.approx(
        report.dbar_star_bias + report.dbar_star_weighted, abs=1e-12
    )


def test_dbar_star_reduces_to_dbar_without_isolation():
    summary = DegreeSummary.of(np.array([1, 2, 3, 3]))
    spec = _flat_spec([1, 2, 3], spillover=lambda g: -0.5 / (1 + g))
    report = oracle_report(spec, summary, 0.4)
    assert report.dbar_star_bias == 0.0
    assert report.dbar_star_weighted == pytest.approx(report.dbar_spillover, abs=1e-12)


def test_dbar_star_undefined_when_all_isolated():
    summary = DegreeSummary.of(np.array([0, 0]))
    spec = _flat_spec([0], spillover=lambda g: 0.0)
    report = oracle_report(spec, summary, 0.5)
    assert report.dbar_star_direct == pytest.approx(1.0)
    assert report.dbar_star_bias is None and report.dbar_star_weighted is None


def test_bias_magnitude_decreases_as_isolation_vanishes():
    spec = _flat_spec([1, 2], spillover=lambda g: 0.0, baseline=lambda g: float(g))
    last = None
    for isolated in (8, 4, 2, 1):
        summary = DegreeSummary.from_histogram({0: isolated, 1: 5, 2: 5})
        bias = oracle_report(spec, summary, 0.5).dbar_star_bias
        if last is not None:
            assert abs(bias) < abs(last)
        last = bias
    summary = DegreeSummary.from_histogram({1: 5, 2: 5})
    assert oracle_report(spec, summary, 0.5).dbar_star_bias == 0.0


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_dbar_star_moments_match_enumeration(p):
    nets = [
        from_edge_list([(0, 1)], n=4),
        from_edge_list([(0, 1), (1, 2), (0, 2)], n=5),
        generate_erdos_renyi(7, 1.5, seed=3),
        generate_erdos_renyi(8, 3.0, seed=4),
    ]
    for net in nets:
        mean, var, _ = exact_dbar_star_moments(net, p)
        got_mean, got_var = dbar_star_moments(DegreeSummary.of(net.degree), p)
        assert got_mean == pytest.approx(mean, abs=1e-12)
        assert got_var == pytest.approx(var, abs=1e-12)


def test_oracle_report_assembles_consistent_totals():
    net = generate_erdos_renyi(9, 1.5, seed=8)
    summary = DegreeSummary.of(net.degree)
    spec = reference_design(1, -0.5, summary.degrees)
    report = oracle_report(spec, summary, 0.5)
    assert report.dbar_star_total == pytest.approx(
        report.dbar_star_bias + report.dbar_star_weighted
    )
    assert report.mean_dbar_star == pytest.approx(0.5 * report.positive_share)
    assert report.treated_prob == 0.5


def test_oracle_report_takes_the_gaps_and_checks_coverage_once(monkeypatch):
    summary = DegreeSummary.of(generate_erdos_renyi(300, 2.0, seed=4).degree)
    spec = reference_design(2, -0.5, summary.degrees)
    calls = {"gaps": 0, "coverage": 0}
    take_gaps, check_coverage = oracle_module.effect_gaps, DesignSpec.tables

    def counted_gaps(*args):
        calls["gaps"] += 1
        return take_gaps(*args)

    def counted_coverage(*args):
        calls["coverage"] += 1
        return check_coverage(*args)

    monkeypatch.setattr(oracle_module, "effect_gaps", counted_gaps)
    monkeypatch.setattr(DesignSpec, "tables", counted_coverage)
    for n_reports in (1, 2, 3):
        oracle_report(spec, summary, 0.5)
        assert calls == {"gaps": n_reports, "coverage": n_reports}


def test_reference_setting_oracle_matches_reported_values():
    # pooled over several large calibrated graphs the oracle should sit on
    # the reported true coefficients
    from spillnet.graph import WS_CALIBRATED

    degrees = np.concatenate([
        generate_watts_strogatz(2000, seed=s, **WS_CALIBRATED).degree
        for s in range(8)
    ])
    summary = DegreeSummary.of(degrees)
    spec = reference_design(1, -0.5, summary.degrees)
    report = oracle_report(spec, summary, 0.5)
    assert report.t_spillover == pytest.approx(-0.146, abs=0.01)
    assert report.dbar_spillover == pytest.approx(-0.298, abs=0.02)
    assert report.dbar_star_weighted == pytest.approx(-0.303, abs=0.02)
    assert report.dbar_star_bias == pytest.approx(0.704, abs=0.06)
    spec2 = reference_design(2, 0.0, summary.degrees)
    report2 = oracle_report(spec2, summary, 0.5)
    assert report2.dbar_star_bias == pytest.approx(0.314, abs=0.04)


def _enumeration_agrees(net, spec, p, atol=1e-9):
    summary = DegreeSummary.of(net.degree)
    report = oracle_report(spec, summary, p)
    checked = 0
    try:
        coefs = enumeration_population_ols(net, spec, p, "t_reg")
        assert coefs["treated"] == pytest.approx(report.t_direct, abs=atol)
        assert coefs["treated_neighbors"] == pytest.approx(report.t_spillover, abs=atol)
        checked += 1
    except SingularModelError:
        pass
    try:
        coefs = enumeration_population_ols(net, spec, p, "dbar_reg")
        assert coefs["treated"] == pytest.approx(report.dbar_direct, abs=atol)
        assert coefs["dbar"] == pytest.approx(report.dbar_spillover, abs=atol)
        checked += 1
    except (SingularModelError, EmptySubsampleError):
        pass
    try:
        coefs = enumeration_population_ols(net, spec, p, "dbar_star_reg")
        assert coefs["treated"] == pytest.approx(report.dbar_star_direct, abs=atol)
        assert coefs["dbar_star"] == pytest.approx(report.dbar_star_total, abs=atol)
        checked += 1
    except SingularModelError:
        pass
    return checked


def test_theorem_formulas_agree_with_enumeration_on_random_graphs():
    rng = np.random.default_rng(12)
    total = 0
    for _ in range(8):
        n = int(rng.integers(5, 11))
        net = generate_erdos_renyi(n, float(rng.uniform(0.8, 3.0)), seed=int(rng.integers(10**6)))
        for design_id in (1, 2, 3):
            for c in (0.0, -0.5):
                spec = reference_design(design_id, c, np.unique(net.degree))
                total += _enumeration_agrees(net, spec, 0.5)
    assert total >= 60


def test_zero_design_zeroes_every_spillover_coefficient():
    net = generate_erdos_renyi(8, 2.0, seed=5)
    degs = np.unique(net.degree)
    spec = DesignSpec(
        baseline={int(g): 3.0 for g in degs},
        direct_effect={int(g): 3.0 for g in degs},
        spillover_effect={int(g): 0.0 for g in degs},
        noise_sd=0.0,
    )
    for which, slope in (("t_reg", "treated_neighbors"), ("dbar_star_reg", "dbar_star")):
        coefs = enumeration_population_ols(net, spec, 0.5, which)
        assert coefs[slope] == pytest.approx(0.0, abs=1e-10)


def test_enumeration_rejects_large_graphs_and_degenerate_inputs():
    big = generate_erdos_renyi(13, 2.0, seed=0)
    spec = reference_design(3, 0.0, np.unique(big.degree))
    with pytest.raises(ParameterError):
        enumeration_population_ols(big, spec, 0.5, "t_reg")

    empty = from_edge_list([], n=5)
    spec0 = reference_design(3, 0.0, [0])
    with pytest.raises(SingularModelError):
        enumeration_population_ols(empty, spec0, 0.5, "dbar_star_reg")
    with pytest.raises(EmptySubsampleError):
        enumeration_population_ols(empty, spec0, 0.5, "dbar_reg")
    with pytest.raises(ParameterError):
        enumeration_population_ols(empty, spec0, 0.5, "nonsense")


def test_oracle_rejects_out_of_range_probability():
    summary = DegreeSummary.of(np.array([0, 1]))
    spec = _flat_spec([0, 1], spillover=lambda g: 0.0)
    for p in (0.0, 1.0):
        with pytest.raises(ParameterError):
            oracle_report(spec, summary, p)


counts = st.integers(1, 1000)


@settings(max_examples=300, deadline=None)
@given(
    histogram=st.one_of(
        st.dictionaries(st.integers(0, 60), counts, min_size=1, max_size=30),
        st.dictionaries(st.integers(1, 60), counts, min_size=1, max_size=30),
        st.builds(lambda count: {0: count}, counts),
    ),
    design_id=st.sampled_from((1, 2, 3)),
    c=st.one_of(st.just(0.0), st.just(-0.5), st.floats(-3.0, 3.0)),
    p=st.floats(0.05, 0.95),
)
@example(histogram={0: 7}, design_id=1, c=-0.5, p=0.5)  # all isolated
@example(histogram={1: 3, 60: 1}, design_id=2, c=-0.5, p=0.3)  # none isolated
@example(histogram={0: 1000, 1: 1}, design_id=1, c=0.0, p=0.95)
def test_array_oracle_equals_dict_oracle(histogram, design_id, c, p):
    summary = DegreeSummary.from_histogram(histogram)
    spec = reference_design(design_id, c, histogram)
    ref = reference_oracle_report(spec, histogram, p)
    designs = (BuiltinDesign(design_id, c), spec)
    block = oracle_block(design_stack(designs, summary.degrees), summary, p)
    for j, design in enumerate(designs):
        got = oracle_report(design, summary, p)
        for field in dataclasses.fields(OracleReport):
            want, value = getattr(ref, field.name), getattr(got, field.name)
            column = block[field.name][0, j]
            if want is None:
                assert value is None and np.isnan(column), field.name
            else:
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), field.name
                assert column == value, field.name


@pytest.mark.parametrize("histogram", [
    {0: 7},  # all isolated
    {1: 3, 2: 5, 4: 2},  # no isolated node
    {3: 10},  # a single positive degree, no isolated node
    {0: 4, 2: 6},  # a single positive degree beside the isolated nodes
    {0: 17, 1: 40, 2: 33, 3: 12, 7: 2},
])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_stacked_oracle_rows_equal_single_design_reports(histogram, p):
    summary = DegreeSummary.from_histogram(histogram)
    designs = [BuiltinDesign(d, c) for d in (1, 2, 3) for c in (0.0, -0.5)]
    designs += [reference_design(2, 0.7, histogram),
                DesignSpec(baseline={g: 0.5 - 0.25 * g for g in histogram},
                           direct_effect={g: 1.0 + 0.1 * g for g in histogram},
                           spillover_effect={g: 0.3 * (-1) ** g for g in histogram},
                           noise_sd=0.0)]
    block = oracle_block(design_stack(designs, summary.degrees), summary, p)
    assert list(block) == [field.name for field in dataclasses.fields(OracleReport)]
    for j, design in enumerate(designs):
        report = oracle_report(design, summary, p)
        for name, column in block.items():
            want = getattr(report, name)
            assert column.shape == (1, len(designs)), name
            if want is None:
                assert np.isnan(column).all(), name
            else:
                assert abs(column[0, j] - want) <= 1e-15, (j, name)


def test_block_rows_equal_each_network_alone():
    # WS and ER graphs, an edgeless one (NaN rows) and one without isolated nodes (s = 1)
    nets = [generate_watts_strogatz(60, 4, 0.3, 0.5, seed=2), generate_erdos_renyi(60, 1.5, seed=3),
            from_edge_list([], n=60), generate_watts_strogatz(60, 4, 0.2, 0.0, seed=4)]
    block = DegreeSummary.of(np.stack([net.degree for net in nets]))
    assert np.isnan(block.mean_degree_positive[2]) and block.positive_share[3] == 1.0
    assert 0.0 < block.positive_share[0] < 1.0 and 0.0 < block.positive_share[1] < 1.0
    designs = [BuiltinDesign(d, c) for d in (1, 2, 3) for c in (0.0, -0.5)]
    oracle = oracle_block(design_stack(designs, block.degrees), block, 0.4)
    moments = ("n", "n_positive", "isolated_fraction", "positive_share", "mean_degree",
               "mean_degree_positive", "mean_inverse_degree_positive")
    for b, net in enumerate(nets):
        alone = DegreeSummary.of(net.degree)
        for name in moments:  # bit for bit
            assert np.array_equal(getattr(block, name)[b], getattr(alone, name)[0],
                                  equal_nan=True), (b, name)
        for j, design in enumerate(designs):
            report = oracle_report(design, alone, 0.4)
            for field in dataclasses.fields(OracleReport):
                value, row = getattr(report, field.name), oracle[field.name][b, j]
                assert np.isnan(row) if value is None else row == value, (b, j, field.name)
