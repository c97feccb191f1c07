import dataclasses

import numpy as np
import pytest

from helpers import reference_design, rep_cells, unit_outcomes
from spillnet.dgp import (
    BuiltinDesign,
    DesignSpec,
    effect_gaps,
    load_design_csv,
)
from spillnet.errors import ConfigurationError, IngestionError, ParameterError
from spillnet.exposure import assign_bernoulli
from spillnet.graph import (
    DegreeSummary,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
)


def test_expand_design1_values():
    spec = reference_design(1, 0.0, [0, 3])
    assert spec.baseline[3] == pytest.approx(4.0)
    assert spec.direct_effect[3] == pytest.approx(1.0)
    assert spec.spillover_effect[3] == 0.0
    assert spec.noise_sd == 1.0


def test_expand_design3_negative_spillover():
    spec = reference_design(3, -0.5, [1])
    assert spec.baseline[1] == pytest.approx(1.0)
    assert spec.direct_effect[1] == pytest.approx(1.0)
    assert spec.spillover_effect[1] == pytest.approx(-0.25)


def test_expand_design2_indicator_at_zero():
    spec = reference_design(2, -0.5, [0, 2])
    assert spec.baseline[0] == pytest.approx(1.0)
    assert spec.baseline[2] == pytest.approx(2.0)
    assert spec.spillover_effect[0] == pytest.approx(-0.5)


def test_builtin_tables_equal_the_design_tabulated_degree_by_degree():
    # reference_design, the dict tabulation the tests use, is the built-in design exactly
    for degrees in ([0], [1], [0, 3], [2, 0, 7, 7], list(range(40))):
        at = np.array(sorted(set(degrees)))
        for design_id in (1, 2, 3):
            for c in (0.0, -0.5, 0.7, -3.25):
                spec = reference_design(design_id, c, degrees)
                assert np.array_equal(spec.tables(at), BuiltinDesign(design_id, c).tables(at))
                assert spec.noise_sd == BuiltinDesign.noise_sd


def test_unknown_design_id_rejected():
    with pytest.raises(ParameterError):
        BuiltinDesign(4, c=0.0)


@pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_spillover_constant_rejected(c):
    with pytest.raises(ParameterError, match="spillover constant c must be finite"):
        BuiltinDesign(1, c=c)


def test_negative_noise_sd_rejected():
    with pytest.raises(ParameterError):
        DesignSpec(baseline={0: 1.0}, direct_effect={0: 1.0},
                   spillover_effect={0: 0.0}, noise_sd=-1.0)


def test_non_finite_design_values_rejected():
    with pytest.raises(ParameterError):
        DesignSpec(baseline={0: float("nan")}, direct_effect={0: 1.0},
                   spillover_effect={0: 0.0}, noise_sd=1.0)


def test_noise_free_design3_outcomes_exact():
    net = generate_watts_strogatz(50, 4, 0.2, 0.5, seed=8)
    d = assign_bernoulli(50, 0.5, seed=9)
    spec = dataclasses.replace(
        reference_design(3, 0.0, np.unique(net.degree)), noise_sd=0.0
    )
    y = unit_outcomes(net, d, spec, seed=1)
    assert np.array_equal(y, 1.0 + d)


def test_noise_free_path_graph_hand_value():
    net = from_edge_list([(0, 1), (1, 2)], n=3)
    d = np.array([1, 0, 1])
    spec = dataclasses.replace(
        reference_design(1, -0.5, [0, 1, 2]), noise_sd=0.0
    )
    y = unit_outcomes(net, d, spec, seed=0)
    # middle node: baseline 3, untreated, two treated neighbors at -0.5/3 each
    assert y[1] == pytest.approx(8 / 3)
    assert y[0] == pytest.approx(1 + 1 + 1 + (-0.5 / 2) * 0)
    assert y[2] == pytest.approx(3.0)


def test_noise_averages_to_deterministic_part():
    net = generate_watts_strogatz(40, 2, 0.0, 0.0, seed=0)
    d = assign_bernoulli(40, 0.5, seed=1)
    spec = reference_design(1, -0.5, np.unique(net.degree))
    exact = unit_outcomes(net, d, dataclasses.replace(spec, noise_sd=0.0), seed=0)
    reps = 600
    acc = np.zeros(40)
    for seed in range(reps):
        acc += unit_outcomes(net, d, spec, seed=seed)
    assert np.all(np.abs(acc / reps - exact) <= 4 * spec.noise_sd / np.sqrt(reps))


def test_outcomes_depend_only_on_exposure_statistics():
    # swapping which neighbors are treated leaves the deterministic part alone
    net = from_edge_list([(0, 1), (0, 2), (0, 3), (0, 4)], n=5)
    spec = dataclasses.replace(reference_design(1, -0.5, [0, 4, 1]), noise_sd=0.0)
    d1 = np.array([0, 1, 1, 0, 0])
    d2 = np.array([0, 0, 0, 1, 1])
    y1 = unit_outcomes(net, d1, spec, seed=3)
    y2 = unit_outcomes(net, d2, spec, seed=3)
    assert y1[0] == y2[0]


def test_seeded_functions_reject_negative_seeds():
    net = generate_watts_strogatz(20, 4, 0.2, 0.1, seed=1)
    d = assign_bernoulli(20, 0.5, seed=2)
    for call in (
        lambda: generate_watts_strogatz(20, 4, 0.2, 0.1, seed=-1),
        lambda: generate_erdos_renyi(20, 2.0, seed=-1),
        lambda: assign_bernoulli(20, 0.5, seed=-1),
        lambda: unit_outcomes(net, d, BuiltinDesign(1, 0.0), seed=-1),
    ):
        with pytest.raises(ParameterError, match=r"seed must be a nonnegative integer \(got -1\)"):
            call()


def test_simulation_is_deterministic_given_seed():
    net = generate_watts_strogatz(30, 2, 0.1, 0.2, seed=5)
    d = assign_bernoulli(30, 0.5, seed=6)
    spec = reference_design(2, -0.5, np.unique(net.degree))
    assert np.array_equal(
        unit_outcomes(net, d, spec, seed=42),
        unit_outcomes(net, d, spec, seed=42),
    )


def test_design_must_cover_observed_degrees():
    net = from_edge_list([(0, 1), (0, 2)], n=3)  # degrees 2, 1, 1
    spec = reference_design(1, 0.0, [0, 1])
    d = np.array([1, 0, 0])
    with pytest.raises(ConfigurationError):
        unit_outcomes(net, d, spec, seed=0)


def test_outcome_matrix_rejects_an_uncovered_degree():
    net = from_edge_list([(0, 1), (0, 2)], n=4)  # degrees 2, 1, 1, 0
    spec = DesignSpec(baseline={0: 1.0, 1: 2.0}, direct_effect={0: 1.0, 1: 1.0, 2: 1.0},
                      spillover_effect={0: 0.0, 1: 0.5}, noise_sd=0.0)
    d = np.array([1, 0, 1, 0])
    with pytest.raises(ConfigurationError, match=r"degrees \[2\]"):
        unit_outcomes(net, d, spec, seed=0)


def test_effect_gaps_match_design_formulas():
    summary = DegreeSummary.of(np.array([0, 0, 1, 2, 2, 5]))
    mean_pos = (1 + 2 + 2 + 5) / 4
    for design_id, expected in ((1, mean_pos), (2, 1.0), (3, 0.0)):
        spec = reference_design(design_id, -0.5, summary.degrees)
        gaps = effect_gaps(summary, *spec.tables(summary.degrees)[:2])
        assert gaps.baseline == pytest.approx(expected)
        assert gaps.direct == pytest.approx(0.0)


def test_effect_gaps_undefined_without_both_strata():
    spec = reference_design(1, 0.0, [0, 1, 2])
    no_isolated = DegreeSummary.of(np.array([1, 2, 2]))
    assert np.isnan(effect_gaps(no_isolated, *spec.tables(no_isolated.degrees)[:2]).baseline)
    all_isolated = DegreeSummary.of(np.array([0, 0]))
    assert np.isnan(effect_gaps(all_isolated, *spec.tables(all_isolated.degrees)[:2]).baseline)


def test_design_csv_round_trip(tmp_path):
    path = tmp_path / "design.csv"
    path.write_text(
        "degree,theta00,mu_de,lambda_se\n"
        "0,1.0,1.0,0.0\n"
        "1,2.0,1.5,-0.25\n"
        "2,3.0,1.5,-0.1\n"
    )
    spec = load_design_csv(path, noise_sd=0.5)
    assert spec.baseline == {0: 1.0, 1: 2.0, 2: 3.0}
    assert spec.direct_effect[1] == 1.5
    assert spec.spillover_effect[2] == -0.1
    assert spec.noise_sd == 0.5


def test_design_csv_rejects_bad_files(tmp_path):
    missing = tmp_path / "missing_cols.csv"
    missing.write_text("degree,theta00\n0,1\n")
    with pytest.raises(IngestionError):
        load_design_csv(missing, noise_sd=1.0)
    dup = tmp_path / "dup.csv"
    dup.write_text("degree,theta00,mu_de,lambda_se\n1,1,1,0\n1,2,1,0\n")
    with pytest.raises(IngestionError):
        load_design_csv(dup, noise_sd=1.0)
    empty = tmp_path / "empty.csv"
    empty.write_text("degree,theta00,mu_de,lambda_se\n")
    with pytest.raises(IngestionError):
        load_design_csv(empty, noise_sd=1.0)
    not_finite = tmp_path / "nan.csv"
    not_finite.write_text("degree,theta00,mu_de,lambda_se\n0,1,1,0\n1,nan,1,0\n")
    with pytest.raises(IngestionError, match=r"nan.csv:3: column 'theta00': non-finite"):
        load_design_csv(not_finite, noise_sd=1.0)
    beyond_int64 = tmp_path / "huge.csv"  # a degree no network can have
    beyond_int64.write_text("degree,theta00,mu_de,lambda_se\n0,1,1,0\n9223372036854775808,1,1,0\n")
    with pytest.raises(IngestionError, match=r"huge.csv:3: column 'degree': integer out of range, "
                                             r"must be below 2\*\*63"):
        load_design_csv(beyond_int64, noise_sd=1.0)


def test_stratified_identification_with_zero_noise():
    # regressing each degree stratum recovers the tabulated functions exactly
    from spillnet.estimators import stratified_regression

    net = generate_watts_strogatz(600, 4, 0.3, 0.4, seed=21)
    d = assign_bernoulli(600, 0.5, seed=22)
    spec = dataclasses.replace(
        reference_design(1, -0.5, np.unique(net.degree)), noise_sd=0.0
    )
    y = unit_outcomes(net, d, spec, seed=23)
    fits, _ = stratified_regression(rep_cells(net, d, y))
    assert fits, "expected at least one fitted stratum"
    for g, (beta, _) in fits.items():
        # (const, treated), then treated_neighbors in a positive-degree stratum
        want = [spec.baseline[g], spec.direct_effect[g]] + [spec.spillover_effect[g]] * (g > 0)
        assert beta.tolist() == pytest.approx(want, abs=1e-9)
