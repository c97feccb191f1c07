import dataclasses

import numpy as np
import pytest

from spillnet.dgp import (
    BuiltinDesign,
    DesignSpec,
    expand,
    load_design_csv,
    simulate_outcomes,
    true_effect_deltas,
)
from spillnet.errors import ConfigurationError, IngestionError, ParameterError
from spillnet.exposure import TreatmentVector, assign_bernoulli, compute_exposure
from spillnet.graph import DegreeSummary, from_edge_list, generate_watts_strogatz, summarize


def test_expand_design1_values():
    spec = expand(BuiltinDesign(1, c=0.0), degrees=[0, 3])
    assert spec.baseline[3] == pytest.approx(4.0)
    assert spec.direct_effect[3] == pytest.approx(1.0)
    assert spec.spillover_effect[3] == 0.0
    assert spec.noise_sd == 1.0


def test_expand_design3_negative_spillover():
    spec = expand(BuiltinDesign(3, c=-0.5), degrees=[1])
    assert spec.baseline[1] == pytest.approx(1.0)
    assert spec.direct_effect[1] == pytest.approx(1.0)
    assert spec.spillover_effect[1] == pytest.approx(-0.25)


def test_expand_design2_indicator_at_zero():
    spec = expand(BuiltinDesign(2, c=-0.5), degrees=[0, 2])
    assert spec.baseline[0] == pytest.approx(1.0)
    assert spec.baseline[2] == pytest.approx(2.0)
    assert spec.spillover_effect[0] == pytest.approx(-0.5)


def test_unknown_design_id_rejected():
    with pytest.raises(ParameterError):
        BuiltinDesign(4, c=0.0)


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
    tr = assign_bernoulli(50, 0.5, seed=9)
    spec = dataclasses.replace(
        expand(BuiltinDesign(3, 0.0), np.unique(net.degree)), noise_sd=0.0
    )
    y = simulate_outcomes(net, tr, spec, seed=1)
    assert np.array_equal(y, 1.0 + tr.d)


def test_noise_free_path_graph_hand_value():
    net = from_edge_list([(0, 1), (1, 2)], n=3)
    tr = TreatmentVector(d=np.array([1, 0, 1]), p=0.5)
    spec = dataclasses.replace(
        expand(BuiltinDesign(1, -0.5), [0, 1, 2]), noise_sd=0.0
    )
    y = simulate_outcomes(net, tr, spec, seed=0)
    # middle node: baseline 3, untreated, two treated neighbors at -0.5/3 each
    assert y[1] == pytest.approx(8 / 3)
    assert y[0] == pytest.approx(1 + 1 + 1 + (-0.5 / 2) * 0)
    assert y[2] == pytest.approx(3.0)


def test_noise_averages_to_deterministic_part():
    net = generate_watts_strogatz(40, 2, 0.0, 0.0, seed=0)
    tr = assign_bernoulli(40, 0.5, seed=1)
    spec = expand(BuiltinDesign(1, -0.5), np.unique(net.degree))
    exact = simulate_outcomes(net, tr, dataclasses.replace(spec, noise_sd=0.0), seed=0)
    reps = 600
    acc = np.zeros(40)
    for seed in range(reps):
        acc += simulate_outcomes(net, tr, spec, seed=seed)
    assert np.all(np.abs(acc / reps - exact) <= 4 * spec.noise_sd / np.sqrt(reps))


def test_outcomes_depend_only_on_exposure_statistics():
    # swapping which neighbors are treated leaves the deterministic part alone
    net = from_edge_list([(0, 1), (0, 2), (0, 3), (0, 4)], n=5)
    spec = dataclasses.replace(expand(BuiltinDesign(1, -0.5), [0, 4, 1]), noise_sd=0.0)
    d1 = TreatmentVector(d=np.array([0, 1, 1, 0, 0]), p=0.5)
    d2 = TreatmentVector(d=np.array([0, 0, 0, 1, 1]), p=0.5)
    y1 = simulate_outcomes(net, d1, spec, seed=3)
    y2 = simulate_outcomes(net, d2, spec, seed=3)
    assert y1[0] == y2[0]


def test_simulation_is_deterministic_given_seed():
    net = generate_watts_strogatz(30, 2, 0.1, 0.2, seed=5)
    tr = assign_bernoulli(30, 0.5, seed=6)
    spec = expand(BuiltinDesign(2, -0.5), np.unique(net.degree))
    assert np.array_equal(
        simulate_outcomes(net, tr, spec, seed=42),
        simulate_outcomes(net, tr, spec, seed=42),
    )


def test_design_must_cover_observed_degrees():
    net = from_edge_list([(0, 1), (0, 2)], n=3)  # degrees 2, 1, 1
    spec = expand(BuiltinDesign(1, 0.0), degrees=[0, 1])
    tr = TreatmentVector(d=np.array([1, 0, 0]), p=0.5)
    with pytest.raises(ConfigurationError):
        simulate_outcomes(net, tr, spec, seed=0)


def test_effect_gaps_match_design_formulas():
    summary = DegreeSummary.from_degrees([0, 0, 1, 2, 2, 5])
    mean_pos = (1 + 2 + 2 + 5) / 4
    for design_id, expected in ((1, mean_pos), (2, 1.0), (3, 0.0)):
        spec = expand(BuiltinDesign(design_id, -0.5), summary.histogram.keys())
        gaps = true_effect_deltas(spec, summary)
        assert gaps.baseline == pytest.approx(expected)
        assert gaps.direct == pytest.approx(0.0)


def test_effect_gaps_undefined_without_both_strata():
    spec = expand(BuiltinDesign(1, 0.0), [0, 1, 2])
    no_isolated = DegreeSummary.from_degrees([1, 2, 2])
    assert true_effect_deltas(spec, no_isolated).baseline is None
    all_isolated = DegreeSummary.from_degrees([0, 0])
    assert true_effect_deltas(spec, all_isolated).baseline is None


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


def test_stratified_identification_with_zero_noise():
    # regressing each degree stratum recovers the tabulated functions exactly
    from spillnet.estimators import stratified_regression

    net = generate_watts_strogatz(600, 4, 0.3, 0.4, seed=21)
    tr = assign_bernoulli(600, 0.5, seed=22)
    spec = dataclasses.replace(
        expand(BuiltinDesign(1, -0.5), np.unique(net.degree)), noise_sd=0.0
    )
    y = simulate_outcomes(net, tr, spec, seed=23)
    result = stratified_regression(net, tr, y)
    assert result.fits, "expected at least one fitted stratum"
    for g, fit in result.fits.items():
        assert fit.coef("const") == pytest.approx(spec.baseline[g], abs=1e-9)
        assert fit.coef("treated") == pytest.approx(spec.direct_effect[g], abs=1e-9)
        if g > 0:
            assert fit.coef("treated_neighbors") == pytest.approx(
                spec.spillover_effect[g], abs=1e-9
            )
