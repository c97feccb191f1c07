import dataclasses

import numpy as np
import pytest

from helpers import normal_equation_ols
from spillnet.dgp import BuiltinDesign, DesignSpec, expand, simulate_outcomes
from spillnet.errors import EmptySubsampleError, ParameterError, SingularModelError
from spillnet.estimators import (
    CONST,
    DBAR,
    DBAR_STAR,
    DEGREE,
    TREATED,
    TREATED_NEIGHBORS,
    dbar_regression,
    dbar_star_regression,
    ols,
    stratified_regression,
    t_regression,
)
from spillnet.exposure import TreatmentVector, assign_bernoulli
from spillnet.graph import from_edge_list, generate_erdos_renyi, generate_watts_strogatz


def test_ols_exact_recovery_without_noise():
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
    beta = np.array([1.5, -2.0, 0.25])
    fit = ols(x, x @ beta, ("const", "a", "b"))
    for name, value in zip(("const", "a", "b"), beta):
        assert fit.coef(name) == pytest.approx(value, abs=1e-10)
    assert fit.rss == pytest.approx(0.0, abs=1e-18)
    assert fit.r_squared == pytest.approx(1.0)


def test_ols_matches_textbook_normal_equations():
    rng = np.random.default_rng(7)
    x = np.column_stack([np.ones(50), rng.normal(size=50), rng.uniform(size=50)])
    y = rng.normal(size=50)
    fit = ols(x, y, ("const", "a", "b"))
    beta, se = normal_equation_ols(x, y)
    assert np.allclose(list(fit.coefficients.values()), beta, atol=1e-9)
    assert np.allclose(list(fit.se.values()), se, atol=1e-9)


def test_ols_residuals_orthogonal_to_columns():
    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(80), rng.normal(size=80), rng.normal(size=80)])
    y = rng.normal(size=80) * 10
    fit = ols(x, y, ("const", "a", "b"))
    beta = np.array(list(fit.coefficients.values()))
    gram = np.abs(x.T @ (y - x @ beta)).max()
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert gram <= 1e-8 * scale


def test_ols_duplicate_column_raises_and_names_columns():
    x = np.column_stack([np.ones(20), np.arange(20.0), np.arange(20.0)])
    with pytest.raises(SingularModelError) as err:
        ols(x, np.arange(20.0), ("const", "a", "a_copy"))
    assert "a" in err.value.columns and "a_copy" in err.value.columns


def test_ols_requires_more_rows_than_columns():
    with pytest.raises(ParameterError):
        ols(np.ones((3, 3)), np.ones(3), ("a", "b", "c"))


def test_ols_rejects_non_finite_inputs():
    x = np.column_stack([np.ones(20), np.arange(20.0)])
    y = np.arange(20.0)
    y[3] = np.nan
    with pytest.raises(ParameterError):
        ols(x, y, ("const", "a"))
    x[5, 1] = np.inf
    with pytest.raises(ParameterError):
        ols(x, np.arange(20.0), ("const", "a"))


def test_ci_is_exactly_plus_minus_1_96_se():
    rng = np.random.default_rng(11)
    x = np.column_stack([np.ones(30), rng.normal(size=30)])
    fit = ols(x, rng.normal(size=30), ("const", "a"))
    for name in fit.coefficients:
        lo, hi = fit.ci95[name]
        assert lo == fit.coef(name) - 1.96 * fit.se[name]
        assert hi == fit.coef(name) + 1.96 * fit.se[name]


def test_shifting_outcome_moves_only_the_intercept():
    net = generate_watts_strogatz(120, 4, 0.3, 0.4, seed=4)
    tr = assign_bernoulli(120, 0.5, seed=5)
    y = np.random.default_rng(6).normal(size=120)
    base = t_regression(net, tr, y)
    shifted = t_regression(net, tr, y + 5.0)
    assert shifted.coef(CONST) == pytest.approx(base.coef(CONST) + 5.0, abs=1e-10)
    for name in (TREATED, TREATED_NEIGHBORS, DEGREE):
        assert shifted.coef(name) == pytest.approx(base.coef(name), abs=1e-10)


def test_t_regression_exact_when_correctly_specified():
    # constant spillover, constant direct effect, baseline affine in degree
    net = generate_watts_strogatz(200, 4, 0.3, 0.3, seed=14)
    tr = assign_bernoulli(200, 0.5, seed=15)
    degs = np.unique(net.degree).tolist()
    spec = DesignSpec(
        baseline={g: 0.5 + 2.0 * g for g in degs},
        direct_effect={g: 1.25 for g in degs},
        spillover_effect={g: -0.4 for g in degs},
        noise_sd=0.0,
    )
    y = simulate_outcomes(net, tr, spec, seed=16)
    fit = t_regression(net, tr, y)
    assert fit.coef(TREATED) == pytest.approx(1.25, abs=1e-9)
    assert fit.coef(TREATED_NEIGHBORS) == pytest.approx(-0.4, abs=1e-9)
    assert fit.coef(DEGREE) == pytest.approx(2.0, abs=1e-9)
    assert fit.spec_name == "t_reg"


def test_t_regression_needs_five_units():
    net = from_edge_list([(0, 1)], n=4)
    tr = TreatmentVector(d=np.array([1, 0, 1, 0]), p=0.5)
    with pytest.raises(ParameterError):
        t_regression(net, tr, np.zeros(4))


def test_dbar_regression_uses_positive_subsample_only():
    net = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], n=7)
    tr = assign_bernoulli(7, 0.5, seed=3)
    fit = dbar_regression(net, tr, np.arange(7.0))
    assert fit.n_used == 5
    assert fit.spec_name == "dbar_reg"


def test_dbar_regression_subsample_errors():
    empty = from_edge_list([], n=6)
    tr = assign_bernoulli(6, 0.5, seed=0)
    with pytest.raises(EmptySubsampleError):
        dbar_regression(empty, tr, np.zeros(6))
    tiny = from_edge_list([(0, 1)], n=6)
    with pytest.raises(ParameterError):
        dbar_regression(tiny, tr, np.zeros(6))


def test_degree_one_subsample_recovers_spillover_exactly():
    # on a perfect matching the fraction equals the count, so the slope is
    # the degree-1 spillover itself
    net = from_edge_list([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)], n=10)
    tr = assign_bernoulli(10, 0.5, seed=19)
    spec = DesignSpec(
        baseline={1: 2.0},
        direct_effect={1: 1.0},
        spillover_effect={1: -0.37},
        noise_sd=0.0,
    )
    y = simulate_outcomes(net, tr, spec, seed=20)
    fit = dbar_regression(net, tr, y)
    assert fit.coef(DBAR) == pytest.approx(-0.37, abs=1e-9)


def test_dbar_star_regression_minimum_size():
    net = from_edge_list([(0, 1)], n=3)
    tr = TreatmentVector(d=np.array([1, 0, 1]), p=0.5)
    with pytest.raises(ParameterError):
        dbar_star_regression(net, tr, np.zeros(3))


def test_dbar_and_dbar_star_identical_without_isolated_nodes():
    net = generate_erdos_renyi(80, 6.0, seed=23)
    assert (net.degree > 0).all(), "seed chosen to give no isolated nodes"
    tr = assign_bernoulli(80, 0.5, seed=24)
    y = np.random.default_rng(25).normal(size=80)
    a = dbar_regression(net, tr, y)
    b = dbar_star_regression(net, tr, y)
    # bit-identical, not merely close
    assert list(a.coefficients.values()) == list(b.coefficients.values())
    assert list(a.se.values()) == list(b.se.values())
    assert a.n_used == b.n_used == 80


def test_stratified_zero_degree_stratum_has_no_neighbor_term():
    net = from_edge_list([(0, 1), (0, 2), (1, 2)], n=12)
    tr = assign_bernoulli(12, 0.5, seed=31)
    y = np.random.default_rng(32).normal(size=12)
    result = stratified_regression(net, tr, y)
    assert 0 in result.fits
    assert TREATED_NEIGHBORS not in result.fits[0].coefficients


def test_stratified_skips_small_and_degenerate_strata():
    # degree-1 stratum of size 2 is too small; all-treated degree-0 stratum
    # has no treatment variation
    net = from_edge_list([(0, 1)], n=10)
    d = np.array([1, 0] + [1] * 8)
    tr = TreatmentVector(d=d, p=0.5)
    y = np.random.default_rng(33).normal(size=10)
    result = stratified_regression(net, tr, y)
    assert 1 in result.skipped
    assert "need at least" in result.skipped[1]
    assert result.skipped[0] == "no treatment variation"


def test_stratified_exact_recovery_matches_builtin_design():
    net = generate_watts_strogatz(800, 4, 0.25, 0.4, seed=41)
    tr = assign_bernoulli(800, 0.5, seed=42)
    spec = dataclasses.replace(
        expand(BuiltinDesign(2, -0.5), np.unique(net.degree)), noise_sd=0.0
    )
    y = simulate_outcomes(net, tr, spec, seed=43)
    result = stratified_regression(net, tr, y)
    for g, fit in result.fits.items():
        if g > 0:
            assert fit.coef(TREATED_NEIGHBORS) == pytest.approx(
                -0.5 / (1 + g), abs=1e-9
            )


def test_all_treated_design_matrix_is_singular():
    net = generate_watts_strogatz(30, 2, 0.0, 0.0, seed=1)
    tr = TreatmentVector(d=np.ones(30, dtype=np.int64), p=0.5)
    with pytest.raises(SingularModelError):
        t_regression(net, tr, np.zeros(30))
