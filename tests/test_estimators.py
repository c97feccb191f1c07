import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    normal_equation_ols, reference_design, reference_least_squares, reference_outcome_matrix,
    reference_stratified, rep_cells, unit_outcomes,
)
from spillnet.dgp import BuiltinDesign, DesignSpec, design_stack, outcome_cells
from spillnet.errors import (
    EmptySubsampleError, ParameterError, SingularModelError, TooFewUnitsError,
)
from spillnet.estimators import (
    CONST,
    DBAR,
    DBAR_STAR,
    DEGREE,
    TREATED,
    TREATED_NEIGHBORS,
    SPECS,
    fit_cells,
    ols,
    stratified_regression,
)
from spillnet.exposure import assign_bernoulli, compute_exposure
from spillnet.graph import (
    DegreeSummary, from_edge_list, generate_erdos_renyi, generate_watts_strogatz,
)


def fit_one(spec_name, cells):
    """The fit of ``fit_cells`` on a one-rep table: {column: coefficient}, {column: se} and
    the number of units fitted. Raises the rep's degenerate-fit error."""
    beta, se, units, (error,) = fit_cells(spec_name, cells)
    if error is not None:
        raise error
    columns = SPECS[spec_name].columns
    return (dict(zip(columns, beta[0, :, 0].tolist())), dict(zip(columns, se[0, :, 0].tolist())),
            int(units[0]))


def test_ols_exact_recovery_without_noise():
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
    beta = np.array([1.5, -2.0, 0.25])
    got, se, rss = ols(x, x @ beta, ("const", "a", "b"))
    assert got.shape == se.shape == (3,)
    assert np.allclose(got, beta, rtol=0, atol=1e-10)
    assert rss == pytest.approx(0.0, abs=1e-18)


def test_ols_matches_textbook_normal_equations():
    rng = np.random.default_rng(7)
    x = np.column_stack([np.ones(50), rng.normal(size=50), rng.uniform(size=50)])
    y = rng.normal(size=50)
    got_beta, got_se, _ = ols(x, y, ("const", "a", "b"))
    beta, se = normal_equation_ols(x, y)
    assert np.allclose(got_beta, beta, atol=1e-9)
    assert np.allclose(got_se, se, atol=1e-9)


def test_ols_residuals_orthogonal_to_columns():
    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(80), rng.normal(size=80), rng.normal(size=80)])
    y = rng.normal(size=80) * 10
    beta = ols(x, y, ("const", "a", "b"))[0]
    gram = np.abs(x.T @ (y - x @ beta)).max()
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert gram <= 1e-8 * scale


def test_ols_does_not_depend_on_the_memory_layout_of_x():
    rng = np.random.default_rng(12)
    n = rng.integers(8, 60)
    x = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.integers(0, 5, n),
                         rng.normal(size=n)])
    y = rng.normal(size=n)
    names = ("const", "a", "b", "c")
    for c_ordered, f_ordered in zip(ols(x, y, names), ols(np.asfortranarray(x), y, names)):
        assert np.array_equal(c_ordered, f_ordered)


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


def test_shifting_outcome_moves_only_the_intercept():
    net = generate_watts_strogatz(120, 4, 0.3, 0.4, seed=4)
    d = assign_bernoulli(120, 0.5, seed=5)
    y = np.random.default_rng(6).normal(size=120)
    base = fit_one("t_reg", rep_cells(net, d, y))[0]
    shifted = fit_one("t_reg", rep_cells(net, d, y + 5.0))[0]
    assert shifted[CONST] == pytest.approx(base[CONST] + 5.0, abs=1e-10)
    for name in (TREATED, TREATED_NEIGHBORS, DEGREE):
        assert shifted[name] == pytest.approx(base[name], abs=1e-10)


def test_t_regression_exact_when_correctly_specified():
    # constant spillover, constant direct effect, baseline affine in degree
    net = generate_watts_strogatz(200, 4, 0.3, 0.3, seed=14)
    d = assign_bernoulli(200, 0.5, seed=15)
    degs = np.unique(net.degree).tolist()
    spec = DesignSpec(
        baseline={g: 0.5 + 2.0 * g for g in degs},
        direct_effect={g: 1.25 for g in degs},
        spillover_effect={g: -0.4 for g in degs},
        noise_sd=0.0,
    )
    y = unit_outcomes(net, d, spec, seed=16)
    coef = fit_one("t_reg", rep_cells(net, d, y))[0]
    assert coef[TREATED] == pytest.approx(1.25, abs=1e-9)
    assert coef[TREATED_NEIGHBORS] == pytest.approx(-0.4, abs=1e-9)
    assert coef[DEGREE] == pytest.approx(2.0, abs=1e-9)


def test_t_regression_needs_five_units():
    net = from_edge_list([(0, 1)], n=4)
    d = np.array([1, 0, 1, 0])
    with pytest.raises(ParameterError, match="t_reg needs at least 5 units"):
        fit_one("t_reg", rep_cells(net, d, np.zeros(4)))


def test_dbar_regression_uses_positive_subsample_only():
    net = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], n=7)
    d = assign_bernoulli(7, 0.5, seed=3)
    assert fit_one("dbar_reg", rep_cells(net, d, np.arange(7.0)))[2] == 5


def test_dbar_regression_subsample_errors():
    empty = from_edge_list([], n=6)
    d = assign_bernoulli(6, 0.5, seed=0)
    with pytest.raises(EmptySubsampleError):
        fit_one("dbar_reg", rep_cells(empty, d, np.zeros(6)))
    tiny = from_edge_list([(0, 1)], n=6)
    with pytest.raises(ParameterError):
        fit_one("dbar_reg", rep_cells(tiny, d, np.zeros(6)))


def test_degree_one_subsample_recovers_spillover_exactly():
    # on a perfect matching the fraction equals the count, so the slope is
    # the degree-1 spillover itself
    net = from_edge_list([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)], n=10)
    d = assign_bernoulli(10, 0.5, seed=19)
    spec = DesignSpec(
        baseline={1: 2.0},
        direct_effect={1: 1.0},
        spillover_effect={1: -0.37},
        noise_sd=0.0,
    )
    y = unit_outcomes(net, d, spec, seed=20)
    assert fit_one("dbar_reg", rep_cells(net, d, y))[0][DBAR] == pytest.approx(-0.37, abs=1e-9)


def test_dbar_star_regression_minimum_size():
    net = from_edge_list([(0, 1)], n=3)
    d = np.array([1, 0, 1])
    with pytest.raises(ParameterError):
        fit_one("dbar_star_reg", rep_cells(net, d, np.zeros(3)))


def test_dbar_and_dbar_star_identical_without_isolated_nodes():
    net = generate_erdos_renyi(80, 6.0, seed=23)
    assert (net.degree > 0).all(), "seed chosen to give no isolated nodes"
    d = assign_bernoulli(80, 0.5, seed=24)
    y = np.random.default_rng(25).normal(size=80)
    a_coef, a_se, a_units = fit_one("dbar_reg", rep_cells(net, d, y))
    b_coef, b_se, b_units = fit_one("dbar_star_reg", rep_cells(net, d, y))
    # bit-identical, not merely close
    assert list(a_coef.values()) == list(b_coef.values())
    assert list(a_se.values()) == list(b_se.values())
    assert a_units == b_units == 80


def test_stratified_zero_degree_stratum_has_no_neighbor_term():
    net = from_edge_list([(0, 1), (0, 2), (1, 2)], n=12)
    d = assign_bernoulli(12, 0.5, seed=31)
    y = np.random.default_rng(32).normal(size=12)
    fits, _ = stratified_regression(rep_cells(net, d, y))
    assert 0 in fits
    assert fits[0][0].shape == fits[0][1].shape == (2,)  # const and treated only


def test_stratified_skips_small_and_degenerate_strata():
    # degree-1 stratum of size 2 is too small; all-treated degree-0 stratum
    # has no treatment variation
    net = from_edge_list([(0, 1)], n=10)
    d = np.array([1, 0] + [1] * 8)
    y = np.random.default_rng(33).normal(size=10)
    _, skipped = stratified_regression(rep_cells(net, d, y))
    assert 1 in skipped
    assert "need at least" in skipped[1]
    assert skipped[0] == "no treatment variation"


def test_stratified_exact_recovery_matches_builtin_design():
    net = generate_watts_strogatz(800, 4, 0.25, 0.4, seed=41)
    d = assign_bernoulli(800, 0.5, seed=42)
    spec = dataclasses.replace(
        reference_design(2, -0.5, np.unique(net.degree)), noise_sd=0.0
    )
    y = unit_outcomes(net, d, spec, seed=43)
    fits, _ = stratified_regression(rep_cells(net, d, y))
    for g, (beta, _) in fits.items():
        if g > 0:  # (const, treated, treated_neighbors)
            assert beta[2] == pytest.approx(-0.5 / (1 + g), abs=1e-9)


def test_all_treated_design_matrix_is_singular():
    net = generate_watts_strogatz(30, 2, 0.0, 0.0, seed=1)
    d = np.ones(30, dtype=np.int64)
    with pytest.raises(SingularModelError):
        fit_one("t_reg", rep_cells(net, d, np.zeros(30)))


def assert_close(got, want, rel=1e-12):
    """Every entry within ``rel`` of the largest entry of its column of ``want``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = np.abs(want).max(axis=0) if want.ndim else abs(float(want))
    assert np.all(np.abs(got - want) <= rel * scale), (got, want)


def outcome(call):
    """The value of ``call()``, or the type and text of the degenerate-fit error it raises:
    a fit the data cannot support, which a simulation excludes and an audit reports."""
    try:
        return call()
    except (SingularModelError, EmptySubsampleError, TooFewUnitsError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(10, 300),
    graph=st.sampled_from(["ws", "er"]),
    k=st.sampled_from([2, 4, 8]),
    rewire=st.floats(0.0, 1.0),
    delete=st.floats(0.0, 1.0),
    mean_degree=st.sampled_from([1e-9, 0.2, 0.5, 1.0, 2.0, 4.0]),
    p=st.floats(0.05, 0.95),
    all_treated=st.booleans(),
    designs=st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.floats(-2.0, 2.0),
                               st.floats(0.05, 3.0)), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_fits_equal_unit_row_fits(n, graph, k, rewire, delete, mean_degree, p, all_treated,
                                       designs, seed):
    # the fits of a simulated rep, from its cells, against the n x k design matrices
    net = (generate_watts_strogatz(n, k, rewire, delete, seed) if graph == "ws"
           else generate_erdos_renyi(n, mean_degree, seed))
    d = assign_bernoulli(n, p, seed + 1)
    if all_treated:
        d = np.ones(n, dtype=np.int64)
    summary = DegreeSummary.of(net.degree)
    stack = design_stack([BuiltinDesign(design_id, c) for design_id, c, _ in designs],
                         summary.degrees)
    sds = [sd for _, _, sd in designs]
    noise = np.random.default_rng(seed + 2).standard_normal(n)
    ys = reference_outcome_matrix(stack, sds, summary, net, d, noise)
    cells = outcome_cells(stack, sds, summary, rep_cells(net, d, noise))
    assert cells.count.sum() == n and cells.count.size <= 2 * (n + 2 * net.u.size)
    for name in SPECS:
        def cell_fit():
            beta, se, units, (error,) = fit_cells(name, cells)
            if error is not None:
                raise error
            return beta[0], se[0], units[0]

        got = outcome(cell_fit)
        want = outcome(lambda: reference_least_squares(name, net, d, ys))
        if isinstance(want[0], type):
            assert got == want
        else:
            assert not isinstance(got[0], type), (got, want)
            for a, b in zip(got[:2], want[:2]):
                assert_close(a, b)
            assert got[2] == ((net.degree > 0).sum() if SPECS[name].connected_only else n)


def test_cell_fits_raise_the_unit_row_errors():
    # no treatment variation, all units isolated, fewer cells than columns, and every
    # degree 2 on a ring, so that the degree column is twice the constant
    net = generate_watts_strogatz(30, 2, 0.0, 0.0, seed=1)
    isolated = from_edge_list([], n=12)
    pairs = from_edge_list([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)], n=10)  # cells (1, t, d) only
    cases = [
        (net, np.ones(30, dtype=np.int64), SPECS),
        (isolated, assign_bernoulli(12, 0.5, seed=2), SPECS),
        (pairs, np.array([1, 0] * 5), SPECS),
        (net, assign_bernoulli(30, 0.5, seed=2), ["t_reg"]),  # the one spec with a degree column
    ]
    seen = set()
    for graph, d, names in cases:
        y = np.random.default_rng(3).normal(size=graph.n)
        for name in names:
            got = outcome(lambda: fit_one(name, rep_cells(graph, d, y)))
            want = outcome(lambda: reference_least_squares(name, graph, d, y[:, None]))
            assert isinstance(want[0], type) and got == want
            seen.add(want)
    assert (SingularModelError, "design matrix is rank deficient; collinear columns: "
            "treated_neighbors, degree") in seen  # every unit isolated: t = g = 0
    assert (EmptySubsampleError,
            "no units with neighbors; treated fraction is undefined everywhere") in seen
    assert any("const, treated" in text for _, text in seen)  # no treatment variation
    assert (SingularModelError, "design matrix is rank deficient; collinear columns: "
            "const, degree") in seen  # degree = 2 const


def assert_same_strata(net, d, y):
    fits, skipped = stratified_regression(rep_cells(net, d, y))
    want_fits, want_skipped = reference_stratified(net, d, y)
    # the same strata, in the same ascending order of degree
    assert list(skipped.items()) == list(want_skipped.items())
    assert list(fits) == list(want_fits)
    for g, (beta, se) in fits.items():
        want_beta, want_se = want_fits[g]
        assert_close(beta, want_beta)
        assert_close(se, want_se)
    return fits, skipped


def test_stratified_fits_equal_a_scan_per_degree_on_many_degrees():
    # hub h links to h + 1 random leaves, so the hubs alone have 350 distinct degrees
    rng = np.random.default_rng(8)
    hubs, n = 350, 2000
    edges = [(h, leaf) for h in range(hubs)
             for leaf in rng.choice(np.arange(hubs, n), size=h + 1, replace=False).tolist()]
    net = from_edge_list(edges, n=n)
    assert np.unique(net.degree).size >= 300
    d = assign_bernoulli(n, 0.5, seed=9)
    y = 1.0 + 0.1 * net.degree + d + rng.normal(size=n)
    fits, skipped = assert_same_strata(net, d, y)
    assert len(fits) >= 10 and len(skipped) >= 300


def test_stratified_fits_equal_a_scan_per_degree_on_degenerate_strata():
    # degree 0: no treatment variation; degree 1 (leaves of untreated centers):
    # no exposure variation; degree 3 (the centers): too few units
    centers = [10, 14, 18, 22]
    edges = [(c, c + j) for c in centers for j in (1, 2, 3)]
    net = from_edge_list(edges, n=26)
    d = np.zeros(26, dtype=np.int64)
    d[:10] = 1
    d[[11, 15, 20, 24]] = 1
    _, skipped = assert_same_strata(net, d, np.random.default_rng(4).normal(size=26))
    assert skipped == {0: "no treatment variation", 1: "no exposure variation",
                       3: "only 4 units; need at least 5"}


def test_cell_table_groups_units_by_degree_exposure_and_treatment():
    net = generate_erdos_renyi(200, 3.0, seed=12)
    d = assign_bernoulli(200, 0.4, seed=13)
    y = np.random.default_rng(14).normal(size=200) * 100.0 + 1e6
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, key in enumerate(zip(net.degree.tolist(), compute_exposure(net, d).tolist(),
                                d.tolist())):
        groups.setdefault(key, []).append(i)
    cells = rep_cells(net, d, y)
    keys = sorted(groups)
    g, t, own = np.array(keys).T
    assert cells.degree.tolist() == g.tolist()
    assert np.array_equal(cells.regressors, np.column_stack(
        [np.ones(len(keys)), own, t, g, np.where(g > 0, t / np.maximum(g, 1), 0.0)]))
    assert cells.count.tolist() == [len(groups[key]) for key in keys]
    members = [y[groups[key]] for key in keys]
    assert_close(cells.mean[:, 0], [m.mean() for m in members])
    assert_close(cells.within[:, 0], [((m - m.mean()) ** 2).sum() for m in members])
    with pytest.raises(ParameterError, match="treatment must be 0 or 1"):
        rep_cells(net, d * 2, y)
    with pytest.raises(ParameterError, match="outcome must be finite"):
        rep_cells(net, d, np.where(np.arange(200) == 7, np.nan, y))
