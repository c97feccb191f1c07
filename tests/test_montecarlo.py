import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillnet import montecarlo
import helpers
from helpers import csv_lines, reference_design, rep_cells
from spillnet.dgp import BuiltinDesign
from spillnet.errors import (
    EmptySubsampleError, ParameterError, SingularModelError, TooFewUnitsError,
)
from spillnet.estimators import fit_cells
from spillnet.exposure import compute_exposure
from spillnet.montecarlo import (
    CELLS,
    ErdosRenyiGraph,
    SimConfig,
    WattsStrogatzGraph,
    derive_seed,
    results_rows,
    run_study,
)

SMALL = SimConfig(n=80, reps=12, p=0.5, design=BuiltinDesign(1, -0.5), base_seed=3)


def test_derive_seed_reproducible_and_64_bit():
    a = derive_seed(42, 7, "graph")
    assert a == derive_seed(42, 7, "graph")
    assert 0 <= a < 2**64


def test_derive_seed_stream_and_rep_separation():
    # scan a million (base, rep) pairs: streams never collide, and
    # consecutive reps never share a seed within a stream
    collisions = 0
    for base in range(100):
        graph_seeds = [derive_seed(base, rep, "graph") for rep in range(10_000)]
        noise_seeds = [derive_seed(base, rep, "noise") for rep in range(10_000)]
        collisions += sum(g == n for g, n in zip(graph_seeds, noise_seeds))
        collisions += sum(
            graph_seeds[i] == graph_seeds[i + 1] for i in range(len(graph_seeds) - 1)
        )
    assert collisions == 0


def test_run_is_deterministic():
    assert run_study([SMALL])[0] == run_study([SMALL])[0]


def test_run_has_all_cells_and_sane_aggregates():
    report = run_study([SMALL])[0]
    assert tuple((c.spec_name, c.coef) for c in report.cells) == CELLS
    for cell in report.cells:
        assert 0.0 <= cell.coverage <= 1.0
        assert cell.bias == pytest.approx(cell.mean_estimate - cell.oracle_value)
        assert cell.mc_se is not None and cell.mc_se > 0
    spill = helpers.cell(report, "dbar_star_reg", "spillover")
    assert spill.oracle_total != spill.oracle_value  # bias term present in design 1


def test_parallel_execution_matches_serial(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_UNITS", 5 * SMALL.n)  # three blocks of at most 5 reps
    serial = run_study([SMALL])[0]
    parallel = run_study([SMALL], workers=2)[0]
    assert serial == parallel
    fixed = dataclasses.replace(
        SMALL, graph=ErdosRenyiGraph(mean_degree=3.0), regenerate_graph_each_rep=False
    )
    assert run_study([fixed])[0] == run_study([fixed], workers=2)[0]


def test_one_block_runs_serially_and_the_pool_has_a_worker_per_block(monkeypatch):
    import concurrent.futures

    def no_pool(max_workers):
        raise AssertionError("a one-block study started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert montecarlo._block_size(SMALL.n) >= SMALL.reps  # one block
    assert run_study([SMALL], workers=2) == run_study([SMALL])

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo, "_BLOCK_UNITS", 5 * SMALL.n)  # three blocks
    assert run_study([SMALL], workers=8) == run_study([SMALL])
    assert started == [3]


def test_single_rep_marks_mc_se_undefined():
    report = run_study([dataclasses.replace(SMALL, reps=1)])[0]
    cell = helpers.cell(report, "t_reg", "spillover")
    assert cell.mc_se is None
    assert cell.ci95_of_mean is None
    assert cell.coverage in (0.0, 1.0)


def test_fixed_graph_reuses_the_same_network():
    fixed = dataclasses.replace(SMALL, reps=6, regenerate_graph_each_rep=False)
    single = dataclasses.replace(SMALL, reps=1, regenerate_graph_each_rep=False)
    # with one shared graph the per-rep oracle is constant, so its average
    # equals the single-rep value exactly
    assert (helpers.cell(run_study([fixed])[0], "dbar_reg", "spillover").oracle_value
            == helpers.cell(run_study([single])[0], "dbar_reg", "spillover").oracle_value)


class CountingGraph:
    """A graph model that counts how often it is asked for a network."""

    def __init__(self):
        self.calls = 0

    def generate(self, n, seed):
        self.calls += 1
        return WattsStrogatzGraph().generate(n, seed)


def test_fixed_graph_is_generated_once_per_run(monkeypatch):
    for units in (montecarlo._BLOCK_UNITS, 5 * SMALL.n):  # one block, then three
        monkeypatch.setattr(montecarlo, "_BLOCK_UNITS", units)
        for regenerate, expected in ((False, 1), (True, SMALL.reps)):
            model = CountingGraph()
            run_study([dataclasses.replace(SMALL, graph=model,
                                           regenerate_graph_each_rep=regenerate)])
            assert model.calls == expected, (units, regenerate)


def test_study_generates_each_graph_once_for_all_settings():
    for regenerate, expected in ((False, 1), (True, SMALL.reps)):
        model = CountingGraph()
        base = dataclasses.replace(SMALL, graph=model, regenerate_graph_each_rep=regenerate)
        run_study(study_settings(base))
        assert model.calls == expected, regenerate


def test_exposure_is_computed_once_per_rep(monkeypatch):
    calls = []

    def counting(net, d):
        calls.append(1)
        return compute_exposure(net, d)

    monkeypatch.setattr(montecarlo, "compute_exposure", counting)
    run_study([SMALL])
    assert len(calls) == SMALL.reps
    calls.clear()
    run_study(study_settings(SMALL))
    assert len(calls) == SMALL.reps


def study_settings(base, designs=(1, 2, 3), cs=(0.0, -0.5)):
    return [dataclasses.replace(base, design=BuiltinDesign(d, c)) for d in designs for c in cs]


def assert_reports_close(a, b, tol=1e-12):
    assert a.config == b.config
    assert (a.reps_requested, a.reps_completed) == (b.reps_requested, b.reps_completed)
    assert a.exclusions == b.exclusions
    for x, y in zip(a.cells, b.cells, strict=True):
        assert (x.spec_name, x.coef, x.coverage) == (y.spec_name, y.coef, y.coverage)
        for name in ("mean_estimate", "mean_reported_se", "oracle_value", "oracle_total", "bias"):
            assert abs(getattr(x, name) - getattr(y, name)) <= tol, (x.spec_name, x.coef, name)
        assert (x.mc_se is None) == (y.mc_se is None)
        if x.mc_se is not None:
            assert abs(x.mc_se - y.mc_se) <= tol
            assert np.allclose(x.ci95_of_mean, y.ci95_of_mean, rtol=0, atol=tol)


def outcome(fn):
    """The reports ``fn`` returns, or the type of the error it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn()
        except EmptySubsampleError as exc:
            return type(exc)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(10, 60),
    reps=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    designs=st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3, unique=True),
    cs=st.lists(st.sampled_from((0.0, -0.5, 0.7)), min_size=1, max_size=2, unique=True),
    graph=st.sampled_from((WattsStrogatzGraph(), WattsStrogatzGraph(k=4, beta=0.5, delete_prob=0.3),
                           ErdosRenyiGraph(2.0), ErdosRenyiGraph(0.8))),
    regenerate=st.booleans(),
)
def test_study_equals_separate_runs(n, reps, seed, designs, cs, graph, regenerate):
    base = SimConfig(n=n, reps=reps, graph=graph, base_seed=seed,
                     regenerate_graph_each_rep=regenerate)
    configs = study_settings(base, designs, cs)
    study = outcome(lambda: run_study(configs))
    separate = outcome(lambda: [run_study([config])[0] for config in configs])
    if study is EmptySubsampleError or separate is EmptySubsampleError:
        assert study is separate
        return
    for a, b in zip(study, separate, strict=True):
        assert_reports_close(a, b)


def test_study_matches_separate_runs_on_the_paper_settings():
    configs = study_settings(SimConfig(n=300, reps=20, base_seed=17))
    separate = [run_study([config])[0] for config in configs]
    for a, b in zip(run_study(configs), separate, strict=True):
        assert_reports_close(a, b)


def test_study_rejects_settings_that_differ_beyond_design():
    base = study_settings(SMALL)
    for change in (
        {"n": 81}, {"p": 0.4}, {"graph": ErdosRenyiGraph()}, {"base_seed": 4},
        {"reps": 11}, {"regenerate_graph_each_rep": False},
    ):
        (field,) = change
        with pytest.raises(ParameterError, match=field):
            run_study(base + [dataclasses.replace(SMALL, **change)])
    with pytest.raises(ParameterError):
        run_study([])


@pytest.mark.parametrize("workers", [0, -3])
def test_study_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ParameterError, match=f"workers must be at least 1 \\(got {workers}\\)"):
        run_study(study_settings(SMALL), workers=workers)
    with pytest.raises(ParameterError, match="workers"):
        run_study([SMALL], workers=workers)


def test_only_degenerate_draws_are_excluded(monkeypatch):
    real = montecarlo.fit_cells

    def failing_rep_zero(error):
        calls = []

        def fit(name, cells):
            calls.append(1)
            beta, se, rss, errors = real(name, cells)
            if len(calls) == 1:  # the first specification of rep 0's block
                if not isinstance(error, TooFewUnitsError):
                    raise error
                errors[0] = error
            return beta, se, rss, errors
        return fit

    monkeypatch.setattr(montecarlo, "fit_cells", failing_rep_zero(TooFewUnitsError("too few")))
    with pytest.warns(UserWarning, match="excluded"):
        assert run_study([SMALL])[0].exclusions == ((0, "too few"),)
    # any other ParameterError is a bug to report, not a rep to drop
    monkeypatch.setattr(montecarlo, "fit_cells", failing_rep_zero(ParameterError("bug")))
    with pytest.raises(ParameterError, match="bug"):
        run_study([SMALL])


def test_a_rank_deficient_rep_is_excluded_with_the_message_of_its_fit(monkeypatch):
    # rep 2 treats every unit, so its treatment column repeats the constant and
    # its treated-neighbour count repeats the degree
    config = dataclasses.replace(SMALL, reps=5)
    real = montecarlo.assign_bernoulli
    all_treated_seed = derive_seed(config.base_seed, 2, "treatment")

    def assign(n, p, seed):
        d = real(n, p, seed)
        return np.ones(n, dtype=np.int64) if seed == all_treated_seed else d

    monkeypatch.setattr(montecarlo, "assign_bernoulli", assign)
    with pytest.warns(UserWarning, match="excluded"):
        report = run_study([config])[0]
    message = ("design matrix is rank deficient; collinear columns: "
               "const, treated, treated_neighbors, degree")
    assert report.exclusions == ((2, message),)
    assert report.exclusion_counts == {message: 1}
    assert report.reps_completed == 4
    net = config.graph.generate(config.n, derive_seed(config.base_seed, 2, "graph"))
    _, _, _, (error,) = fit_cells("t_reg", rep_cells(
        net, assign(config.n, config.p, all_treated_seed), np.zeros(config.n)))
    assert isinstance(error, SingularModelError) and str(error) == message


def test_estimates_match_oracle_within_three_mc_ses():
    config = SimConfig(n=400, reps=150, p=0.5, design=BuiltinDesign(3, -0.5), base_seed=11)
    report = run_study([config])[0]
    for spec_name in ("t_reg", "dbar_reg"):
        for coef in ("direct", "spillover"):
            cell = helpers.cell(report, spec_name, coef)
            assert abs(cell.mean_estimate - cell.oracle_value) <= 3 * cell.mc_se
    star = helpers.cell(report, "dbar_star_reg", "spillover")
    assert abs(star.mean_estimate - star.oracle_total) <= 3 * star.mc_se


def test_excluded_reps_are_logged_with_warning():
    # almost every tiny sparse graph leaves the fraction regression without
    # enough usable rows, so most reps fail and get excluded
    config = SimConfig(
        n=10, reps=30, p=0.5, design=BuiltinDesign(3, 0.0),
        graph=ErdosRenyiGraph(mean_degree=0.2), base_seed=5,
    )
    with pytest.warns(UserWarning, match="excluded"):
        report = run_study([config])[0]
    assert report.n_excluded > 0
    assert report.reps_completed + report.n_excluded == report.reps_requested
    for rep_index, reason in report.exclusions:
        assert 0 <= rep_index < 30
        assert reason


def test_all_reps_failing_raises():
    config = SimConfig(
        n=10, reps=5, p=0.5, design=BuiltinDesign(3, 0.0),
        graph=ErdosRenyiGraph(mean_degree=1e-9), base_seed=5,
    )
    with pytest.raises(EmptySubsampleError):
        run_study([config])


def test_config_validation():
    with pytest.raises(ParameterError):
        run_study([dataclasses.replace(SMALL, reps=0)])
    with pytest.raises(ParameterError):
        run_study([dataclasses.replace(SMALL, n=5)])
    with pytest.raises(ParameterError):
        run_study([dataclasses.replace(SMALL, p=1.0)])


def test_custom_design_spec_runs():
    spec = dataclasses.replace(
        reference_design(3, -0.5, range(0, 40)), noise_sd=0.5
    )
    config = SimConfig(n=60, reps=5, p=0.5, design=spec, base_seed=9)
    report = run_study([config])[0]
    assert report.reps_completed == 5


def test_results_csv_layout():
    report = run_study([SMALL])[0]
    lines = csv_lines(results_rows([report]))
    assert lines[0] == (
        "design,c,spec,coef,mean_estimate,true_coef,bias,"
        "ci_low,ci_high,coverage,mc_se,n_excluded"
    )
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "-0.5"
    assert first[2] == "t_reg" and first[3] == "direct"
    # interval is mean +/- 1.96 * mean reported se
    cell = helpers.cell(report, "t_reg", "direct")
    assert float(first[7]) == pytest.approx(cell.mean_estimate - 1.96 * cell.mean_reported_se)
    assert float(first[8]) == pytest.approx(cell.mean_estimate + 1.96 * cell.mean_reported_se)


def test_ws_graph_model_uses_calibrated_defaults():
    from spillnet.graph import WS_CALIBRATED

    model = WattsStrogatzGraph()
    assert (model.k, model.beta, model.delete_prob) == (
        WS_CALIBRATED["k"],
        WS_CALIBRATED["beta"],
        WS_CALIBRATED["delete_prob"],
    )
    net = model.generate(50, seed=1)
    assert net.n == 50


BLOCK_STUDIES = {
    "ws": SimConfig(n=200, reps=40, base_seed=8),
    "fixed_er": SimConfig(n=400, reps=30, graph=ErdosRenyiGraph(2.0), base_seed=4,
                          regenerate_graph_each_rep=False),
    # the sparse golden study, whose reps are often excluded
    "sparse": SimConfig(n=12, reps=50, graph=ErdosRenyiGraph(0.5), base_seed=5),
}


@pytest.mark.parametrize("name", sorted(BLOCK_STUDIES))
def test_reports_do_not_depend_on_the_block_size(name, monkeypatch):
    configs = study_settings(BLOCK_STUDIES[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sparse study warns about its exclusions
        blocks = run_study(configs)
        for units in (1, 7 * configs[0].n):  # one rep per block; blocks of 7 reps
            monkeypatch.setattr(montecarlo, "_BLOCK_UNITS", units)
            assert montecarlo._block_size(configs[0].n) == max(1, units // configs[0].n)
            other = run_study(configs)
            assert other == blocks  # bit for bit, exclusions included
            assert [r.exclusions for r in other] == [r.exclusions for r in blocks]
    if name == "sparse":
        assert blocks[0].exclusions


def test_parallel_blocks_match_serial(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_UNITS", 5 * SMALL.n)  # three blocks of at most 5 reps
    configs = study_settings(SMALL)
    assert run_study(configs, workers=2) == run_study(configs)


@pytest.mark.parametrize("n", [10, 1000, 65_535, 2**16, 2**16 + 1, 10**6])
def test_block_size_bounds_the_units_of_a_block(n):
    size = montecarlo._block_size(n)
    assert size >= 1
    assert size * n <= 2**16 or size == 1  # one rep of more than 2**16 units is its own block
    assert (size + 1) * n > 2**16  # the largest such block


def test_timings_cover_every_stage_and_do_not_enter_comparisons():
    configs = study_settings(SMALL)
    a, b = run_study(configs), run_study(configs)
    assert list(a[0].timings) == list(montecarlo.STAGES)
    assert all(seconds >= 0.0 for seconds in a[0].timings.values())
    assert a[0].timings["generate"] > 0.0 and a[0].timings["fit.t_reg"] > 0.0
    assert all(report.timings is a[0].timings for report in a)  # one study, one clock
    assert a == b
