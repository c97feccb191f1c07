"""End-to-end acceptance checks at fixed tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-rA``).
The full-scale simulations (criteria 3-5) share one module-scoped fixture:
six runs of 5,000 repetitions at n=1000 with the calibrated generator.
"""

import dataclasses
import time

import numpy as np
import pytest

import helpers
from helpers import exact_dbar_star_moments, reference_design, rep_cells, unit_outcomes
from spillnet.dgp import BuiltinDesign
from spillnet.errors import EmptySubsampleError, SingularModelError
from spillnet.estimators import (
    empirical_exposure_diagnostics,
    fit_cells,
    stratified_regression,
)
from spillnet.exposure import assign_bernoulli, cov_dbar_star_degree_closed_form
from spillnet.graph import (
    WS_CALIBRATED,
    DegreeSummary,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
)
from spillnet.montecarlo import SimConfig, run_study
from spillnet.oracle import enumeration_population_ols, oracle_report

FULL_N = 1000
FULL_REPS = 5000
FULL_SEED = 20240601
SETTINGS = [(d, c) for d in (1, 2, 3) for c in (0.0, -0.5)]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    """>= 20 small graphs with varied degrees, both with and without isolation."""
    graphs = [
        from_edge_list([(0, 1), (1, 2)], n=5),           # path + 2 isolated
        from_edge_list([(0, 1), (0, 2), (0, 3)], n=6),   # star + 2 isolated
        from_edge_list([(0, 1), (1, 2), (0, 2)], n=4),   # triangle + isolated
        from_edge_list([(0, 1), (2, 3), (3, 4)], n=7),
        from_edge_list([(0, 1), (1, 2), (2, 3)], n=4),   # path, no isolation
        from_edge_list([(0, 1), (0, 2), (0, 3), (0, 4)], n=5),  # star
        from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], n=4),  # triangle + pendant
        from_edge_list(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], n=4
        ),                                               # cycle + chord
    ]
    rng = np.random.default_rng(99)
    while len(graphs) < 24:
        n = int(rng.integers(5, 11))
        net = generate_erdos_renyi(n, float(rng.uniform(0.8, 3.0)), seed=int(rng.integers(10**6)))
        degrees = net.degree
        if degrees.max() == degrees.min():
            continue  # no degree variation; count regression not identified
        if degrees.max() == 0:
            continue
        graphs.append(net)
    with_iso = [g for g in graphs if (g.degree == 0).any()]
    without_iso = [g for g in graphs if not (g.degree == 0).any()]
    assert len(graphs) >= 20 and len(with_iso) >= 5 and len(without_iso) >= 4
    return graphs


@pytest.fixture(scope="module")
def full_runs():
    started = time.monotonic()
    runs = {}
    for design_id, c in SETTINGS:
        config = SimConfig(
            n=FULL_N, reps=FULL_REPS, p=0.5,
            design=BuiltinDesign(design_id, c), base_seed=FULL_SEED,
        )
        runs[(design_id, c)] = run_study([config])[0]
    return runs, time.monotonic() - started


def test_criterion_1_theorem_formulas_equal_enumeration(corpus):
    started = time.monotonic()
    worst = 0.0
    compared = 0
    skipped = 0
    for net in corpus:
        summary = DegreeSummary.of(net.degree)
        for design_id in (1, 2, 3):
            for c in (0.0, -0.5):
                spec = reference_design(design_id, c, summary.degrees)
                for p in (0.3, 0.5):
                    report = oracle_report(spec, summary, p)
                    expected = {
                        "t_reg": (("treated", report.t_direct),
                                  ("treated_neighbors", report.t_spillover)),
                        "dbar_reg": (("treated", report.dbar_direct),
                                     ("dbar", report.dbar_spillover)),
                        "dbar_star_reg": (("treated", report.dbar_star_direct),
                                          ("dbar_star", report.dbar_star_total)),
                    }
                    for which, pairs in expected.items():
                        try:
                            coefs = enumeration_population_ols(net, spec, p, which)
                        except (SingularModelError, EmptySubsampleError):
                            skipped += 1
                            continue
                        for name, target in pairs:
                            worst = max(worst, abs(coefs[name] - target))
                            compared += 1
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 10.0 and compared >= 500 and skipped == 0
    _report(1, ok, f"worst |formula - enumeration| = {worst:.2e} over "
                   f"{compared} coefficients in {elapsed:.1f}s ({skipped} skipped)")
    assert skipped == 0
    assert compared >= 500
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_closed_form_covariance(corpus):
    worst = 0.0
    positives_checked = 0
    for net in corpus:
        summary = DegreeSummary.of(net.degree)
        for p in (0.3, 0.5):
            _, _, cov_enum = exact_dbar_star_moments(net, p)
            closed = cov_dbar_star_degree_closed_form(summary, p).item()
            worst = max(worst, abs(closed - cov_enum))
            if 0.0 < summary.isolated_fraction < 1.0:
                positives_checked += 1
                assert closed > 0.0
    ok = worst <= 1e-12 and positives_checked > 0
    _report(2, ok, f"worst |closed form - enumeration| = {worst:.2e}; "
                   f"{positives_checked} mixed-isolation cases all strictly positive")
    assert worst <= 1e-12
    assert positives_checked > 0


def test_criterion_3_table_reproduction_at_full_scale(full_runs):
    runs, elapsed = full_runs
    failures = []

    def check(label, value, target, tol):
        if abs(value - target) > tol:
            failures.append(f"{label}: {value:.4f} vs {target} (tol {tol})")

    # design 3 is unbiased everywhere
    for c in (0.0, -0.5):
        for spec_name in ("t_reg", "dbar_reg", "dbar_star_reg"):
            for coef in ("direct", "spillover"):
                cell = helpers.cell(runs[(3, c)], spec_name, coef)
                check(f"design3 c={c} {spec_name} {coef} bias", cell.bias, 0.0, 0.01)

    for design_id in (1, 2, 3):
        cell = helpers.cell(runs[(design_id, -0.5)], "t_reg", "spillover")
        check(f"design{design_id} t spillover mean", cell.mean_estimate, -0.146, 0.01)
        cell = helpers.cell(runs[(design_id, -0.5)], "dbar_reg", "spillover")
        check(f"design{design_id} dbar spillover mean", cell.mean_estimate, -0.298, 0.03)

    for (design_id, c), report in runs.items():
        for spec_name in ("t_reg", "dbar_reg", "dbar_star_reg"):
            cell = helpers.cell(report, spec_name, "direct")
            check(f"design{design_id} c={c} {spec_name} direct mean",
                  cell.mean_estimate, 1.0, 0.01)

    for (design_id, c), target in (((1, 0.0), 0.703), ((2, 0.0), 0.314), ((1, -0.5), 0.401)):
        cell = helpers.cell(runs[(design_id, c)], "dbar_star_reg", "spillover")
        check(f"design{design_id} c={c} dbar_star spillover mean",
              cell.mean_estimate, target, 0.08)

    # generator-independent: every mean sits within 3 MC standard errors of
    # the internal oracle (the bias-inclusive total for the imputed fit)
    for (design_id, c), report in runs.items():
        for spec_name in ("t_reg", "dbar_reg", "dbar_star_reg"):
            for coef in ("direct", "spillover"):
                cell = helpers.cell(report, spec_name, coef)
                target = (
                    cell.oracle_total
                    if (spec_name, coef) == ("dbar_star_reg", "spillover")
                    else cell.oracle_value
                )
                gap = abs(cell.mean_estimate - target)
                if gap > 3 * cell.mc_se:
                    failures.append(
                        f"design{design_id} c={c} {spec_name} {coef}: "
                        f"|{cell.mean_estimate:.4f} - {target:.4f}| > 3*{cell.mc_se:.5f}"
                    )

    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 300s")
    _report(3, not failures,
            f"six 5000-rep runs in {elapsed:.0f}s; " +
            ("all Table-style checks hold" if not failures else "; ".join(failures)))
    assert not failures, failures


def test_criterion_4_sign_reversal(full_runs):
    runs, _ = full_runs
    cell = helpers.cell(runs[(1, -0.5)], "dbar_star_reg", "spillover")
    ci_low = cell.mean_estimate - 1.96 * cell.mean_reported_se
    ci_high = cell.mean_estimate + 1.96 * cell.mean_reported_se
    # every true per-unit spillover lies in [-0.5, 0), so a CI above zero
    # excludes them all
    ok = cell.mean_estimate > 0.0 and ci_low > 0.0
    _report(4, ok, f"imputed spillover mean {cell.mean_estimate:.3f}, "
                   f"CI ({ci_low:.3f}, {ci_high:.3f}) excludes [-0.5, 0)")
    assert cell.mean_estimate > 0.0
    assert ci_low > 0.0


def test_criterion_5_confidence_interval_coverage(full_runs):
    runs, _ = full_runs
    failures = []
    worst = (0.95, "none")
    for (design_id, c), report in runs.items():
        for spec_name in ("t_reg", "dbar_reg"):
            cov = helpers.cell(report, spec_name, "spillover").coverage
            label = f"design{design_id} c={c} {spec_name}"
            if not 0.935 <= cov <= 0.965:
                failures.append(f"{label}: coverage {cov:.4f}")
            if abs(cov - 0.95) > abs(worst[0] - 0.95):
                worst = (cov, label)
    # the imputed regression's interval almost never covers its target when
    # the baseline varies with degree
    star_cov = helpers.cell(runs[(1, 0.0)], "dbar_star_reg", "spillover").coverage
    if star_cov > 0.01:
        failures.append(f"design1 imputed coverage {star_cov:.4f} not near zero")
    _report(5, not failures,
            f"count/fraction coverage within [0.935, 0.965] "
            f"(worst {worst[0]:.4f} at {worst[1]}); imputed coverage {star_cov:.4f}")
    assert not failures, failures


def test_criterion_6_scatter_realization_pattern():
    net = generate_watts_strogatz(FULL_N, seed=7, **WS_CALIBRATED)
    d = assign_bernoulli(FULL_N, 0.5, seed=3)
    diag = empirical_exposure_diagnostics(rep_cells(net, d, np.zeros(FULL_N)))
    iso = DegreeSummary.of(net.degree).isolated_fraction.item()
    ok = diag.r2_dbar < 0.01 and 0.02 <= diag.r2_dbar_star <= 0.10 and abs(iso - 0.10) <= 0.03
    _report(6, ok, f"r2(dbar) = {diag.r2_dbar:.4f}, r2(dbar_star) = "
                   f"{diag.r2_dbar_star:.4f}, isolated share = {iso:.3f}")
    assert diag.r2_dbar < 0.01
    assert 0.02 <= diag.r2_dbar_star <= 0.10
    assert abs(iso - 0.10) <= 0.03


def test_criterion_7_stratified_identification_without_noise():
    net = generate_watts_strogatz(3000, seed=31, **WS_CALIBRATED)
    d = assign_bernoulli(3000, 0.5, seed=32)
    spec = dataclasses.replace(
        reference_design(1, -0.5, np.unique(net.degree)), noise_sd=0.0
    )
    y = unit_outcomes(net, d, spec, seed=33)
    fits, _ = stratified_regression(rep_cells(net, d, y))
    worst = 0.0
    for g, (beta, _) in fits.items():
        # (const, treated), then treated_neighbors in a positive-degree stratum
        want = [spec.baseline[g], spec.direct_effect[g]] + [spec.spillover_effect[g]] * (g > 0)
        worst = max(worst, *np.abs(beta - want).tolist())
    isolated_clean = 0 in fits and fits[0][0].size == 2
    ok = worst <= 1e-9 and isolated_clean and len(fits) >= 4
    _report(7, ok, f"{len(fits)} strata recovered to {worst:.2e}; "
                   f"degree-0 stratum has no neighbor-count term")
    assert worst <= 1e-9
    assert isolated_clean
    assert len(fits) >= 4


def test_criterion_8_equivalence_without_isolation():
    net = generate_erdos_renyi(300, 8.0, seed=17)
    assert not (net.degree == 0).any(), "seed chosen to avoid isolated nodes"
    d = assign_bernoulli(300, 0.5, seed=18)
    spec = reference_design(1, -0.5, np.unique(net.degree))
    y = unit_outcomes(net, d, spec, seed=19)
    a = fit_cells("dbar_reg", rep_cells(net, d, y))
    b = fit_cells("dbar_star_reg", rep_cells(net, d, y))
    identical = (
        a[3] == b[3] == [None]
        and np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    )
    report = oracle_report(spec, DegreeSummary.of(net.degree), 0.5)
    ok = identical and report.dbar_star_bias == 0.0
    _report(8, ok, "fraction and imputed-fraction fits bit-identical; "
                   f"oracle bias term = {report.dbar_star_bias}")
    assert identical
    assert report.dbar_star_bias == 0.0
