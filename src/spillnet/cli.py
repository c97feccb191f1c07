"""Command-line front end: simulate, scatter, oracle, audit.

Exit codes: 0 success, 2 usage/parameter problems, 3 input-data problems,
4 numerical singularity, 5 I/O failures. Flags override values from an
optional JSON config file (--config) whose keys mirror SimConfig fields.
Every file-producing run writes a ``<out>.manifest.json`` listing outputs
and the fully resolved configuration, sufficient to reproduce the run.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .dgp import (
    BuiltinDesign,
    DesignSpec,
    EffectGaps,
    load_design_csv,
    resolve_design,
    true_effect_deltas,
)
from .errors import (
    ConfigurationError,
    EmptySubsampleError,
    IngestionError,
    ParameterError,
    SingularModelError,
)
from .estimators import CONST, SPECS, TREATED, StratifiedResult, stratified_regression
from .exposure import (
    TreatmentVector,
    assign_bernoulli,
    compute_exposure,
    cov_dbar_star_degree_closed_form,
    empirical_exposure_diagnostics,
    write_scatter_csv,
)
from .graph import DegreeSummary, from_edge_list, nonnegative_int, read_table, summarize
from .montecarlo import (
    AggregateReport,
    ErdosRenyiGraph,
    SimConfig,
    WattsStrogatzGraph,
    run,
    write_results_csv,
)
from .oracle import OracleReport, imputation_bias, oracle_report


# ---------------------------------------------------------------------------
# config plumbing

def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise IngestionError(f"{path}: config must be a JSON object")
    return cfg


def _pick(flag_value, cfg: dict[str, Any], key: str, default):
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _graph_model(args, cfg: dict[str, Any]):
    graph_cfg = cfg.get("graph", {})
    kind = _pick(args.graph, graph_cfg, "kind", "ws")
    if kind == "ws":
        return WattsStrogatzGraph(
            k=int(_pick(args.ws_k, graph_cfg, "k", WattsStrogatzGraph.k)),
            beta=float(_pick(args.ws_beta, graph_cfg, "beta", WattsStrogatzGraph.beta)),
            delete_prob=float(
                _pick(args.ws_delete_prob, graph_cfg, "delete_prob", WattsStrogatzGraph.delete_prob)
            ),
        )
    if kind == "er":
        return ErdosRenyiGraph(
            mean_degree=float(
                _pick(args.er_mean_degree, graph_cfg, "mean_degree", ErdosRenyiGraph.mean_degree)
            )
        )
    raise ParameterError(f"unknown graph kind {kind!r}; expected 'ws' or 'er'")


def _design_from_args(args, cfg: dict[str, Any], c: float) -> BuiltinDesign | DesignSpec:
    design_file = _pick(getattr(args, "design_file", None), cfg, "design_file", None)
    if design_file is not None:
        noise_sd = float(_pick(getattr(args, "noise_sd", None), cfg, "noise_sd", 1.0))
        return load_design_csv(design_file, noise_sd)
    design = _pick(args.design, cfg, "design", None)
    if design is None:
        raise ParameterError("a --design id or --design-file is required")
    try:
        return BuiltinDesign(design_id=int(design), c=c)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"--design must be 1, 2 or 3 here (got {design!r})") from exc


def _design_ids(args, cfg: dict[str, Any]) -> list[str]:
    design = str(_pick(args.design, cfg, "design", "all"))
    if design == "all":
        return ["1", "2", "3"]
    if design not in {"1", "2", "3"}:
        raise ParameterError(f"--design must be 1, 2, 3 or all (got {design!r})")
    return [design]


def _c_values(args, cfg: dict[str, Any], default: str = "0,-0.5") -> list[float]:
    raw = _pick(args.c, cfg, "c", default)
    if isinstance(raw, (int, float)):
        return [float(raw)]
    if isinstance(raw, list):
        return [float(v) for v in raw]
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"could not parse --c value {raw!r}") from exc


def _graph_to_dict(graph: WattsStrogatzGraph | ErdosRenyiGraph) -> dict[str, Any]:
    if isinstance(graph, WattsStrogatzGraph):
        return {"kind": "ws", "k": graph.k, "beta": graph.beta,
                "delete_prob": graph.delete_prob}
    return {"kind": "er", "mean_degree": graph.mean_degree}


def _config_to_dict(config: SimConfig) -> dict[str, Any]:
    out: dict[str, Any] = {
        "n": config.n,
        "reps": config.reps,
        "p": config.p,
        "base_seed": config.base_seed,
        "regenerate_graph_each_rep": config.regenerate_graph_each_rep,
    }
    if isinstance(config.design, BuiltinDesign):
        out["design"] = {"design_id": config.design.design_id, "c": config.design.c}
    else:
        out["design"] = {
            "baseline": {str(g): v for g, v in config.design.baseline.items()},
            "direct_effect": {str(g): v for g, v in config.design.direct_effect.items()},
            "spillover_effect": {str(g): v for g, v in config.design.spillover_effect.items()},
            "noise_sd": config.design.noise_sd,
        }
    out["graph"] = _graph_to_dict(config.graph)
    return out


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    """Rebuild a SimConfig from its manifest serialization."""
    design_data = data["design"]
    design: BuiltinDesign | DesignSpec
    if "design_id" in design_data:
        design = BuiltinDesign(design_id=int(design_data["design_id"]), c=float(design_data["c"]))
    else:
        design = DesignSpec(
            baseline={int(g): float(v) for g, v in design_data["baseline"].items()},
            direct_effect={int(g): float(v) for g, v in design_data["direct_effect"].items()},
            spillover_effect={int(g): float(v) for g, v in design_data["spillover_effect"].items()},
            noise_sd=float(design_data["noise_sd"]),
        )
    graph_data = data["graph"]
    graph: WattsStrogatzGraph | ErdosRenyiGraph
    if graph_data["kind"] == "ws":
        graph = WattsStrogatzGraph(
            k=int(graph_data["k"]),
            beta=float(graph_data["beta"]),
            delete_prob=float(graph_data["delete_prob"]),
        )
    else:
        graph = ErdosRenyiGraph(mean_degree=float(graph_data["mean_degree"]))
    return SimConfig(
        n=int(data["n"]),
        reps=int(data["reps"]),
        p=float(data["p"]),
        design=design,
        graph=graph,
        base_seed=int(data["base_seed"]),
        regenerate_graph_each_rep=bool(data["regenerate_graph_each_rep"]),
    )


def _write_manifest(command: str, out_path: Path, outputs: list[str],
                    config_payload: Any, started: float) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": time.monotonic() - started,
        "outputs": outputs,
        "config": config_payload,
    }
    manifest_path = Path(str(out_path) + ".manifest.json")
    with manifest_path.open("w") as fh:
        json.dump(manifest, fh, indent=2)


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    graph = _graph_model(args, cfg)
    n = int(_pick(args.n, cfg, "n", 1000))
    reps = int(_pick(args.reps, cfg, "reps", 5000))
    p = float(_pick(args.p, cfg, "p", 0.5))
    seed = int(_pick(args.seed, cfg, "base_seed", 0))
    regenerate = bool(_pick(
        (False if args.fixed_graph else None), cfg, "regenerate_graph_each_rep", True
    ))

    design_file = _pick(args.design_file, cfg, "design_file", None)
    entries: list[tuple[str, str, AggregateReport]] = []
    config_dicts = []
    if design_file is not None:
        runs = [("custom", "", _design_from_args(args, cfg, 0.0))]
    else:
        runs = [
            (design_id, _format_number(c), BuiltinDesign(design_id=int(design_id), c=c))
            for design_id in _design_ids(args, cfg)
            for c in _c_values(args, cfg)
        ]
    for design_label, c_label, design in runs:
        config = SimConfig(
            n=n, reps=reps, p=p, design=design, graph=graph,
            base_seed=seed, regenerate_graph_each_rep=regenerate,
        )
        report = run(config, workers=args.workers)
        entries.append((design_label, c_label, report))
        config_dicts.append(_config_to_dict(config))
        print(
            f"design {design_label} c={c_label or '-'}: "
            f"{report.reps_completed}/{report.reps_requested} reps, "
            f"{report.n_excluded} excluded"
        )

    out = Path(args.out)
    write_results_csv(entries, out)
    _write_manifest("simulate", out, [str(out)], config_dicts, started)
    print(f"wrote {out}")
    return 0


def _format_number(x: float) -> str:
    return f"{x:g}"


# ---------------------------------------------------------------------------
# scatter

def cmd_scatter(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    graph = _graph_model(args, cfg)
    n = int(_pick(args.n, cfg, "n", 1000))
    p = float(_pick(args.p, cfg, "p", 0.5))
    seed = int(_pick(args.seed, cfg, "base_seed", 0))

    net = graph.generate(n, seed)
    tr = assign_bernoulli(n, p, seed + 1)
    profile = compute_exposure(net, tr)
    diag = empirical_exposure_diagnostics(profile)

    out = Path(args.out)
    write_scatter_csv(profile, out)
    payload = {"n": n, "p": p, "seed": seed, "graph": _graph_to_dict(graph)}
    _write_manifest("scatter", out, [str(out)], payload, started)

    def fmt(v):
        return "undefined" if v is None else f"{v:.6f}"

    print(f"r2(degree, dbar | degree>0) = {fmt(diag.r2_dbar)}")
    print(f"r2(degree, dbar_star)      = {fmt(diag.r2_dbar_star)}")
    print(f"isolated share             = {np.mean(profile.degree == 0):.4f}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# oracle

def _positive_int(cell: str) -> int:
    value = int(cell)
    if value <= 0:
        raise ValueError(f"{value} is not positive")
    return value


def _read_histogram_csv(path: str) -> DegreeSummary:
    columns, lines = read_table(
        path, {"degree": nonnegative_int, "count": _positive_int}, unique="degree"
    )
    if not lines:
        raise IngestionError(f"{path}:1: histogram file has no rows")
    return DegreeSummary.from_histogram(dict(zip(columns["degree"], columns["count"])))


def _format_oracle_text(report: OracleReport) -> str:
    def fmt(v, width=12):
        return ("undefined" if v is None else f"{v:.6f}").rjust(width)

    lines = [
        f"treated probability        {fmt(report.treated_prob)}",
        f"positive-degree share      {fmt(report.positive_share)}",
        f"mean inverse degree (>0)   {fmt(report.mean_inverse_degree_positive)}",
        f"baseline gap               {fmt(report.baseline_gap)}",
        f"direct-effect gap          {fmt(report.direct_gap)}",
        f"mean dbar_star             {fmt(report.mean_dbar_star)}",
        f"var dbar_star              {fmt(report.var_dbar_star)}",
        "",
        "specification       direct     spillover",
        f"t_reg         {fmt(report.t_direct)}  {fmt(report.t_spillover)}",
        f"dbar_reg      {fmt(report.dbar_direct)}  {fmt(report.dbar_spillover)}",
        f"dbar_star_reg {fmt(report.dbar_star_direct)}  {fmt(report.dbar_star_total)}"
        f"  (bias {fmt(report.dbar_star_bias, 0)}"
        f" + weighted {fmt(report.dbar_star_weighted, 0)})",
    ]
    return "\n".join(lines)


_ORACLE_CSV_FIELDS = (
    "t_direct", "t_spillover", "dbar_direct", "dbar_spillover",
    "dbar_star_direct", "dbar_star_bias", "dbar_star_weighted", "dbar_star_total",
    "treated_prob", "positive_share", "baseline_gap", "direct_gap",
    "mean_inverse_degree_positive", "mean_dbar_star", "var_dbar_star",
)


def cmd_oracle(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    p = float(_pick(args.p, cfg, "p", 0.5))
    c_values = _c_values(args, cfg, default="0")
    if len(c_values) != 1:
        raise ParameterError("oracle takes a single --c value")

    if args.histogram is not None:
        summary = _read_histogram_csv(args.histogram)
        source = f"histogram {args.histogram}"
    else:
        graph = _graph_model(args, cfg)
        n = int(_pick(args.n, cfg, "n", 1000))
        seed = int(_pick(args.seed, cfg, "base_seed", 0))
        summary = summarize(graph.generate(n, seed))
        source = f"realized graph (n={n}, seed={seed})"

    design = _design_from_args(args, cfg, c_values[0])
    spec = resolve_design(design, summary.histogram.keys())
    report = oracle_report(spec, summary, p)
    print(f"oracle from {source}")
    print(_format_oracle_text(report))

    if args.out is not None:
        out = Path(args.out)
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity", "value"])
            for field_name in _ORACLE_CSV_FIELDS:
                value = getattr(report, field_name)
                writer.writerow([field_name, "" if value is None else value])
        _write_manifest("oracle", out, [str(out)],
                        {"p": p, "source": source}, started)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# audit

def _binary(cell: str) -> int:
    if cell not in ("0", "1"):
        raise ValueError(f"non-binary value {cell!r}")
    return int(cell)


def _read_unit_data(path: str, id_col: str, treatment_col: str, outcome_col: str):
    columns, lines = read_table(
        path, {id_col: str, treatment_col: _binary, outcome_col: float}, unique=id_col
    )
    if not lines:
        raise IngestionError(f"{path}:1: no data rows")
    treatment = np.array(columns[treatment_col], dtype=np.int64)
    return columns[id_col], treatment, np.array(columns[outcome_col], dtype=float)


def _plug_in_gaps(strat: StratifiedResult, summary: DegreeSummary) -> EffectGaps:
    """The baseline and direct-effect gaps of the fitted strata.

    They are ``true_effect_deltas`` of the design whose tables hold each
    fitted stratum's coefficients, over the degree counts of those strata.
    """
    if 0 not in strat.fits:
        return EffectGaps(baseline=None, direct=None)
    fitted = DesignSpec(
        baseline={g: fit.coef(CONST) for g, fit in strat.fits.items()},
        direct_effect={g: fit.coef(TREATED) for g, fit in strat.fits.items()},
        spillover_effect=dict.fromkeys(strat.fits, 0.0),  # the gaps do not read it
        noise_sd=0.0,
    )
    return true_effect_deltas(
        fitted, DegreeSummary.from_histogram({g: summary.histogram[g] for g in strat.fits})
    )


def cmd_audit(args) -> int:
    ids, d, y = _read_unit_data(args.data, args.id_col, args.treatment_col, args.outcome_col)
    index = {unit: i for i, unit in enumerate(ids)}
    edges, edge_lines = read_table(args.edges, {"src": str, "dst": str})
    bad = [
        f"{args.edges}:{line}: {a!r}-{b!r}"
        for a, b, line in zip(edges["src"], edges["dst"], edge_lines)
        if a not in index or b not in index or a == b
    ]
    if bad:
        raise IngestionError(
            f"edges must join two different ids of {args.data}: {', '.join(bad[:20])}"
        )
    net = from_edge_list(
        [(index[a], index[b]) for a, b in zip(edges["src"], edges["dst"])], n=len(ids)
    )

    p_hat = float(d.mean())
    tr = TreatmentVector(d=d, p=p_hat)
    summary = summarize(net)
    profile = compute_exposure(net, tr)
    diag = empirical_exposure_diagnostics(profile)

    def opt(v):
        return "undefined" if v is None else f"{v:.4f}"

    lines = [
        f"audit of {args.data} with edges {args.edges}",
        f"units: {len(ids)}   treated share: {p_hat:.4f}",
        "",
        "degree summary",
        f"  mean degree                {summary.mean_degree:.4f}",
        f"  max degree                 {summary.max_degree}",
        f"  isolated share             {summary.isolated_fraction:.4f}",
        f"  mean degree (>0)           {opt(summary.mean_degree_positive)}",
        f"  mean inverse degree (>0)   {opt(summary.mean_inverse_degree_positive)}",
        "",
        "imputed-fraction vs degree covariance",
        f"  empirical                  {diag.cov_dbar_star_degree:.6f}",
        f"  closed form (p = treated share) "
        f"{cov_dbar_star_degree_closed_form(summary, p_hat):.6f}",
    ]

    lines += ["", "regression fits (coefficient [se])"]
    slopes: dict[str, tuple[float, float]] = {}  # spec name -> spillover coefficient, se
    for name, (fit_fn, slope_name, _) in SPECS.items():
        try:
            fit = fit_fn(net, tr, y, profile=profile)
        except (SingularModelError, EmptySubsampleError, ParameterError):
            lines.append(f"  {name:<14} unavailable")
            continue
        slope, slope_se = slopes[name] = fit.coef(slope_name), fit.se[slope_name]
        lines.append(
            f"  {name:<14} direct {fit.coef(TREATED):9.4f} [{fit.se[TREATED]:.4f}]"
            f"   spillover {slope:9.4f} [{slope_se:.4f}]   n={fit.n_used}"
        )

    strat = stratified_regression(net, tr, y, profile=profile)
    gaps = _plug_in_gaps(strat, summary)
    implied_bias = imputation_bias(
        gaps.baseline, gaps.direct, p_hat,
        summary.positive_share, summary.mean_inverse_degree_positive,
    )
    lines += [
        "",
        "plug-in stratified gaps (positive-degree strata vs isolated stratum)",
        f"  baseline gap               {opt(gaps.baseline)}",
        f"  direct-effect gap          {opt(gaps.direct)}",
        f"  implied imputation bias    {opt(implied_bias)}",
    ]
    if strat.skipped:
        skipped = ", ".join(f"degree {g}: {reason}" for g, reason in sorted(strat.skipped.items()))
        lines.append(f"  strata skipped: {skipped}")

    warning = False
    if summary.isolated_fraction > 0 and {"dbar_reg", "dbar_star_reg"} <= slopes.keys():
        (spill_dbar, se_dbar), (spill_star, se_star) = slopes["dbar_reg"], slopes["dbar_star_reg"]
        combined_se = float(np.hypot(se_dbar, se_star))
        if abs(spill_star - spill_dbar) > 2.0 * combined_se:
            warning = True
            lines += [
                "",
                "WARNING: the zero-imputed spillover estimate differs from the",
                f"subsample estimate by {abs(spill_star - spill_dbar):.4f} "
                f"(> 2 x combined se {combined_se:.4f}) while "
                f"{summary.isolated_fraction:.1%} of units are isolated.",
                "The imputed fit is likely contaminated by baseline differences",
                "between isolated and connected units; prefer the subsample fit.",
            ]
    if not warning:
        lines += ["", "no imputation warning raised"]

    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", choices=("ws", "er"), default=None,
                     help="graph generator (default ws, calibrated)")
    sub.add_argument("--ws-k", type=int, default=None, help="ring neighbors (even)")
    sub.add_argument("--ws-beta", type=float, default=None, help="rewiring probability")
    sub.add_argument("--ws-delete-prob", type=float, default=None,
                     help="edge deletion probability")
    sub.add_argument("--er-mean-degree", type=float, default=None,
                     help="target mean degree for the er generator")


def _add_shared(sub: argparse.ArgumentParser, out_required: bool) -> None:
    sub.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    sub.add_argument("--out", required=out_required, default=None, help="output CSV path")
    sub.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spillnet",
        description="Spillover regressions on interference networks: "
                    "simulation, diagnostics and theoretical coefficients.",
    )
    parser.add_argument("--version", action="version", version=f"spillnet {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sim = subparsers.add_parser("simulate", help="Monte Carlo study over designs")
    sim.add_argument("--design", default=None, help="1, 2, 3 or all (default all)")
    sim.add_argument("--design-file", default=None,
                     help="CSV degree,theta00,mu_de,lambda_se overriding --design")
    sim.add_argument("--noise-sd", type=float, default=None,
                     help="noise scale for --design-file (default 1.0)")
    sim.add_argument("--c", default=None, help="comma-separated spillover scales (default 0,-0.5)")
    sim.add_argument("--n", type=int, default=None, help="units per repetition (default 1000)")
    sim.add_argument("--reps", type=int, default=None, help="repetitions (default 5000)")
    sim.add_argument("--p", type=float, default=None, help="treatment probability (default 0.5)")
    sim.add_argument("--fixed-graph", action="store_true",
                     help="reuse one graph across repetitions")
    sim.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    _add_graph_flags(sim)
    _add_shared(sim, out_required=True)
    sim.set_defaults(func=cmd_simulate)

    sca = subparsers.add_parser("scatter", help="one realization of degree vs treated fractions")
    sca.add_argument("--n", type=int, default=None, help="units (default 1000)")
    sca.add_argument("--p", type=float, default=None, help="treatment probability (default 0.5)")
    _add_graph_flags(sca)
    _add_shared(sca, out_required=True)
    sca.set_defaults(func=cmd_scatter)

    orc = subparsers.add_parser("oracle", help="theoretical coefficients for a degree distribution")
    orc.add_argument("--design", default=None, help="1, 2 or 3 (default must be single)")
    orc.add_argument("--design-file", default=None,
                     help="CSV degree,theta00,mu_de,lambda_se overriding --design")
    orc.add_argument("--noise-sd", type=float, default=None, help="noise scale for --design-file")
    orc.add_argument("--c", default=None, help="single spillover scale (default 0)")
    orc.add_argument("--p", type=float, default=None, help="treatment probability (default 0.5)")
    orc.add_argument("--n", type=int, default=None, help="units when realizing a graph")
    orc.add_argument("--histogram", default=None,
                     help="degree,count CSV; bypasses graph generation")
    _add_graph_flags(orc)
    _add_shared(orc, out_required=False)
    orc.set_defaults(func=cmd_oracle)

    aud = subparsers.add_parser("audit", help="isolated-node diagnostics for real data")
    aud.add_argument("--edges", required=True, help="edge CSV src,dst referencing unit ids")
    aud.add_argument("--data", required=True, help="unit CSV with id, treatment, outcome")
    aud.add_argument("--id-col", default="id")
    aud.add_argument("--treatment-col", default="treatment")
    aud.add_argument("--outcome-col", default="outcome")
    aud.add_argument("--out", default=None, help="also write the report to this path")
    aud.set_defaults(func=cmd_audit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IngestionError as exc:
        print(f"spillnet: input error: {exc}", file=sys.stderr)
        return 3
    except (SingularModelError, EmptySubsampleError) as exc:
        print(f"spillnet: numerical error: {exc}", file=sys.stderr)
        return 4
    except (ParameterError, ConfigurationError) as exc:
        print(f"spillnet: usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"spillnet: io error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
