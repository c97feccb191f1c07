"""Command-line front end: simulate, scatter, oracle, audit.

Exit codes: 0 success, 2 usage/parameter problems, 3 input-data problems
(a --config value of the wrong type among them), 4 numerical singularity,
5 I/O failures. Flags override the values of the JSON config file.
Every file-producing run writes a ``<out>.manifest.json`` listing outputs
and the fully resolved configuration, sufficient to reproduce the run.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .dgp import BuiltinDesign, Design, EffectGaps, effect_gaps, load_design_csv
from .errors import (
    DEGENERATE_FIT_ERRORS,
    ConfigurationError,
    EmptySubsampleError,
    IngestionError,
    ParameterError,
    SingularModelError,
)
from .estimators import (
    CONST,
    SPECS,
    TREATED,
    StratifiedResult,
    cell_table,
    fit_specification,
    stratified_regression,
)
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
    GRAPH_KINDS,
    SimConfig,
    config_to_dict,
    graph_to_dict,
    run_study,
    write_results_csv,
)
from .oracle import OracleReport, imputation_bias, oracle_report


# ---------------------------------------------------------------------------
# config plumbing

@dataclass(frozen=True)
class _Config:
    """The values of a JSON config file (none without one), or of one of its sections."""

    path: str | None
    values: dict[str, Any]
    prefix: str = ""

    def pick(self, flag_value, key: str, default, parse=None):
        """The flag if given, else the config value through ``parse``, else ``default``.

        A value that ``parse`` rejects raises IngestionError naming the file and key.
        """
        if flag_value is not None:
            return flag_value
        if key not in self.values:
            return default
        try:
            return self.values[key] if parse is None else parse(self.values[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise IngestionError(f"{self.path}: config key {self.prefix + key!r}: {exc}") from None

    def section(self, key: str) -> "_Config":
        values = self.values.get(key, {})
        if not isinstance(values, dict):
            raise IngestionError(f"{self.path}: config key {key!r} must be a JSON object")
        return _Config(self.path, values, f"{key}.")


def _load_config(path: str | None) -> _Config:
    if path is None:
        return _Config(None, {})
    try:
        with open(path, encoding="utf-8-sig") as fh:
            values = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(values, dict):
        raise IngestionError(f"{path}: config must be a JSON object")
    return _Config(path, values)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _graph_model(args, cfg: _Config):
    """The ``GRAPH_KINDS`` model asked for, each field from its --<kind>-<field> flag or config."""
    graph_cfg = cfg.section("graph")
    kind = graph_cfg.pick(args.graph, "kind", "ws")
    model = GRAPH_KINDS.get(str(kind))
    if model is None:
        raise ParameterError(f"unknown graph kind {kind!r}; expected 'ws' or 'er'")
    return model(**{
        f.name: graph_cfg.pick(getattr(args, f"{kind}_{f.name}"), f.name, f.default,
                               _integer if isinstance(f.default, int) else _number)
        for f in fields(model)
    })


def _designs(args, cfg: _Config, default_design: str | None,
             default_c: str) -> list[tuple[str, str, Design]]:
    """(design label, c label, design) of each setting asked for.

    A design file gives the one ``custom`` setting; built-in designs give one
    setting per design id and spillover constant c. A noise scale for a
    built-in design, or c with a design file, would be ignored, so either
    raises ParameterError naming the flag or config key that gave it.
    """
    design_file = cfg.pick(args.design_file, "design_file", None)
    key, flag, kind = (("c", "--c", "a --design-file design") if design_file is not None
                       else ("noise_sd", "--noise-sd", "a built-in design"))
    flagged = getattr(args, key) is not None
    if flagged or key in cfg.values:
        raise ParameterError(f"{flag if flagged else f'config key {key!r}'} does not apply to {kind}")
    if design_file is not None:
        noise_sd = cfg.pick(args.noise_sd, "noise_sd", 1.0, _number)
        return [("custom", "", load_design_csv(design_file, noise_sd))]
    return [
        (design_id, f"{c:g}", BuiltinDesign(design_id=int(design_id), c=c))
        for design_id in _design_ids(args, cfg, default_design)
        for c in _c_values(args, cfg, default_c)
    ]


def _design_ids(args, cfg: _Config, default: str | None) -> list[str]:
    design = cfg.pick(args.design, "design", default)
    if design is None:
        raise ParameterError("a --design id or --design-file is required")
    design = str(design)
    if design == "all":
        return ["1", "2", "3"]
    if design not in {"1", "2", "3"}:
        raise ParameterError(f"--design must be 1, 2, 3 or all (got {design!r})")
    return [design]


def _parse_c(raw) -> list[float]:
    if isinstance(raw, list):
        return [_number(v) for v in raw]
    if isinstance(raw, (int, float)):
        return [_number(raw)]
    return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]


def _c_values(args, cfg: _Config, default: str) -> list[float]:
    if args.c is None:
        return cfg.pick(None, "c", _parse_c(default), _parse_c)
    try:
        return _parse_c(args.c)
    except ValueError as exc:
        raise ParameterError(f"could not parse --c value {args.c!r}") from exc


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
    n = cfg.pick(args.n, "n", 1000, _integer)
    reps = cfg.pick(args.reps, "reps", 5000, _integer)
    p = cfg.pick(args.p, "p", 0.5, _number)
    seed = cfg.pick(args.seed, "base_seed", 0, _integer)
    regenerate = cfg.pick(
        (False if args.fixed_graph else None), "regenerate_graph_each_rep", True, _boolean
    )

    runs = _designs(args, cfg, "all", "0,-0.5")
    configs = [
        SimConfig(
            n=n, reps=reps, p=p, design=design, graph=graph,
            base_seed=seed, regenerate_graph_each_rep=regenerate,
        )
        for _, _, design in runs
    ]
    reports = run_study(configs, workers=args.workers)
    entries = [(label, c_label, report) for (label, c_label, _), report in zip(runs, reports)]
    for design_label, c_label, report in entries:
        print(
            f"design {design_label} c={c_label or '-'}: "
            f"{report.reps_completed}/{report.reps_requested} reps, "
            f"{report.n_excluded} excluded"
        )

    out = Path(args.out)
    write_results_csv(entries, out)
    _write_manifest("simulate", out, [str(out)], [config_to_dict(c) for c in configs], started)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# scatter

def cmd_scatter(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    graph = _graph_model(args, cfg)
    n = cfg.pick(args.n, "n", 1000, _integer)
    p = cfg.pick(args.p, "p", 0.5, _number)
    seed = cfg.pick(args.seed, "base_seed", 0, _integer)

    net = graph.generate(n, seed)
    tr = assign_bernoulli(n, p, seed + 1)
    profile = compute_exposure(net, tr)
    diag = empirical_exposure_diagnostics(profile)

    out = Path(args.out)
    write_scatter_csv(profile, out)
    payload = {"n": n, "p": p, "seed": seed, "graph": graph_to_dict(graph)}
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

def _int64(value: int) -> int:
    if value >= 2**63:
        raise ValueError("integer out of range, must be below 2**63")
    return value


def _degree(cell: str) -> int:
    return _int64(nonnegative_int(cell))


def _positive_int(cell: str) -> int:
    value = int(cell)
    if value <= 0:
        raise ValueError(f"{value} is not positive")
    return _int64(value)


def _read_histogram_csv(path: str) -> DegreeSummary:
    columns, lines, _ = read_table(
        path, {"degree": _degree, "count": _positive_int}, unique="degree"
    )
    if not lines:
        raise IngestionError(f"{path}:1: histogram file has no rows")
    try:
        return DegreeSummary.from_histogram(dict(zip(columns["degree"], columns["count"])))
    except ParameterError as exc:  # the cells are valid, so only their sum can be at fault
        raise IngestionError(f"{path}: {exc}") from None


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


def cmd_oracle(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    p = cfg.pick(args.p, "p", 0.5, _number)
    runs = _designs(args, cfg, None, "0")
    if len(runs) != 1:
        raise ParameterError("oracle takes a single --design and a single --c value")
    design = runs[0][2]

    if args.histogram is not None:
        summary = _read_histogram_csv(args.histogram)
        source = f"histogram {args.histogram}"
    else:
        graph = _graph_model(args, cfg)
        n = cfg.pick(args.n, "n", 1000, _integer)
        seed = cfg.pick(args.seed, "base_seed", 0, _integer)
        summary = summarize(graph.generate(n, seed))
        source = f"realized graph (n={n}, seed={seed})"

    report = oracle_report(design, summary, p)
    print(f"oracle from {source}")
    print(_format_oracle_text(report))

    if args.out is not None:
        out = Path(args.out)
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity", "value"])
            for field_name, value in asdict(report).items():
                writer.writerow([field_name, "" if value is None else value])
        _write_manifest("oracle", out, [str(out)],
                        {"p": p, "source": source}, started)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# audit

def _binary(cell: str) -> int:
    if cell == "0":
        return 0
    if cell == "1":
        return 1
    raise ValueError(f"non-binary value {cell!r}")


def _read_unit_data(path: str, id_col: str, treatment_col: str, outcome_col: str):
    columns, lines, index = read_table(
        path, {id_col: str, treatment_col: _binary, outcome_col: float}, unique=id_col
    )
    if not lines:
        raise IngestionError(f"{path}:1: no data rows")
    treatment = np.array(columns[treatment_col], dtype=np.int64)
    return index, treatment, np.array(columns[outcome_col], dtype=float)


def _plug_in_gaps(strat: StratifiedResult, summary: DegreeSummary) -> EffectGaps:
    """``effect_gaps`` of the fitted strata's coefficients, over those strata's degree counts."""
    if 0 not in strat.fits:
        return EffectGaps(baseline=None, direct=None)
    degrees = np.fromiter(strat.fits, dtype=np.int64)  # ascending, as the strata are fitted
    counts = summary.counts[np.searchsorted(summary.degrees, degrees)]
    baseline, direct = np.array([(f.coef(CONST), f.coef(TREATED)) for f in strat.fits.values()]).T
    return effect_gaps(DegreeSummary(degrees, counts), baseline, direct)


def cmd_audit(args) -> int:
    roles = {"--id-col": args.id_col, "--treatment-col": args.treatment_col,
             "--outcome-col": args.outcome_col}
    shared = [flag for flag, column in roles.items() if list(roles.values()).count(column) > 1]
    if shared:  # three roles can share at most one column
        raise ParameterError(f"{' and '.join(shared)} name the same column {roles[shared[0]]!r}")
    index, d, y = _read_unit_data(args.data, args.id_col, args.treatment_col, args.outcome_col)
    edges, edge_lines, _ = read_table(args.edges, {"src": str, "dst": str})
    pairs = np.column_stack([  # the unit row of each end, -1 for an unknown id
        np.fromiter(map(index.get, edges[end], repeat(-1)), np.int64, len(edge_lines))
        for end in ("src", "dst")
    ])
    bad = np.flatnonzero((pairs < 0).any(axis=1) | (pairs[:, 0] == pairs[:, 1]))
    if bad.size:
        shown = ", ".join(
            f"{args.edges}:{edge_lines[k]}: {edges['src'][k]!r}-{edges['dst'][k]!r}"
            for k in bad[:20].tolist()
        )
        raise IngestionError(f"edges must join two different ids of {args.data}: {shown}")
    net = from_edge_list(pairs, n=len(index))

    p_hat = float(d.mean())
    tr = TreatmentVector(d=d, p=p_hat)
    summary = summarize(net)
    profile = compute_exposure(net, tr)
    diag = empirical_exposure_diagnostics(profile)
    cells = cell_table(net, tr, y)

    def opt(v):
        return "undefined" if v is None else f"{v:.4f}"

    lines = [
        f"audit of {args.data} with edges {args.edges}",
        f"units: {len(index)}   treated share: {p_hat:.4f}",
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
    for name, spec in SPECS.items():
        try:
            fit = fit_specification(name, cells)
        except DEGENERATE_FIT_ERRORS:
            lines.append(f"  {name:<14} unavailable")
            continue
        slope, slope_se = slopes[name] = fit.coef(spec.slope), fit.se[spec.slope]
        lines.append(
            f"  {name:<14} direct {fit.coef(TREATED):9.4f} [{fit.se[TREATED]:.4f}]"
            f"   spillover {slope:9.4f} [{slope_se:.4f}]   n={fit.n_used}"
        )

    strat = stratified_regression(cells)
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


def _add_design_flags(sub: argparse.ArgumentParser, design_help: str, c_help: str) -> None:
    sub.add_argument("--design", default=None, help=design_help)
    sub.add_argument("--design-file", default=None,
                     help="CSV degree,theta00,mu_de,lambda_se overriding --design")
    sub.add_argument("--noise-sd", type=float, default=None,
                     help="noise scale for --design-file (default 1.0)")
    sub.add_argument("--c", default=None, help=c_help)


def _add_shared(sub: argparse.ArgumentParser, out_required: bool) -> None:
    sub.add_argument("--n", type=int, default=None, help="units per graph (default 1000)")
    sub.add_argument("--p", type=float, default=None, help="treatment probability (default 0.5)")
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
    _add_design_flags(sim, "1, 2, 3 or all (default all)",
                      "comma-separated spillover scales (default 0,-0.5)")
    sim.add_argument("--reps", type=int, default=None, help="repetitions (default 5000)")
    sim.add_argument("--fixed-graph", action="store_true",
                     help="reuse one graph across repetitions")
    sim.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    _add_graph_flags(sim)
    _add_shared(sim, out_required=True)
    sim.set_defaults(func=cmd_simulate)

    sca = subparsers.add_parser("scatter", help="one realization of degree vs treated fractions")
    _add_graph_flags(sca)
    _add_shared(sca, out_required=True)
    sca.set_defaults(func=cmd_scatter)

    orc = subparsers.add_parser("oracle", help="theoretical coefficients for a degree distribution")
    _add_design_flags(orc, "1, 2 or 3", "single spillover scale (default 0)")
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
