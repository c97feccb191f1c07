"""Command-line front end: simulate, scatter, oracle, audit.

Exit codes: 0 success, 2 usage/parameter problems, 3 input-data problems
(a --config value of the wrong type among them), 4 numerical singularity,
5 I/O failures, 6 out of memory (a pool worker that ends abruptly among
them). One key table, ``_KEYS``, declares each --config key with
its flag, parser and default; a command reads each key as its flag, else
its config value, else its default. A flag or config key that the command
does not read in its mode is a usage error naming it. Every file-producing
run writes a ``<out>.manifest.json`` listing outputs and the resolved
inputs under their config key names.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

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
    empirical_exposure_diagnostics,
    exposure_cells,
    fit_specification,
    stratified_regression,
)
from .exposure import (
    TreatmentVector,
    assign_bernoulli,
    compute_exposure,
    cov_dbar_star_degree_closed_form,
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
# flags and --config keys

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


def _one_of(*choices: str) -> Callable[[Any], str]:
    def parse(value) -> str:
        if str(value) not in choices:
            raise ParameterError(f"must be one of {', '.join(choices)} (got {value!r})")
        return str(value)
    return parse


def _c_list(value) -> list[float]:
    if not isinstance(value, list):
        value = ([value] if isinstance(value, (int, float))
                 else [tok for tok in str(value).split(",") if tok.strip() != ""])
    if not value:
        raise ParameterError("no spillover constant c given")
    return [_number(v) for v in value]


class _Key(NamedTuple):
    """A --config key: its flag and help, the parser of its flag and config values, its
    default, and the mode ("design" or "graph") whose choice decides if a command reads it."""

    flag: str
    help: str
    parse: Callable[[Any], Any]
    default: Any
    mode: str = ""


_GRAPH_HELP = {"k": "ring neighbors (even)", "beta": "rewiring probability",
               "delete_prob": "edge deletion probability", "mean_degree": "target mean degree"}
_KEYS = {
    "design": _Key("--design", "1, 2, 3 or all (simulate's default: all)",
                   _one_of("1", "2", "3", "all"), "all", "design"),
    "design_file": _Key("--design-file", "CSV degree,theta00,mu_de,lambda_se", os.fspath, None,
                        "design"),
    "noise_sd": _Key("--noise-sd", "noise scale for --design-file (default 1.0)", _number, 1.0,
                     "design"),
    "c": _Key("--c", "comma-separated spillover scales (default 0,-0.5; oracle's 0)",
              _c_list, (0.0, -0.5), "design"),
    "reps": _Key("--reps", "repetitions (default 5000)", _integer, 5000),
    "regenerate_graph_each_rep": _Key("--fixed-graph", "reuse one graph across repetitions",
                                      _boolean, True),
    "graph.kind": _Key("--graph", "graph generator, ws or er (default ws, calibrated)",
                       _one_of(*GRAPH_KINDS), "ws", "graph"),
    **{f"graph.{f.name}": _Key(f"--{kind}-{f.name.replace('_', '-')}", _GRAPH_HELP[f.name],
                               _integer if isinstance(f.default, int) else _number,
                               f.default, "graph")
       for kind, model in GRAPH_KINDS.items() for f in fields(model)},
    "n": _Key("--n", "units per graph (default 1000)", _integer, 1000, "graph"),
    "p": _Key("--p", "treatment probability (default 0.5)", _number, 0.5),
    "base_seed": _Key("--seed", "base seed (default 0)", _integer, 0, "graph"),
}


class _Inputs:
    """A command's ``_KEYS``, each read as its flag, else its --config value, else its
    default (``defaults`` replaces the table's for one command). The reader records
    the keys it reads and the mode choices it makes, for ``check``."""

    def __init__(self, args, **defaults):
        self.args, self.defaults, self.read, self.modes = args, defaults, set(), {}
        values = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8-sig") as fh:
                    values = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise IngestionError(f"{args.config}: invalid JSON config: {exc}") from exc
            if not isinstance(values, dict):
                raise IngestionError(f"{args.config}: config must be a JSON object")
            graph = values.pop("graph", {})
            if not isinstance(graph, dict):
                raise IngestionError(f"{args.config}: config key 'graph' must be a JSON object")
            values.update((f"graph.{key}", value) for key, value in graph.items())
        # each given key -> where it was given, its raw value, the error a bad value raises
        self.given = {key: (f"{args.config}: config key {key!r}", value, IngestionError)
                      for key, value in values.items()}
        self.given.update((key, (spec.flag, getattr(args, key), ParameterError))
                          for key, spec in _KEYS.items() if getattr(args, key, None) is not None)

    def __call__(self, key: str):
        self.read.add(key)
        if key not in self.given:
            return self.defaults.get(key, _KEYS[key].default)
        where, raw, error = self.given[key]
        try:
            return _KEYS[key].parse(raw)
        except ParameterError as exc:
            raise ParameterError(f"{where}: {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{where}: {exc}") from None

    def graph(self):
        """The ``GRAPH_KINDS`` model asked for, each field read from its ``graph.`` key."""
        kind = self("graph.kind")
        self.modes["graph"] = f"graph kind {kind!r}"
        model = GRAPH_KINDS[kind]
        return model(**{f.name: self(f"graph.{f.name}") for f in fields(model)})

    def designs(self) -> list[tuple[str, str, Design]]:
        """(design label, c label, design) of each setting: the one ``custom`` setting
        of a design file, or one per built-in design id and spillover constant c."""
        design_file = self("design_file")
        if design_file is not None:
            self.modes["design"] = "a --design-file design"
            return [("custom", "", load_design_csv(design_file, self("noise_sd")))]
        self.modes["design"] = "a built-in design"
        design = self("design")
        if design is None:
            raise ParameterError("a --design id or --design-file is required")
        c_values = self("c")
        return [(design_id, f"{c:g}", BuiltinDesign(design_id=int(design_id), c=c))
                for design_id in (["1", "2", "3"] if design == "all" else [design])
                for c in c_values]

    def check(self) -> None:
        """Raise ParameterError naming each flag or config key given but not read."""
        unread = [f"{where} does not apply to "
                  f"{self.modes.get(getattr(_KEYS.get(key), 'mode', None), self.args.command)}"
                  for key, (where, _, _) in self.given.items() if key not in self.read]
        if unread:
            raise ParameterError("; ".join(unread))


def _write_manifest(command: str, out_path: Path, outputs: list[str],
                    config_payload: Any, started: float, **extra: Any) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": time.monotonic() - started,
        "outputs": outputs,
        "config": config_payload,
        **extra,
    }
    manifest_path = Path(str(out_path) + ".manifest.json")
    with manifest_path.open("w") as fh:
        json.dump(manifest, fh, indent=2)


def _fmt(value: float | None, digits: int = 6) -> str:
    """A report number to ``digits`` decimals, or "undefined" for None or NaN."""
    return "undefined" if value is None or np.isnan(value) else f"{value:.{digits}f}"


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    started = time.monotonic()
    inputs = _Inputs(args)
    graph = inputs.graph()
    common = {key: inputs(key)
              for key in ("n", "reps", "p", "base_seed", "regenerate_graph_each_rep")}
    runs = inputs.designs()
    inputs.check()
    configs = [SimConfig(**common, design=design, graph=graph) for _, _, design in runs]
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
    # the settings of one study share their reps, exclusions and clock
    _write_manifest("simulate", out, [str(out)], [config_to_dict(c) for c in configs], started,
                    stage_seconds=reports[0].timings,
                    exclusion_counts=reports[0].exclusion_counts)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# scatter

def cmd_scatter(args) -> int:
    started = time.monotonic()
    inputs = _Inputs(args)
    graph = inputs.graph()
    n, p, seed = inputs("n"), inputs("p"), inputs("base_seed")
    inputs.check()

    net = graph.generate(n, seed)
    tr = assign_bernoulli(n, p, seed + 1)
    profile = compute_exposure(net, tr)
    diag = empirical_exposure_diagnostics(
        exposure_cells(profile.degree, profile.treated_neighbors, tr.d, np.zeros(n)))

    out = Path(args.out)
    write_scatter_csv(profile, out)
    config = {"n": n, "p": p, "base_seed": seed, "graph": graph_to_dict(graph)}
    _write_manifest("scatter", out, [str(out)], config, started)

    print(f"r2(degree, dbar | degree>0) = {_fmt(diag.r2_dbar)}")
    print(f"r2(degree, dbar_star)      = {_fmt(diag.r2_dbar_star)}")
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
    lines = [
        f"treated probability        {_fmt(report.treated_prob):>12}",
        f"positive-degree share      {_fmt(report.positive_share):>12}",
        f"mean inverse degree (>0)   {_fmt(report.mean_inverse_degree_positive):>12}",
        f"baseline gap               {_fmt(report.baseline_gap):>12}",
        f"direct-effect gap          {_fmt(report.direct_gap):>12}",
        f"mean dbar_star             {_fmt(report.mean_dbar_star):>12}",
        f"var dbar_star              {_fmt(report.var_dbar_star):>12}",
        "",
        "specification       direct     spillover",
        f"t_reg         {_fmt(report.t_direct):>12}  {_fmt(report.t_spillover):>12}",
        f"dbar_reg      {_fmt(report.dbar_direct):>12}  {_fmt(report.dbar_spillover):>12}",
        f"dbar_star_reg {_fmt(report.dbar_star_direct):>12}  {_fmt(report.dbar_star_total):>12}"
        f"  (bias {_fmt(report.dbar_star_bias)}"
        f" + weighted {_fmt(report.dbar_star_weighted)})",
    ]
    return "\n".join(lines)


def cmd_oracle(args) -> int:
    started = time.monotonic()
    inputs = _Inputs(args, design=None, c=(0.0,))
    p = inputs("p")
    runs = inputs.designs()
    if len(runs) != 1:
        raise ParameterError("oracle takes a single --design and a single --c value")
    design = runs[0][2]

    config = {"p": p, "design": asdict(design)}
    if args.histogram is None:
        graph, n, seed = inputs.graph(), inputs("n"), inputs("base_seed")
        config.update(n=n, base_seed=seed, graph=graph_to_dict(graph))
        source = f"realized graph (n={n}, seed={seed})"
    else:
        inputs.modes["graph"] = "a --histogram degree distribution"
        config["histogram"] = args.histogram
        source = f"histogram {args.histogram}"
    inputs.check()
    summary = (summarize(graph.generate(n, seed)) if args.histogram is None
               else _read_histogram_csv(args.histogram))

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
        _write_manifest("oracle", out, [str(out)], config, started)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# audit

class _BinaryCells(dict):
    """The value of cell "0" and cell "1"; looking up any other cell raises ValueError."""

    def __missing__(self, cell: str) -> int:
        raise ValueError(f"non-binary value {cell!r}")


_binary = _BinaryCells({"0": 0, "1": 1}).__getitem__  # a C-level call per cell


def _read_unit_data(path: str, id_col: str, treatment_col: str, outcome_col: str):
    """The row of each unit id, the treatments and the outcomes of the unit table.

    A blank id is an input error, reported before the table's other bad cells.
    """
    try:
        columns, lines, index = read_table(
            path, {id_col: str, treatment_col: _binary, outcome_col: float}, unique=id_col
        )
    except IngestionError as error:
        try:  # two blank ids read as a repeated value, so look for a blank id first
            ids, lines, _ = read_table(path, {id_col: str})
            index = {"": ids[id_col].index("")}
        except (IngestionError, ValueError):
            raise error from None
    if "" in index:
        raise IngestionError(f"{path}:{lines[index['']]}: column {id_col!r}: blank id")
    if not lines:
        raise IngestionError(f"{path}:1: no data rows")
    rows = len(lines)
    return (index, np.fromiter(columns[treatment_col], np.int64, rows),
            np.fromiter(columns[outcome_col], float, rows))


def _unit_rows(index: dict[str, int], ids: list[str]) -> np.ndarray:
    """The unit row of each id, -1 for an unknown id."""
    try:
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))
    except KeyError:  # rescan, marking every unknown id
        return np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))


def _read_edges(path: str, data_path: str, index: dict[str, int],
                lap: Callable[[str], None]) -> np.ndarray:
    """The unit rows of the two ends of each edge row, an (edge rows, 2) array.

    An unknown id or a self-link is an input error naming its file line. The
    reading and the id mapping are timed as the stages "read_edges" and
    "map_ids". The edge ids are freed on return, before the network is
    built, which keeps ~80 MB per 10^6 edge rows off the audit's peak memory.
    """
    edges, lines, _ = read_table(path, {"src": str, "dst": str})
    lap("read_edges")
    pairs = np.column_stack([_unit_rows(index, edges[end]) for end in ("src", "dst")])
    bad = np.flatnonzero((pairs < 0).any(axis=1) | (pairs[:, 0] == pairs[:, 1]))
    if bad.size:
        shown = ", ".join(f"{path}:{lines[k]}: {edges['src'][k]!r}-{edges['dst'][k]!r}"
                          for k in bad[:20].tolist())
        raise IngestionError(f"edges must join two different ids of {data_path}: {shown}")
    lap("map_ids")
    return pairs


def _plug_in_gaps(strat: StratifiedResult, summary: DegreeSummary) -> EffectGaps:
    """``effect_gaps`` of the fitted strata's coefficients, over those strata's degree counts."""
    if 0 not in strat.fits:
        return EffectGaps(*np.full((2, 1, 1), np.nan))
    degrees = np.fromiter(strat.fits, dtype=np.int64)  # ascending, as the strata are fitted
    counts = summary.counts[:, np.searchsorted(summary.degrees, degrees)]
    baseline, direct = np.array([(f.coef(CONST), f.coef(TREATED)) for f in strat.fits.values()]).T
    return effect_gaps(DegreeSummary(degrees, counts), baseline, direct)


def cmd_audit(args) -> int:
    started = time.monotonic()
    roles = {"--id-col": args.id_col, "--treatment-col": args.treatment_col,
             "--outcome-col": args.outcome_col}
    shared = [flag for flag, column in roles.items() if list(roles.values()).count(column) > 1]
    if shared:  # three roles can share at most one column
        raise ParameterError(f"{' and '.join(shared)} name the same column {roles[shared[0]]!r}")
    seconds: dict[str, float] = {}  # the manifest's stage_seconds
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        seconds[stage], clock = time.perf_counter() - clock, time.perf_counter()

    index, d, y = _read_unit_data(args.data, args.id_col, args.treatment_col, args.outcome_col)
    lap("read_units")
    pairs = _read_edges(args.edges, args.data, index, lap)
    net = from_edge_list(pairs, n=len(index))

    p_hat = float(d.mean())
    tr = TreatmentVector(d=d, p=p_hat)
    summary = summarize(net)
    isolated = summary.isolated_fraction.item()
    cells = cell_table(net, tr, y)
    diag = empirical_exposure_diagnostics(cells)

    lines = [
        f"audit of {args.data} with edges {args.edges}",
        f"units: {len(index)}   treated share: {p_hat:.4f}",
        "",
        "degree summary",
        f"  mean degree                {summary.mean_degree.item():.4f}",
        f"  max degree                 {summary.degrees[-1]}",
        f"  isolated share             {isolated:.4f}",
        f"  mean degree (>0)           {_fmt(summary.mean_degree_positive.item(), 4)}",
        f"  mean inverse degree (>0)   {_fmt(summary.mean_inverse_degree_positive.item(), 4)}",
        "",
        "imputed-fraction vs degree covariance",
        f"  empirical                  {diag.cov_dbar_star_degree:.6f}",
        f"  closed form (p = treated share) "
        f"{cov_dbar_star_degree_closed_form(summary, p_hat).item():.6f}",
    ]
    lap("network")

    lines += ["", "regression fits (coefficient [se])"]
    slopes: dict[str, tuple[float, float]] = {}  # spec name -> spillover coefficient, se
    for name, spec in SPECS.items():
        try:
            fit = fit_specification(name, cells)
        except DEGENERATE_FIT_ERRORS:
            lines.append(f"  {name:<14} unavailable")
            continue
        finally:
            lap(f"fit.{name}")
        slope, slope_se = slopes[name] = fit.coef(spec.slope), fit.se[spec.slope]
        lines.append(
            f"  {name:<14} direct {fit.coef(TREATED):9.4f} [{fit.se[TREATED]:.4f}]"
            f"   spillover {slope:9.4f} [{slope_se:.4f}]   n={fit.n_used}"
        )

    strat = stratified_regression(cells)
    gaps = _plug_in_gaps(strat, summary)
    implied_bias = imputation_bias(summary, gaps, p_hat)
    lap("strata")
    lines += [
        "",
        "plug-in stratified gaps (positive-degree strata vs isolated stratum)",
        f"  baseline gap               {_fmt(gaps.baseline.item(), 4)}",
        f"  direct-effect gap          {_fmt(gaps.direct.item(), 4)}",
        f"  implied imputation bias    {_fmt(implied_bias.item(), 4)}",
    ]
    if strat.skipped:
        skipped = ", ".join(f"degree {g}: {reason}" for g, reason in sorted(strat.skipped.items()))
        lines.append(f"  strata skipped: {skipped}")

    warning = False
    if isolated > 0 and {"dbar_reg", "dbar_star_reg"} <= slopes.keys():
        (spill_dbar, se_dbar), (spill_star, se_star) = slopes["dbar_reg"], slopes["dbar_star_reg"]
        combined_se = float(np.hypot(se_dbar, se_star))
        if abs(spill_star - spill_dbar) > 2.0 * combined_se:
            warning = True
            lines += [
                "",
                "WARNING: the zero-imputed spillover estimate differs from the",
                f"subsample estimate by {abs(spill_star - spill_dbar):.4f} "
                f"(> 2 x combined se {combined_se:.4f}) while "
                f"{isolated:.1%} of units are isolated.",
                "The imputed fit is likely contaminated by baseline differences",
                "between isolated and connected units; prefer the subsample fit.",
            ]
    if not warning:
        lines += ["", "no imputation warning raised"]

    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        out = Path(args.out)
        out.write_text(text + "\n")
        config = {key: getattr(args, key)
                  for key in ("edges", "data", "id_col", "treatment_col", "outcome_col")}
        _write_manifest("audit", out, [str(out)], config, started, stage_seconds=seconds,
                        rows_read={"data": len(index), "edges": len(pairs)})
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_inputs(sub: argparse.ArgumentParser, keys, out_required: bool) -> None:
    """Add the flag of each ``_KEYS`` key, storing its raw value under the key's name,
    then --out and --config."""
    for key in keys:
        spec = _KEYS[key]
        kind = ({"action": "store_false"} if spec.parse is _boolean
                else {"metavar": spec.flag[2:].upper().replace("-", "_")})
        sub.add_argument(spec.flag, dest=key, default=None, help=spec.help, **kind)
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
    _add_inputs(sim, _KEYS, out_required=True)
    sim.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    sim.set_defaults(func=cmd_simulate)

    sca = subparsers.add_parser("scatter", help="one realization of degree vs treated fractions")
    _add_inputs(sca, ["n", "p", "base_seed", *(key for key in _KEYS if key.startswith("graph."))],
                out_required=True)
    sca.set_defaults(func=cmd_scatter)

    orc = subparsers.add_parser("oracle", help="theoretical coefficients for a degree distribution")
    _add_inputs(orc, [key for key in _KEYS if key not in ("reps", "regenerate_graph_each_rep")],
                out_required=False)
    orc.add_argument("--histogram", default=None,
                     help="degree,count CSV; bypasses graph generation")
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


def _size_inputs(args) -> str:
    """The inputs that set how much memory a command needs, for its out-of-memory message."""
    if args.command == "audit":
        files = [("--data", args.data), ("--edges", args.edges)]
    elif getattr(args, "histogram", None) is not None:
        files = [("--histogram", args.histogram)]
    else:
        inputs = _Inputs(args)
        sizes = {key: inputs(key) for key in ("n", "reps") if hasattr(args, key)}
        if args.command == "simulate":
            sizes["workers"] = args.workers
        return ", ".join(f"{key}={value}" for key, value in sizes.items())
    return ", ".join(f"{flag} {path} ({os.path.getsize(path):,} bytes)" for flag, path in files)


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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"spillnet: out of memory: {args.command} with {_size_inputs(args)}{detail}",
              file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
