"""Command-line front end: simulate, scatter, oracle, audit.

Exit codes: 0 success, 2 usage/parameter problems, 3 input-data problems
(a --config value of the wrong type among them), 4 numerical singularity,
5 I/O failures, 6 out of memory (a pool worker that ends abruptly among
them). One key table, ``_KEYS``, declares every flag of every command but
--out and --config, each a --config key with its parser and default; a
command reads each key as its flag, else its config value, else its
default. A flag or config key that the command does not read in its mode
is a usage error naming it. Each command is a pure function of its inputs
that returns its report; ``main`` alone prints it and opens and writes
every file: given --out, the output file (the CSV rows, or audit's report
text) and a ``<out>.manifest.json`` listing outputs and the keys read, in
the --config form that reruns the run (for simulate, one such config per
setting). Both are UTF-8, and a file name that the locale cannot encode is
written back as given, as stdout prints it.
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
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .dgp import BuiltinDesign, Design, DesignSpec, EffectGaps, effect_gaps, load_design_csv
from .errors import (
    ConfigurationError,
    EmptySubsampleError,
    IngestionError,
    ParameterError,
    SingularModelError,
)
from .estimators import (
    SPECS,
    TREATED,
    empirical_exposure_diagnostics,
    exposure_cells,
    fit_cells,
    stratified_regression,
)
from .exposure import (
    assign_bernoulli,
    compute_exposure,
    cov_dbar_star_degree_closed_form,
    scatter_rows,
)
from .graph import DegreeSummary, from_edge_list, nonnegative_int, read_table
from .montecarlo import (
    GRAPH_KINDS,
    SimConfig,
    design_labels,
    results_rows,
    run_study,
    stage_timer,
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


def _design(value) -> str | Design:
    """A design id or "all"; or a resolved design, as a manifest records it: a built-in
    design's ``design_id`` and ``c``, or a design file's three tables and ``noise_sd``.
    JSON turns the tables' degree keys into strings; they become ints again."""
    if not isinstance(value, dict):
        return _one_of("1", "2", "3", "all")(value)
    kind = BuiltinDesign if "design_id" in value else DesignSpec
    numbers = {"design_id": _integer, "c": _number, "noise_sd": _number}
    tables = {f.name for f in fields(kind)} - numbers.keys()
    return kind(**{name: numbers[name](field) if name in numbers
                   else {nonnegative_int(g): _number(x) for g, x in dict(field).items()}
                   if name in tables else field  # an unknown name, which ``kind`` rejects
                   for name, field in value.items()})


def _file(value) -> str:
    """A file name as given; ValueError if the file system cannot encode it, as a lone
    surrogate that stands for no undecodable byte, which JSON can hold."""
    return os.fsdecode(os.fsencode(value))


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
    "design": _Key("--design", "1, 2, 3 or all (simulate's default: all)", _design, "all",
                   "design"),
    "design_file": _Key("--design-file", "CSV degree,theta00,mu_de,lambda_se", _file, None,
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
    "workers": _Key("--workers", "parallel worker processes (default 1)", _integer, 1),
    "histogram": _Key("--histogram", "degree,count CSV in place of a graph", _file, None),
    "edges": _Key("--edges", "edge CSV src,dst referencing unit ids", _file, None),
    "data": _Key("--data", "unit CSV with id, treatment, outcome", _file, None),
    "id_col": _Key("--id-col", "unit id column (default id)", os.fspath, "id"),
    "treatment_col": _Key("--treatment-col", "(default treatment)", os.fspath, "treatment"),
    "outcome_col": _Key("--outcome-col", "(default outcome)", os.fspath, "outcome"),
}
_AUDIT_KEYS = ("edges", "data", "id_col", "treatment_col", "outcome_col")


class _Inputs:
    """A command's ``_KEYS``, each read as its flag, else its --config value, else its
    default (``defaults`` replaces the table's for one command). The one reader and writer
    of a run's config: ``read`` records the parsed value of each key read, and ``modes``
    the mode choices, for ``check``, ``config`` and the out-of-memory message."""

    def __init__(self, args):
        self.args, self.defaults, self.read, self.modes = args, {}, {}, {}

    def load(self) -> None:
        """Read the --config file, then the flags over it, into ``given``."""
        args, values = self.args, {}
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
        self.read[key] = self.defaults.get(key, _KEYS[key].default)
        if key in self.given:
            where, raw, error = self.given[key]
            try:
                self.read[key] = _KEYS[key].parse(raw)
            except ParameterError as exc:
                raise ParameterError(f"{where}: {exc}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise error(f"{where}: {exc}") from None
        return self.read[key]

    def graph(self):
        """The ``GRAPH_KINDS`` model asked for, each field read from its ``graph.`` key."""
        kind = self("graph.kind")
        self.modes["graph"] = f"graph kind {kind!r}"
        model = GRAPH_KINDS[kind]
        return model(**{f.name: self(f"graph.{f.name}") for f in fields(model)})

    def designs(self) -> list[Design]:
        """The design of each setting: a manifest's resolved ``design``, the one setting
        of a design file, or one per built-in design id and spillover constant c."""
        if isinstance(self.given.get("design", (None, None, None))[1], dict):
            self.modes["design"] = "a resolved design"  # only a config gives one
            return [self("design")]
        design_file = self("design_file")
        if design_file is not None:
            self.modes["design"] = "a --design-file design"
            return [load_design_csv(design_file, self("noise_sd"))]
        self.modes["design"] = "a built-in design"
        design = self("design")
        if design is None:
            raise ParameterError("a --design id or --design-file is required")
        c_values = self("c")
        return [BuiltinDesign(design_id=int(design_id), c=c)
                for design_id in (["1", "2", "3"] if design == "all" else [design])
                for c in c_values]

    def check(self) -> None:
        """Raise ParameterError naming each flag or config key given but not read."""
        unread = [f"{where} does not apply to "
                  f"{self.modes.get(getattr(_KEYS.get(key), 'mode', None), self.args.command)}"
                  for key, (where, _, _) in self.given.items() if key not in self.read]
        if unread:
            raise ParameterError("; ".join(unread))

    def config(self, design: Design | None = None) -> dict[str, Any]:
        """The manifest's config: each key read and set, in the --config form ``load``
        reads back, the ``graph.`` keys under "graph" and ``design`` resolved in place of
        the design keys; ``workers`` is left out, since it changes no output."""
        config: dict[str, Any] = {} if design is None else {"design": asdict(design)}
        for key, value in self.read.items():
            if value is not None and key != "workers" and _KEYS[key].mode != "design":
                group, _, name = key.rpartition(".")  # "graph.k" is "k" of "graph"
                (config.setdefault(group, {}) if group else config)[name] = value
        return config


class _Run(NamedTuple):
    """What a command returns: its stdout text; the rows of its --out CSV file, header
    first, or None when that file is the text (audit); and its manifest's config and
    extra keys."""

    text: str
    rows: Iterable[Sequence[Any]] | None
    config: Any
    extra: dict[str, Any] = {}


def _create(path: Path):
    """Open ``path`` to write UTF-8 text; an undecodable byte of a file name, which Python
    reads as a lone surrogate, is written back as that byte."""
    return path.open("w", encoding="utf-8", errors="surrogateescape", newline="")


def _write_manifest(command: str, out_path: Path, config_payload: Any, started: float,
                    **extra: Any) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": time.monotonic() - started,
        "outputs": [str(out_path)],
        "config": config_payload,
        **extra,
    }
    manifest_path = Path(str(out_path) + ".manifest.json")
    with _create(manifest_path) as fh:
        json.dump(manifest, fh, indent=2)


def _fmt(value: float | None, digits: int = 6) -> str:
    """A report number to ``digits`` decimals, or "undefined" for None or NaN."""
    return "undefined" if value is None or np.isnan(value) else f"{value:.{digits}f}"


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(inputs: _Inputs) -> _Run:
    graph = inputs.graph()
    common = {key: inputs(key)
              for key in ("n", "reps", "p", "base_seed", "regenerate_graph_each_rep")}
    designs, workers = inputs.designs(), inputs("workers")
    inputs.check()
    reports = run_study(SimConfig(**common, graph=graph), designs, workers=workers)
    text = "\n".join(f"design {label} c={c_label or '-'}: "
                     f"{report.reps_completed}/{report.config.reps} reps, "
                     f"{report.n_excluded} excluded"
                     for (label, c_label), report in zip(map(design_labels, designs), reports))
    # the designs of one study share their reps, exclusions and clock
    return _Run(text, results_rows(reports), list(map(inputs.config, designs)),
                {"stage_seconds": reports[0].timings,
                 "exclusion_counts": reports[0].exclusion_counts})


# ---------------------------------------------------------------------------
# scatter

def cmd_scatter(inputs: _Inputs) -> _Run:
    graph = inputs.graph()
    n, p, seed = inputs("n"), inputs("p"), inputs("base_seed")
    inputs.check()

    net = graph.generate(n, seed)
    d = assign_bernoulli(n, p, seed + 1)
    t = compute_exposure(net, d)
    diag = empirical_exposure_diagnostics(exposure_cells(net.degree, t, d, np.zeros(n)))
    text = (f"r2(degree, dbar | degree>0) = {_fmt(diag.r2_dbar)}\n"
            f"r2(degree, dbar_star)      = {_fmt(diag.r2_dbar_star)}\n"
            f"isolated share             = {np.mean(net.degree == 0):.4f}")
    return _Run(text, scatter_rows(net.degree, t), inputs.config())


# ---------------------------------------------------------------------------
# oracle

def _positive_int(cell: str) -> int:
    value = nonnegative_int(cell)
    if value == 0:
        raise ValueError("0 is not positive")
    return value


def _read_histogram_csv(path: str) -> DegreeSummary:
    columns, lines, _ = read_table(
        path, {"degree": nonnegative_int, "count": _positive_int}, unique="degree"
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


def cmd_oracle(inputs: _Inputs) -> _Run:
    inputs.defaults.update(design=None, c=(0.0,))
    p, histogram = inputs("p"), inputs("histogram")
    design, *others = inputs.designs()
    if others:
        raise ParameterError("oracle takes a single --design and a single --c value")

    if histogram is None:
        graph, n, seed = inputs.graph(), inputs("n"), inputs("base_seed")
        source = f"realized graph (n={n}, seed={seed})"
    else:
        inputs.modes["graph"] = "a --histogram degree distribution"
        source = f"histogram {histogram}"
    inputs.check()
    summary = (DegreeSummary.of(graph.generate(n, seed).degree) if histogram is None
               else _read_histogram_csv(histogram))

    report = oracle_report(design, summary, p)
    rows = [("quantity", "value"),
            *((name, "" if value is None else value) for name, value in asdict(report).items())]
    return _Run(f"oracle from {source}\n{_format_oracle_text(report)}", rows,
                inputs.config(design))


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


def _plug_in_gaps(fits: dict[int, tuple[np.ndarray, np.ndarray]],
                  summary: DegreeSummary) -> EffectGaps:
    """``effect_gaps`` of the fitted strata's coefficients, over those strata's degree counts."""
    if 0 not in fits:
        return EffectGaps(*np.full((2, 1, 1), np.nan))
    degrees = np.fromiter(fits, dtype=np.int64)  # ascending, as the strata are fitted
    counts = summary.counts[:, np.searchsorted(summary.degrees, degrees)]
    # each stratum's columns start with (const, treated)
    baseline, direct = np.array([beta[:2] for beta, _ in fits.values()]).T
    return effect_gaps(DegreeSummary(degrees, counts), baseline, direct)


def cmd_audit(inputs: _Inputs) -> _Run:
    edges, data, *columns = map(inputs, _AUDIT_KEYS)
    missing = [_KEYS[key].flag for key in ("edges", "data") if inputs.read[key] is None]
    if missing:
        raise ParameterError("; ".join(f"{flag} is required" for flag in missing))
    inputs.check()
    roles = dict(zip((_KEYS[key].flag for key in _AUDIT_KEYS[2:]), columns))
    shared = [flag for flag, column in roles.items() if columns.count(column) > 1]
    if shared:  # three roles can share at most one column
        raise ParameterError(f"{' and '.join(shared)} name the same column {roles[shared[0]]!r}")
    seconds: dict[str, float] = {}  # the manifest's stage_seconds
    lap = stage_timer(seconds)
    index, d, y = _read_unit_data(data, *columns)
    lap("read_units")
    pairs = _read_edges(edges, data, index, lap)
    net = from_edge_list(pairs, n=len(index))

    p_hat = float(d.mean())
    summary = DegreeSummary.of(net.degree)
    isolated = summary.isolated_fraction.item()
    cells = exposure_cells(net.degree, compute_exposure(net, d), d, y)
    diag = empirical_exposure_diagnostics(cells)

    lines = [
        f"audit of {data} with edges {edges}",
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
        beta, se, units, (error,) = fit_cells(name, cells)
        lap(f"fit.{name}")
        if error is not None:
            lines.append(f"  {name:<14} unavailable")
            continue
        beta, se = beta[0, :, 0].tolist(), se[0, :, 0].tolist()
        direct, slope = spec.columns.index(TREATED), spec.columns.index(spec.slope)
        slopes[name] = beta[slope], se[slope]
        lines.append(
            f"  {name:<14} direct {beta[direct]:9.4f} [{se[direct]:.4f}]"
            f"   spillover {beta[slope]:9.4f} [{se[slope]:.4f}]   n={units[0]}"
        )

    fits, skipped = stratified_regression(cells)
    gaps = _plug_in_gaps(fits, summary)
    implied_bias = imputation_bias(summary, gaps, p_hat)
    lap("strata")
    lines += [
        "",
        "plug-in stratified gaps (positive-degree strata vs isolated stratum)",
        f"  baseline gap               {_fmt(gaps.baseline.item(), 4)}",
        f"  direct-effect gap          {_fmt(gaps.direct.item(), 4)}",
        f"  implied imputation bias    {_fmt(implied_bias.item(), 4)}",
    ]
    if skipped:
        reasons = ", ".join(f"degree {g}: {reason}" for g, reason in skipped.items())
        lines.append(f"  strata skipped: {reasons}")

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
    return _Run(text, None, inputs.config(),
                {"stage_seconds": seconds, "rows_read": {"data": len(index), "edges": len(pairs)}})


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
    sub.add_argument("--out", required=out_required, default=None, help="output file path")
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
    _add_inputs(sim, [key for key in _KEYS if key not in ("histogram", *_AUDIT_KEYS)],
                out_required=True)
    sim.set_defaults(func=cmd_simulate)

    sca = subparsers.add_parser("scatter", help="one realization of degree vs treated fractions")
    _add_inputs(sca, ["n", "p", "base_seed", *(key for key in _KEYS if key.startswith("graph."))],
                out_required=True)
    sca.set_defaults(func=cmd_scatter)

    orc = subparsers.add_parser("oracle", help="theoretical coefficients for a degree distribution")
    _add_inputs(orc, [key for key in _KEYS if key not in
                      ("reps", "regenerate_graph_each_rep", "workers", *_AUDIT_KEYS)],
                out_required=False)
    orc.set_defaults(func=cmd_oracle)

    aud = subparsers.add_parser("audit", help="isolated-node diagnostics for real data")
    _add_inputs(aud, _AUDIT_KEYS, out_required=False)
    aud.set_defaults(func=cmd_audit)

    return parser


def _size_inputs(inputs: _Inputs) -> str:
    """The inputs read that set how much memory a command needs, for its out-of-memory
    message: each input file given, by its flag and with its size, and each number; before
    any key is read, the --config file being loaded."""
    read = inputs.read or {"config": inputs.args.config}
    return ", ".join(f"--{key} {value} ({os.path.getsize(value):,} bytes)"
                     if isinstance(value, str) else f"{key}={value}"
                     for key in ("config", "data", "edges", "histogram", "n", "reps", "workers")
                     if (value := read.get(key)) is not None)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    inputs = _Inputs(args)
    try:
        inputs.load()
        run = args.func(inputs)
        print(run.text)
        if args.out is not None:
            out = Path(args.out)
            with _create(out) as fh:
                if run.rows is None:
                    fh.write(run.text + "\n")
                else:
                    csv.writer(fh).writerows(run.rows)
            _write_manifest(args.command, out, run.config, started, **run.extra)
            print(f"wrote {out}")
        return 0
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
        print(f"spillnet: out of memory: {args.command} with {_size_inputs(inputs)}{detail}",
              file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
