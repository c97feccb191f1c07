"""Write sections of the golden record of spillnet's seeded outputs for its current version.

    PYTHONPATH=src python tests/write_golden.py [--out OUT] SECTION [SECTION ...]

SECTION names one of ``SECTIONS``: ``studies``, ``graphs`` or ``cli``. OUT
defaults to ``tests/golden/<spillnet.__version__>.json``. Only the named
sections are (re)computed; every other section of an existing OUT is kept
byte for byte, so adding a record never rewrites the last bits of committed
floats, and a key that names no section is dropped. A new version's file
needs every section named.

- ``studies``: every cell and the exclusions of three six-setting
  ``run_study`` calls: the paper's settings at reps = 50 with a new graph per
  rep and with a fixed graph, and a sparse small-n setting whose reps are
  often excluded.
- ``graphs``: edge-key digests of calibrated Watts-Strogatz graphs
  (n = 12 and 1,000) and Erdos-Renyi graphs (n = 1,000 and 100,000), three
  ``derive_seed`` seeds each.
- ``cli``: what each of ``commands()`` prints and writes, run in this process
  in its own new folder, with inputs and outputs named by relative paths:
  its arguments, exit code, stdout and stderr, each file it wrote (a CSV as
  rows, a cell that parses as a float as that float) and its manifest
  without the keys that differ between runs.

``test_golden.py`` compares a fresh run against the file of the running
version. A change that alters the mapping from seed to output must bump
``__version__`` and write a new file with this script; a change that alters
a command's output on purpose rewrites ``cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import spillnet
from audit_dataset import write_audit_dataset
from spillnet.cli import main as cli_main
from spillnet.dgp import BuiltinDesign
from spillnet.graph import Network
from spillnet.montecarlo import (
    ErdosRenyiGraph, SimConfig, WattsStrogatzGraph, derive_seed, run_study,
)

# the benchmark's own audit inputs
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads

GOLDEN_DIR = Path(__file__).parent / "golden"

STUDIES = {
    "new_graph": SimConfig(n=1000, reps=50, base_seed=20240601),
    "fixed_graph": SimConfig(n=1000, reps=50, base_seed=20240601,
                             regenerate_graph_each_rep=False),
    "sparse": SimConfig(n=12, reps=50, graph=ErdosRenyiGraph(0.5), base_seed=5),
}

# name -> (graph model, n); each is drawn at derive_seed(GRAPH_BASE_SEED, rep, "graph")
GRAPHS = {
    "ws_12": (WattsStrogatzGraph(), 12),
    "ws_1000": (WattsStrogatzGraph(), 1000),
    "er_1000": (ErdosRenyiGraph(), 1000),
    "er_100000": (ErdosRenyiGraph(), 100_000),
}
GRAPH_BASE_SEED = 20240601
GRAPH_REPS = 3


def golden_path(version: str = spillnet.__version__) -> Path:
    return GOLDEN_DIR / f"{version}.json"


def studies() -> dict:
    """Every cell and the exclusions of the ``STUDIES``, as JSON-ready values."""
    out = {}
    designs = [BuiltinDesign(d, c) for d in (1, 2, 3) for c in (0.0, -0.5)]
    for name, config in STUDIES.items():
        out[name] = [
            {
                "design_id": report.design.design_id,
                "c": report.design.c,
                "reps_completed": report.reps_completed,
                "exclusions": [list(e) for e in report.exclusions],
                "cells": [dataclasses.asdict(cell) for cell in report.cells],
            }
            for report in run_study(config, designs)
        ]
    return json.loads(json.dumps(out))


def edge_key_digest(net: Network) -> str:
    """BLAKE2b of the packed edge keys ``u * n + v`` as little-endian int64, in edge order."""
    keys = (net.u * net.n + net.v).astype("<i8")
    return hashlib.blake2b(keys.tobytes(), digest_size=16).hexdigest()


def graphs() -> dict:
    """Seed, edge count and edge-key digest of each ``GRAPHS`` model's first reps."""
    out = {}
    for name, (model, n) in GRAPHS.items():
        out[name] = []
        for rep in range(GRAPH_REPS):
            seed = derive_seed(GRAPH_BASE_SEED, rep, "graph")
            net = model.generate(n, seed)
            out[name].append({"seed": seed, "edges": int(net.u.size),
                              "digest": edge_key_digest(net)})
    return out


# manifest keys that differ between runs of one command
UNSTABLE = ("timestamp_utc", "duration_seconds", "stage_seconds")


def commands() -> dict[str, list[str]]:
    """Each command's name and arguments; input paths are relative to a command's folder."""
    runs = {}
    for seed in (1, 3):
        # the benchmark's study and fixed_er workloads, as in perfbench/workloads.py
        runs[f"study-{seed}"] = [
            "simulate", "--design", "all", "--c", "0,-0.5", "--n", "1000", "--reps", "20",
            "--p", "0.5", "--seed", str(seed), "--workers", "1", "--out", "results.csv"]
        runs[f"fixed_er-{seed}"] = [
            "simulate", "--design", "1", "--c", "-0.5", "--n", "4000", "--reps", "20",
            "--p", "0.5", "--seed", str(seed), "--workers", "1", "--graph", "er",
            "--er-mean-degree", "2", "--fixed-graph", "--out", "results.csv"]
    # rank-deficient reps are excluded by the names of their collinear columns
    runs["simulate-sparse"] = [
        "simulate", "--n", "12", "--graph", "er", "--er-mean-degree", "0.5", "--reps", "50",
        "--seed", "5", "--out", "results.csv"]
    # a fixed graph over three blocks of reps
    runs["simulate-fixed-blocks"] = [
        "simulate", "--design", "all", "--n", "20000", "--reps", "8", "--seed", "4", "--graph",
        "er", "--er-mean-degree", "2", "--fixed-graph", "--out", "results.csv"]
    runs["simulate-design-file"] = [
        "simulate", "--design-file", "../inputs/design.csv", "--noise-sd", "0.5", "--n", "500",
        "--reps", "30", "--seed", "2", "--out", "results.csv"]
    # audit_dataset.py's edge cases at 20,000 units (seeds 1, 3, 7) and 2,000 (seed 11),
    # and the benchmark's own audit inputs
    for dataset in ("1", "3", "7", "golden", "bench-1", "bench-3", "bench-7"):
        runs[f"audit-{dataset}"] = ["audit", "--edges", f"../inputs/edges-{dataset}.csv",
                                    "--data", f"../inputs/units-{dataset}.csv"]
    runs["audit-golden-out"] = [*runs["audit-golden"], "--out", "report.txt"]
    runs["scatter"] = ["scatter", "--n", "200", "--p", "0.4", "--seed", "7",
                       "--out", "scatter.csv"]
    oracles = {
        "graph": ["--design", "1", "--c=-0.5", "--n", "4000", "--seed", "11"],
        "histogram": ["--design", "2", "--c=-0.5", "--p", "0.3",
                      "--histogram", "../inputs/histogram.csv"],
        "design-file": ["--design-file", "../inputs/design.csv", "--noise-sd", "0.5",
                        "--n", "500", "--seed", "2"],
    }
    for source, argv in oracles.items():
        runs[f"oracle-{source}"] = ["oracle", *argv]
        runs[f"oracle-{source}-out"] = ["oracle", *argv, "--out", "oracle.csv"]
    # a histogram with isolated nodes and one without
    runs["oracle-isolated-out"] = [
        "oracle", "--histogram", "../inputs/histogram.csv", "--design", "1", "--c", "-0.5",
        "--p", "0.5", "--out", "oracle.csv"]
    runs["oracle-connected-out"] = [
        "oracle", "--histogram", "../inputs/histogram-connected.csv", "--design", "2", "--c",
        "-0.5", "--p", "0.3", "--out", "oracle.csv"]
    # one failure per documented exit code: 2 usage, 3 input, 4 numerical, 5 io
    runs["usage-error"] = ["simulate", "--reps", "0", "--out", "results.csv"]
    runs["input-error"] = ["audit", "--edges", "../inputs/edges-blank.csv",
                           "--data", "../inputs/units-blank.csv"]
    runs["numerical-error"] = ["simulate", "--n", "10", "--reps", "3", "--graph", "er",
                               "--er-mean-degree", "0.01", "--out", "results.csv"]
    runs["io-error"] = ["simulate", "--n", "10", "--reps", "3", "--out", "missing/results.csv"]
    return runs


def write_inputs(folder: Path) -> None:
    """Write the input files that ``commands`` name into ``folder``."""
    folder.mkdir()
    for seed in (1, 3, 7):
        write_audit_dataset(20_000, seed, folder / f"edges-{seed}.csv",
                            folder / f"units-{seed}.csv")
        workloads.write_audit_dataset(20_000, seed, folder / f"edges-bench-{seed}.csv",
                                      folder / f"units-bench-{seed}.csv")
    write_audit_dataset(2000, 11, folder / "edges-golden.csv", folder / "units-golden.csv")
    (folder / "histogram.csv").write_text(
        "degree,count\n0,110\n1,240\n2,310\n3,190\n5,95\n9,55\n")
    (folder / "histogram-connected.csv").write_text("degree,count\n1,40\n2,61\n4,33\n7,5\n30,1\n")
    (folder / "design.csv").write_text("degree,theta00,mu_de,lambda_se\n" + "".join(
        f"{g},{1.0 + 0.1 * g!r},1.0,{-0.5 / (1 + g)!r}\n" for g in range(60)))
    (folder / "units-blank.csv").write_text("id,treatment,outcome\na,1,1.0\n,0,2.0\n")
    (folder / "edges-blank.csv").write_text("src,dst\na,b\n")


def _cell(text: str) -> float | str:
    """A CSV cell as a float if it parses as one, else as its text."""
    try:
        return float(text)
    except ValueError:
        return text


def run_command(argv: list[str], folder: Path) -> dict:
    """Run one command in the new folder ``folder`` and return its record."""
    folder.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli_main(argv)
    finally:
        os.chdir(cwd)
    record = {"argv": argv, "rc": rc, "stdout": stdout.getvalue(),
              "stderr": stderr.getvalue(), "files": {}}
    for path in sorted(folder.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            record["manifest"] = {k: v for k, v in manifest.items() if k not in UNSTABLE}
        elif path.suffix == ".csv":
            with path.open(newline="", encoding="utf-8") as fh:
                record["files"][path.name] = [list(map(_cell, row)) for row in csv.reader(fh)]
        else:
            record["files"][path.name] = path.read_text(encoding="utf-8")
    return record


def cli() -> dict:
    """Each of ``commands()``'s records, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp, "inputs"))
        return {name: run_command(argv, Path(tmp, name)) for name, argv in commands().items()}


SECTIONS = {"studies": studies, "graphs": graphs, "cli": cli}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="+", choices=sorted(SECTIONS), metavar="SECTION",
                        help=f"section to (re)write: {', '.join(SECTIONS)}")
    parser.add_argument("--out", type=Path, default=golden_path())
    args = parser.parse_args(argv)

    payload = {"version": spillnet.__version__}
    if args.out.exists():
        payload = json.loads(args.out.read_text())
        if payload["version"] != spillnet.__version__:
            parser.error(f"{args.out} records version {payload['version']}, "
                         f"not {spillnet.__version__}")
    missing = [name for name in SECTIONS if name not in payload and name not in args.sections]
    if missing:
        parser.error(f"{args.out} has no sections {missing}; name them too")
    payload = {key: value for key, value in payload.items() if key in ("version", *SECTIONS)}
    for name in args.sections:
        payload[name] = SECTIONS[name]()
    # json round-trips every float exactly and keeps key order, so the
    # sections not named come out byte for byte as they were read
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {', '.join(args.sections)} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
