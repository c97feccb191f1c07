"""Write sections of the golden record of spillnet's seeded outputs for its current version.

    PYTHONPATH=src python tests/write_golden.py [--out OUT] SECTION [SECTION ...]

SECTION names one of ``SECTIONS``: ``studies``, ``audit``, ``graphs`` or
``oracle``. OUT defaults to ``tests/golden/<spillnet.__version__>.json``.
Only the named sections are (re)computed; every other section of an existing
OUT is kept byte for byte, so adding a record never rewrites the last bits of
committed floats. A new version's file needs every section named.

- ``studies``: every cell and the exclusions of three six-setting
  ``run_study`` calls: the paper's settings at reps = 50 with a new graph per
  rep and with a fixed graph, and a sparse small-n setting whose reps are
  often excluded.
- ``audit``: the stdout of ``spillnet audit`` on the seeded dataset of
  ``audit_dataset.py`` (2,000 units).
- ``graphs``: edge-key digests of calibrated Watts-Strogatz graphs
  (n = 12 and 1,000) and Erdos-Renyi graphs (n = 1,000 and 100,000), three
  ``derive_seed`` seeds each.
- ``oracle``: the ``spillnet oracle --out`` table of two degree histograms.

``test_golden.py`` compares a fresh run against the file of the running
version, so a change that alters the mapping from seed to output must bump
``__version__`` and write a new file with this script.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
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

# name -> ({degree: count}, oracle flags); one histogram with isolated nodes, one without
HISTOGRAMS = {
    "isolated": ({0: 110, 1: 240, 2: 310, 3: 190, 5: 95, 9: 55},
                 ["--design", "1", "--c", "-0.5", "--p", "0.5"]),
    "connected": ({1: 40, 2: 61, 4: 33, 7: 5, 30: 1},
                  ["--design", "2", "--c", "-0.5", "--p", "0.3"]),
}


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


def audit_stdout(units: int = 2000, seed: int = 11) -> str:
    """``spillnet audit`` stdout on the seeded dataset, its files named without their folder."""
    with tempfile.TemporaryDirectory() as tmp:
        edges, data = Path(tmp, "edges.csv"), Path(tmp, "units.csv")
        write_audit_dataset(units, seed, edges, data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(["audit", "--edges", str(edges), "--data", str(data)])
        assert rc == 0, rc
    return out.getvalue().replace(str(edges), edges.name).replace(str(data), data.name)


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


def oracle_tables() -> dict:
    """Each ``HISTOGRAMS`` entry's ``oracle --out`` table: quantity -> float, None if blank."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (histogram, flags) in HISTOGRAMS.items():
            hist, table = Path(tmp, f"{name}.csv"), Path(tmp, f"{name}.oracle.csv")
            hist.write_text("degree,count\n"
                            + "".join(f"{g},{c}\n" for g, c in histogram.items()))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(["oracle", "--histogram", str(hist), *flags, "--out", str(table)])
            assert rc == 0, rc
            with table.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["quantity", "value"], rows[0]
            out[name] = {quantity: float(value) if value else None for quantity, value in rows[1:]}
    return out


SECTIONS = {"studies": studies, "audit": audit_stdout, "graphs": graphs, "oracle": oracle_tables}


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
