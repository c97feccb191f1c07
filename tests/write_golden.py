"""Write the golden record of spillnet's seeded outputs for its current version.

    PYTHONPATH=src python tests/write_golden.py [OUT]

OUT defaults to ``tests/golden/<spillnet.__version__>.json``. The record holds
every cell and the exclusions of three six-setting ``run_study`` calls: the
paper's settings at reps = 50 with a new graph per rep and with a fixed
graph, and a sparse small-n setting whose reps are often excluded. It also
holds the stdout of ``spillnet audit`` on the seeded dataset of
``audit_dataset.py`` (2,000 units).
``test_golden.py`` compares a fresh run against the file of the running
version, so a change that alters the mapping from seed to output must bump
``__version__`` and write a new file with this script.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import spillnet
from audit_dataset import write_audit_dataset
from spillnet.cli import main as cli_main
from spillnet.dgp import BuiltinDesign
from spillnet.montecarlo import ErdosRenyiGraph, SimConfig, run_study

GOLDEN_DIR = Path(__file__).parent / "golden"

STUDIES = {
    "new_graph": SimConfig(n=1000, reps=50, base_seed=20240601),
    "fixed_graph": SimConfig(n=1000, reps=50, base_seed=20240601,
                             regenerate_graph_each_rep=False),
    "sparse": SimConfig(n=12, reps=50, graph=ErdosRenyiGraph(0.5), base_seed=5),
}


def golden_path(version: str = spillnet.__version__) -> Path:
    return GOLDEN_DIR / f"{version}.json"


def record() -> dict:
    """The seeded outputs, as JSON-ready values (tuples become lists)."""
    out = {}
    for name, base in STUDIES.items():
        configs = [dataclasses.replace(base, design=BuiltinDesign(d, c))
                   for d in (1, 2, 3) for c in (0.0, -0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sparse study warns about its exclusions
            reports = run_study(configs)
        out[name] = [
            {
                "design_id": config.design.design_id,
                "c": config.design.c,
                "reps_completed": report.reps_completed,
                "exclusions": [list(e) for e in report.exclusions],
                "cells": [dataclasses.asdict(cell) for cell in report.cells],
            }
            for config, report in zip(configs, reports)
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


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else golden_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"version": spillnet.__version__, "studies": record(), "audit": audit_stdout()}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
