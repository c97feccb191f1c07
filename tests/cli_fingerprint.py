"""Fingerprint what a fixed list of ``spillnet`` commands print and write.

    python tests/cli_fingerprint.py > fingerprint.jsonl

Each command runs in a fresh process that imports spillnet from ``src/`` of
this checkout, in its own folder of one temporary directory, and names its
inputs and outputs by relative paths, so that what it prints does not depend
on where the directory is. Prints one JSON line per command, keys sorted:

- ``name``, ``argv`` and the exit code ``rc``;
- the SHA-256 of its ``stdout`` and ``stderr``;
- ``files``: the SHA-256 of every file it wrote but its manifest;
- ``manifest``: its ``<out>.manifest.json``, if any, without the keys that
  differ between runs (``timestamp_utc``, ``duration_seconds`` and
  ``stage_seconds``).

Run it on two checkouts and ``diff`` the outputs: an empty diff means that
the commands printed and wrote the same bytes, and that their manifests hold
the same values (key order aside). The commands:

- ``simulate`` with the benchmark's ``study`` and ``fixed_er`` arguments
  (as in ``perfbench/workloads.py``) at seeds 1 and 3;
- ``simulate`` on sparse graphs of 12 units, whose rank-deficient reps are
  excluded by the names of their collinear columns;
- ``simulate`` with a fixed graph over three blocks of reps;
- ``simulate`` with a design file (a ``custom`` results row);
- ``audit`` on the ``audit_dataset.py`` datasets of 20,000 units at seeds 1,
  3 and 7, and on the golden record's dataset (2,000 units, seed 11), the
  last also with ``--out``;
- ``scatter --out``;
- ``oracle`` from a graph, from a degree histogram and with a design file,
  each with and without ``--out``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from audit_dataset import write_audit_dataset

ROOT = Path(__file__).resolve().parent.parent
UNSTABLE = ("timestamp_utc", "duration_seconds", "stage_seconds")


def commands() -> dict[str, list[str]]:
    """Each command's name and arguments; input paths are relative to a command's folder."""
    runs = {}
    for seed in (1, 3):
        runs[f"study-{seed}"] = [
            "simulate", "--design", "all", "--c", "0,-0.5", "--n", "1000", "--reps", "20",
            "--p", "0.5", "--seed", str(seed), "--workers", "1", "--out", "results.csv"]
        runs[f"fixed_er-{seed}"] = [
            "simulate", "--design", "1", "--c", "-0.5", "--n", "4000", "--reps", "20",
            "--p", "0.5", "--seed", str(seed), "--workers", "1", "--graph", "er",
            "--er-mean-degree", "2", "--fixed-graph", "--out", "results.csv"]
    runs["simulate-sparse"] = [
        "simulate", "--n", "12", "--graph", "er", "--er-mean-degree", "0.5", "--reps", "50",
        "--seed", "5", "--out", "results.csv"]
    runs["simulate-fixed-blocks"] = [
        "simulate", "--design", "all", "--n", "20000", "--reps", "8", "--seed", "4", "--graph",
        "er", "--er-mean-degree", "2", "--fixed-graph", "--out", "results.csv"]
    runs["simulate-design-file"] = [
        "simulate", "--design-file", "../inputs/design.csv", "--noise-sd", "0.5", "--n", "500",
        "--reps", "30", "--seed", "2", "--out", "results.csv"]
    for dataset in ("1", "3", "7", "golden"):
        runs[f"audit-{dataset}"] = ["audit", "--edges", f"../inputs/edges-{dataset}.csv",
                                    "--data", f"../inputs/units-{dataset}.csv"]
    runs["audit-golden-out"] = [*runs["audit-golden"], "--out", "report.txt"]
    runs["scatter"] = ["scatter", "--n", "1000", "--p", "0.4", "--seed", "7",
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
    return runs


def write_inputs(folder: Path) -> None:
    """Write the input files that ``commands`` name into ``folder``."""
    folder.mkdir()
    for seed in (1, 3, 7):
        write_audit_dataset(20_000, seed, folder / f"edges-{seed}.csv",
                            folder / f"units-{seed}.csv")
    write_audit_dataset(2000, 11, folder / "edges-golden.csv", folder / "units-golden.csv")
    (folder / "histogram.csv").write_text(
        "degree,count\n0,110\n1,240\n2,310\n3,190\n5,95\n9,55\n")
    (folder / "design.csv").write_text("degree,theta00,mu_de,lambda_se\n" + "".join(
        f"{g},{1.0 + 0.1 * g!r},1.0,{-0.5 / (1 + g)!r}\n" for g in range(60)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(name: str, argv: list[str], folder: Path) -> dict:
    """Run one command in the new folder ``folder`` and return its JSON record."""
    folder.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "spillnet.cli", *argv], cwd=folder, env=env,
                          capture_output=True, timeout=600)
    record = {"name": name, "argv": argv, "rc": done.returncode, "stdout": sha256(done.stdout),
              "stderr": sha256(done.stderr), "files": {}}
    for path in sorted(folder.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            record["manifest"] = {k: v for k, v in manifest.items() if k not in UNSTABLE}
        else:
            record["files"][path.name] = sha256(path.read_bytes())
    return record


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp, "inputs"))
        for name, argv in commands().items():
            print(json.dumps(fingerprint(name, argv, Path(tmp, name)), sort_keys=True),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
