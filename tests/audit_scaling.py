"""Record how the time and peak memory of ``spillnet audit`` grow with the number of units.

    python tests/audit_scaling.py [--units N [N ...]] [--repeats R] [--seed S]

For each size (default 20,000, 200,000 and 1,000,000 units), the benchmark's
dataset writer, ``perfbench/workloads.write_audit_dataset`` (seed 5 by
default), writes the unit and edge tables into a temporary directory. Then
``spillnet audit --out`` runs on them R times (default 3), each in a fresh
process that imports spillnet from ``src/`` of this checkout. Prints one JSON
object with, per size:

- ``units`` and ``edge_rows``;
- ``wall_s``: the median time of the ``main`` call, which leaves out the
  interpreter's start and imports, and every run's time in ``runs_s``;
- ``us_per_unit``: the median time over the units, in microseconds;
- ``stage_seconds``: the ``audit --out`` manifest's stage timers of the
  median run;
- ``vmhwm_mb``: the largest peak resident memory of a run's process, VmHWM
  in ``/proc/self/status`` (Linux only), in MiB.

The audit's stdout must be the same in every run of a size. At 1,000,000
units the writer peaks at ~0.6 GB of memory and each audit process at ~0.5 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import write_audit_dataset

# one audit in this process: its stdout, the time of the main call and the process's VmHWM
CHILD = """
import contextlib, io, json, sys, time
from spillnet.cli import main
with contextlib.redirect_stdout(io.StringIO()) as stdout:
    start = time.perf_counter()
    rc = main(sys.argv[1:])
    wall = time.perf_counter() - start
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"rc": rc, "wall_s": wall, "vmhwm_kb": hwm_kb, "stdout": stdout.getvalue()}))
"""


def _audit(edges: Path, data: Path, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = ["audit", "--edges", str(edges), "--data", str(data), "--out", str(out)]
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, check=True,
                          capture_output=True, text=True)
    run = json.loads(done.stdout)
    if run["rc"] != 0:
        raise SystemExit(f"audit exited {run['rc']}: {done.stderr}")
    run["manifest"] = json.loads(Path(f"{out}.manifest.json").read_text())
    return run


def measure(units: int, seed: int, repeats: int, workdir: Path) -> dict:
    edges, data = workdir / "edges.csv", workdir / "units.csv"
    write_audit_dataset(units, seed, edges, data)
    runs = sorted((_audit(edges, data, workdir / "report.txt") for _ in range(repeats)),
                  key=lambda run: run["wall_s"])
    if len({run["stdout"] for run in runs}) != 1:
        raise SystemExit(f"audit stdout differs between runs at {units} units")
    median = runs[(len(runs) - 1) // 2]
    return {
        "units": units,
        "edge_rows": median["manifest"]["rows_read"]["edges"],
        "wall_s": round(median["wall_s"], 4),
        "runs_s": [round(run["wall_s"], 4) for run in runs],
        "us_per_unit": round(median["wall_s"] / units * 1e6, 3),
        "stage_seconds": {stage: round(seconds, 4)
                          for stage, seconds in median["manifest"]["stage_seconds"].items()},
        "vmhwm_mb": round(max(run["vmhwm_kb"] for run in runs) / 1024, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", type=int, nargs="+", default=[20_000, 200_000, 1_000_000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    sizes = []
    for units in args.units:
        with tempfile.TemporaryDirectory() as workdir:
            sizes.append(measure(units, args.seed, args.repeats, Path(workdir)))
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "sizes": sizes}, indent=2))


if __name__ == "__main__":
    main()
