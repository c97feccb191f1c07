"""spillnet benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; spillnet is imported from ``src/``
there, never from an installed copy. Each command runs in a fresh child
process (child.py), repeatedly with the same inputs until ``--seconds`` have
passed. ``wall_s`` is the mean over those commands (run_workload says why),
``setup_s`` the median of every process start in the run and ``peak_rss_mb``
the median over the commands.
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of spans.py instead. ``--smoke`` shrinks the workloads so
that selftest.py can check the harness in seconds. Human-readable lines
come first; the last line of stdout is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
from workloads import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
SCRATCH = ROOT / ".perfbench_tmp"

MIN_COMMANDS = 3  # per run, even when they overrun --seconds
SETUP_SAMPLES = 4  # import-only processes per run, besides the timed commands
COMMAND_TIMEOUT_S = 150


def spawn(mode: str, argv: list[str], workdir: Path) -> tuple[dict | None, str]:
    """Run child.py once; returns its record (None on failure) and its stderr."""
    record_path = workdir / "record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), repr(time.perf_counter()), str(SRC), mode,
           str(record_path), *argv]
    proc = subprocess.run(cmd, cwd=workdir, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0 or not record_path.exists():
        return None, proc.stderr
    return json.loads(record_path.read_text()), proc.stderr


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
            "python": platform.python_version(), "numpy": np.__version__}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                info[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    workload = workloads(smoke)[name]
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        command = workload.prepare(seed, workdir)
        input_bytes = sum(path.stat().st_size for path in command.inputs)
        spawn("setup", [], workdir)  # fills the bytecode caches; not timed
        setups = []
        for _ in range(SETUP_SAMPLES):
            record, err = spawn("setup", [], workdir)
            if record is None:
                raise RuntimeError(f"spillnet failed to import:\n{err}")
            setups.append(record["setup_s"])
        version = record["version"]

        modes = ["run", "trace"] if trace else ["run"]
        records = {mode: [] for mode in modes}
        problems: list[str] = []
        attempted = failed = excluded = 0
        fingerprint = None
        started = time.perf_counter()
        last = 0.0
        while (min(len(r) for r in records.values()) < (2 if trace else MIN_COMMANDS)
               or time.perf_counter() + last < started + seconds):
            t0 = time.perf_counter()
            # alternate which of an untraced/traced pair goes first
            for mode in modes if len(records["run"]) % 2 == 0 else modes[::-1]:
                record, err = spawn(mode, command.argv, workdir)
                attempted += workload.ops
                if record is None:
                    failed += workload.ops
                    problems.append(f"{mode} command crashed: {err.strip()[-400:]}")
                    continue
                checked = workload.check(record, command)
                if fingerprint is None:
                    fingerprint = checked.fingerprint
                if checked.fingerprint != fingerprint:
                    checked.problems.append("output differs from the first command's")
                if checked.problems:
                    failed += workload.ops
                    problems += checked.problems
                else:
                    failed += checked.excluded
                excluded = checked.excluded
                setups.append(record["setup_s"])
                records[mode].append(record)
            last = time.perf_counter() - t0
            if len(problems) > 20:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = records["run"]
    result = {"correct": not problems and all(records.values()),
              "attempted": attempted, "failed": failed}
    header = {"workload": name, "seed": seed, "spillnet": version, "ops_per_command": workload.ops,
              "commands": {mode: len(r) for mode, r in records.items()},
              "wall_s": {mode: [round(x["wall_s"], 4) for x in r] for mode, r in records.items()},
              "setup_s": [round(x, 4) for x in setups], "problems": problems[:20],
              **machine_info()}
    result["metrics"] = {}
    if not untraced or not all(records.values()):
        return result, header
    # The mean command, not the median or the fastest: on shared virtual
    # machines the host slows a vCPU up to 2x in spells of tens of
    # milliseconds whose share of the time drifts over minutes, so every
    # command's time follows that share. The mean uses every command's
    # reading of it and over five-seed trials spread least of the three.
    wall = statistics.fmean(r["wall_s"] for r in untraced)
    if not trace:
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (wall, "s"),
            "reps_per_s": (workload.ops / wall, "1/s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in untraced), "MB"),
            "success_share": (1.0 - failed / attempted, "ratio"),
        }
    else:
        per_command = [spans.layer_metrics(r["spans"], workload.ops) for r in records["trace"]]
        for values in per_command:
            values["montecarlo.excluded_reps"] = excluded
            values["cli.input_bytes"] = input_bytes
        for key in spans.EXACT:
            if len({values[key] for values in per_command}) != 1:
                result["correct"] = False
                header["problems"].append(f"{key} differs between traced commands")
        traced_wall = statistics.fmean(r["wall_s"] for r in records["trace"])
        metrics = {}
        for key, unit in spans.PER_LAYER_UNITS.items():
            if key == "trace.overhead_share":
                value = traced_wall / wall - 1.0
            else:
                value = median(values[key] for values in per_command)
            metrics[key] = (value, unit)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, header


def report(result: dict, header: dict) -> None:
    """Print one workload's human-readable lines."""
    print("# " + json.dumps(header))
    for mode, walls in header["wall_s"].items():
        if walls:
            print(f"# {mode} commands: {len(walls)}, wall_s min {min(walls):.4g}"
                  f" median {median(walls):.4g} mean {statistics.fmean(walls):.4g}"
                  f" max {max(walls):.4g}")
    for key, metric in result["metrics"].items():
        print(f"# {key:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"# failed_share {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']} ops)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(workloads()), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for selftest.py")
    args = parser.parse_args(argv)
    if not (SRC / "spillnet" / "__init__.py").is_file():
        print(f"perfbench: no spillnet sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads()) if args.workload == "all" else [args.workload]
    # With "all", the result line sums the counts and prefixes each metric
    # with its workload's name.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, header = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), args.smoke)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        report(result, header)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
