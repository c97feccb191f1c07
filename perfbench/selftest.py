"""Self-test of the benchmark harness at smoke sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and twice traced with ``run.py --smoke``,
checks the result line against BENCHMARK.json and the counts the traced run
must read, checks that the second traced run repeats those counts exactly,
runs ``--workload all`` once, and checks that run.py refuses to run without
spillnet sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
from workloads import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check(failures: list[str], ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    if not ok:
        failures.append(label)


def main() -> int:
    failures: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(failures, sorted(w["name"] for w in spec["workloads"]) == sorted(workloads()),
          "BENCHMARK.json lists exactly the defined workloads")
    check(failures, expected_units[1] == spans.PER_LAYER_UNITS,
          "BENCHMARK.json per_layer matches spans.PER_LAYER_UNITS")

    # self time = duration minus the time covered by child spans
    own = spans.self_times([["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                            ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]])
    check(failures, own == [6.0, 2.0, 1.0, 1.0], "self_times subtracts direct children")

    smoke = workloads(smoke=True)
    for name in sorted(smoke):
        counts = None
        # the second traced run must repeat the first one's counts exactly
        for run, trace in enumerate((0, 1, 1)):
            proc = bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
            label = f"{name} --trace {trace}" + (" (again)" if run == 2 else "")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                check(failures, False, f"{label}: result line\n{proc.stderr[-800:]}")
                continue
            check(failures, proc.returncode == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: correct, nothing failed")
            check(failures, set(result) == {"correct", "attempted", "failed", "metrics"}
                  and {k: v["unit"] for k, v in result["metrics"].items()}
                  == expected_units[trace], f"{label}: metric names and units")
            if not trace or not result["correct"]:
                continue
            value = {k: v["value"] for k, v in result["metrics"].items()}
            if counts is None:
                counts = {key: value[key] for key in spans.EXACT}
            else:
                check(failures, counts == {key: value[key] for key in spans.EXACT},
                      f"{label}: counts repeat those of the first traced run")
            if name == "audit":
                check(failures, value["graph.generate.calls"] == 0, f"{label}: no generator call")
                selfs = {layer: value[f"{layer}.self_s"] for layer in spans.LAYERS}
                check(failures, max(selfs, key=selfs.get) == "cli",
                      f"{label}: cli has the largest self time")
                continue
            check(failures, value["exposure.compute_exposure.calls_per_rep"] == 2,
                  f"{label}: two exposure computations per rep")
            check(failures, value["estimators.ols.calls_per_rep"] == 3,
                  f"{label}: three fits per rep")
            shared = 1 / len(smoke[name].settings) if name == "study" else 1 / smoke[name].reps
            check(failures, abs(value["graph.generate.unique_share"] - shared) < 1e-12,
                  f"{label}: generator unique share {shared:.4g}")

    proc = bench(ROOT, "--workload", "all", "--seed", "7", "--seconds", "1", "--smoke")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    check(failures, proc.returncode == 0 and result.get("correct") is True
          and set(result.get("metrics", ())) == {f"{name}.{metric}" for name in smoke
                                                 for metric in expected_units[0]},
          "all: every workload's end-to-end metrics in one result")

    # Without spillnet sources the benchmark must fail and print no result.
    SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "study", "--seed", "1", "--seconds", "1")
        check(failures, proc.returncode != 0 and '"correct"' not in proc.stdout,
              "refuses to run in a directory without spillnet sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
