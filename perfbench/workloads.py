"""The benchmark's workloads: the commands they run, their inputs and their checks.

Every workload is one ``spillnet`` command driven from one process. Its
inputs derive from the benchmark seed alone. The checks read only what the
command wrote and what the benchmark generated itself, so they hold for any
mapping from seeds to graphs, not just the current one.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A Monte Carlo mean must sit within this many Monte Carlo standard errors
# of its target. With 20 reps the standardised gap is roughly t with 19
# degrees of freedom; over 60 study seeds the largest of 1,920 checked cells
# was 3.7. Beyond 6 the odds are about 1e-5 per cell, so a steady run fails
# about once in 3,000, while a defect that moves a checked coefficient by
# 0.2 still fails (mc_se <= 0.03 here).
TOLERANCE_MC_SE = 6.0
# Below this many reps the Monte Carlo standard error itself is too noisy for
# the tolerance check (smoke sizes); every other check still runs.
MIN_REPS_FOR_TOLERANCE = 20
# "Well beyond" its Monte Carlo error: the imputation bias in designs 1 and 2
# is 0.3-0.7, at least 11 standard errors over those 60 seeds.
BIAS_MC_SE = 6.0

SPECS = ("t_reg", "dbar_reg", "dbar_star_reg")


@dataclass(frozen=True)
class Command:
    """One prepared command: its arguments, input files and what checks it."""

    argv: list[str]
    inputs: list[Path]
    out: Path | None = None
    reference: dict | None = None


@dataclass(frozen=True)
class Checked:
    problems: list[str]
    excluded: int
    fingerprint: str


@dataclass(frozen=True)
class Simulate:
    """``spillnet simulate`` over designs x spillover scales; one op is one rep of one setting."""

    designs: tuple[int, ...]
    c_values: tuple[float, ...]
    n: int
    reps: int
    graph_flags: tuple[str, ...] = ()

    @property
    def settings(self) -> list[tuple[str, str]]:
        return [(str(d), f"{c:g}") for d in self.designs for c in self.c_values]

    @property
    def ops(self) -> int:
        return len(self.settings) * self.reps

    def prepare(self, seed: int, workdir: Path) -> Command:
        design = "all" if self.designs == (1, 2, 3) else ",".join(map(str, self.designs))
        out = workdir / "results.csv"
        argv = [
            "simulate", "--design", design,
            "--c", ",".join(f"{c:g}" for c in self.c_values),
            "--n", str(self.n), "--reps", str(self.reps), "--p", "0.5",
            "--seed", str(seed), "--workers", "1",
            *self.graph_flags,
            "--out", str(out),
        ]
        return Command(argv=argv, inputs=[], out=out)

    def check(self, record: dict, command: Command) -> Checked:
        if record.get("rc") != 0:
            return Checked([f"exit code {record.get('rc')}"], 0, "")
        text = command.out.read_text()
        rows = {(r["design"], r["c"], r["spec"], r["coef"]): r
                for r in csv.DictReader(io.StringIO(text))}
        problems: list[str] = []
        excluded = 0
        for design, c in self.settings:
            cells = {}
            for spec in SPECS:
                for coef in ("direct", "spillover"):
                    row = rows.get((design, c, spec, coef))
                    if row is None:
                        problems.append(f"missing row design {design} c={c} {spec} {coef}")
                        continue
                    cells[spec, coef] = row
            if len(cells) != 2 * len(SPECS):
                continue
            excluded += int(cells["t_reg", "direct"]["n_excluded"])
            problems += _check_setting(design, c, cells, self.reps)
        problems += _check_manifest(command.out, len(self.settings))
        return Checked(problems, excluded, text)


def _check_setting(design: str, c: str, cells: dict, reps: int) -> list[str]:
    label = f"design {design} c={c}"
    problems = []

    def value(cell, key):
        return float(cells[cell][key])

    # Below MIN_REPS_FOR_TOLERANCE only signs are checked, not distances.
    scaled = reps >= MIN_REPS_FOR_TOLERANCE
    close = [(spec, "direct") for spec in SPECS]
    close += [("t_reg", "spillover"), ("dbar_reg", "spillover")]
    if design == "3":
        close.append(("dbar_star_reg", "spillover"))
    for cell in close if scaled else ():
        gap = abs(value(cell, "mean_estimate") - value(cell, "true_coef"))
        if not gap <= TOLERANCE_MC_SE * value(cell, "mc_se"):
            problems.append(f"{label} {cell[0]} {cell[1]}: |mean - true| = {gap:.4g}"
                            f" > {TOLERANCE_MC_SE} x mc_se {value(cell, 'mc_se'):.4g}")
    star = ("dbar_star_reg", "spillover")
    mc_se = value(star, "mc_se")
    if design in ("1", "2"):
        bias = value(star, "bias")
        if not bias > (BIAS_MC_SE * mc_se if scaled else 0.0):
            problems.append(f"{label} imputed spillover bias {bias:.4g} is not positive"
                            f" beyond {BIAS_MC_SE} x mc_se {mc_se:.4g}")
    if design == "1" and float(c) < 0:
        mean, true = value(star, "mean_estimate"), value(star, "true_coef")
        if not (true < 0 and mean > (TOLERANCE_MC_SE * mc_se if scaled else 0.0)):
            problems.append(f"{label} imputed spillover sign not reversed:"
                            f" mean {mean:.4g}, true {true:.4g}")
    return problems


def _check_manifest(out: Path, settings: int) -> list[str]:
    path = Path(f"{out}.manifest.json")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    if manifest.get("command") != "simulate" or str(out) not in manifest.get("outputs", []):
        return ["manifest does not describe this simulate run"]
    if len(manifest.get("config", [])) != settings:
        return [f"manifest lists {len(manifest.get('config', []))} configs, expected {settings}"]
    return []


# ---------------------------------------------------------------------------
# audit

# Design 1 of the paper with c = -0.5: baseline 1 + degree, unit direct effect,
# spillover c / (1 + degree) per treated neighbor, standard normal noise.
AUDIT_C = -0.5
AUDIT_MEAN_DEGREE = 2
AUDIT_REPEATED_EDGE_SHARE = 0.05

_FIT_LINE = re.compile(
    r"^\s+(\w+)\s+direct\s+(\S+) \[(\S+)\]\s+spillover\s+(\S+) \[(\S+)\]\s+n=(\d+)$", re.M
)


@dataclass(frozen=True)
class Audit:
    """``spillnet audit`` on a generated dataset; one op is one audit."""

    units: int
    ops = 1

    def prepare(self, seed: int, workdir: Path) -> Command:
        edges, data = workdir / "edges.csv", workdir / "units.csv"
        reference = write_audit_dataset(self.units, seed, edges, data)
        argv = ["audit", "--edges", str(edges), "--data", str(data)]
        return Command(argv=argv, inputs=[edges, data], reference=reference)

    def check(self, record: dict, command: Command) -> Checked:
        if record.get("rc") != 0:
            return Checked([f"exit code {record.get('rc')}"], 0, "")
        text = record["stdout"]
        return Checked(check_audit_report(text, command.reference), 0, text)


def write_audit_dataset(units: int, seed: int, edges_path: Path, data_path: Path) -> dict:
    """Write the audit inputs and return the reference statistics of the data.

    Units get shuffled string ids and are listed in random order. The network
    is G(n, m) with mean degree 2 (about 13% isolated units); some edge rows
    repeat, in either orientation, which the audit must collapse.
    """
    rng = np.random.default_rng([seed, 0x5A11])
    n = units
    m = AUDIT_MEAN_DEGREE * n // 2
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        pairs = np.minimum(a, b) * n + np.maximum(a, b)
        pairs = pairs[a != b]
        merged = np.concatenate([keys, pairs])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)][:m]
    u, v = keys // n, keys % n

    d = (rng.random(n) < 0.5).astype(np.int64)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    treated_nbrs = np.bincount(u, weights=d[v], minlength=n) + np.bincount(v, weights=d[u], minlength=n)
    y = (1.0 + degree) + d + AUDIT_C / (1.0 + degree) * treated_nbrs + rng.standard_normal(n)

    names = np.array([f"unit-{k:x}" for k in rng.permutation(n)])
    repeat = rng.random(m) < AUDIT_REPEATED_EDGE_SHARE
    src = np.concatenate([u, v[repeat]])
    dst = np.concatenate([v, u[repeat]])
    flip = rng.random(src.size) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    order = rng.permutation(src.size)
    with edges_path.open("w") as fh:
        fh.write("src,dst\n")
        fh.writelines(f"{names[i]},{names[j]}\n" for i, j in zip(src[order], dst[order]))
    with data_path.open("w") as fh:
        fh.write("id,treatment,outcome\n")
        rows = list(zip(names.tolist(), d.tolist(), y.tolist()))
        fh.writelines(f"{rows[i][0]},{rows[i][1]},{rows[i][2]!r}\n"
                      for i in rng.permutation(n).tolist())
    return reference_fits(degree, d, treated_nbrs, y)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta
    sigma2 = resid @ resid / (x.shape[0] - x.shape[1])
    return beta, np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))


def reference_fits(degree, d, treated_nbrs, y) -> dict:
    """The three specifications fitted with ``numpy.linalg.lstsq``."""
    n = degree.size
    pos = degree > 0
    dbar_star = np.where(pos, treated_nbrs / np.maximum(degree, 1), 0.0)
    one = np.ones(n)
    # columns: constant, own treatment, spillover regressor[, degree]
    designs = {
        "t_reg": (np.column_stack([one, d, treated_nbrs, degree]), y),
        "dbar_reg": (np.column_stack([one, d, dbar_star])[pos], y[pos]),
        "dbar_star_reg": (np.column_stack([one, d, dbar_star]), y),
    }
    fits = {}
    for spec, (x, target) in designs.items():
        beta, se = _ols(x.astype(float), target)
        fits[spec] = (beta[1], se[1], beta[2], se[2], x.shape[0])
    return {
        "units": n,
        "isolated_share": float(np.mean(~pos)),
        "mean_degree": float(degree.mean()),
        "fits": fits,
    }


def check_audit_report(text: str, ref: dict) -> list[str]:
    """Compare the printed report with the reference, to printed precision."""
    problems = []

    def near(printed: str, expected: float, decimals: int) -> bool:
        return abs(float(printed) - expected) <= 0.5 * 10.0 ** -decimals + 1e-9

    if f"units: {ref['units']} " not in text:
        problems.append("unit count missing or wrong")
    for label, key in (("isolated share", "isolated_share"), ("mean degree", "mean_degree")):
        match = re.search(rf"^  {label}\s+(\S+)$", text, re.M)
        if match is None or not near(match.group(1), ref[key], 4):
            problems.append(f"{label} missing or differs from {ref[key]:.4f}")
    printed = {m.group(1): m.groups()[1:] for m in _FIT_LINE.finditer(text)}
    for spec, expected in ref["fits"].items():
        got = printed.get(spec)
        if got is None:
            problems.append(f"{spec} fit line missing")
            continue
        if int(got[4]) != expected[4] or not all(
            near(g, e, 4) for g, e in zip(got[:4], expected[:4])
        ):
            problems.append(f"{spec} printed {got} differs from lstsq reference"
                            f" {tuple(round(e, 4) for e in expected)}")
    if "WARNING: the zero-imputed spillover estimate differs" not in text:
        problems.append("imputation warning missing")
    return problems


def workloads(smoke: bool = False) -> dict:
    """Workload definitions; ``smoke`` shrinks them to check the harness in seconds."""
    if smoke:
        return {
            "study": Simulate((1, 2, 3), (0.0, -0.5), n=200, reps=3),
            "fixed_er": Simulate((1,), (-0.5,), n=400, reps=3, graph_flags=(
                "--graph", "er", "--er-mean-degree", "2", "--fixed-graph")),
            "audit": Audit(units=2000),
        }
    return {
        "study": Simulate((1, 2, 3), (0.0, -0.5), n=1000, reps=20),
        "fixed_er": Simulate((1,), (-0.5,), n=4000, reps=20, graph_flags=(
            "--graph", "er", "--er-mean-degree", "2", "--fixed-graph")),
        "audit": Audit(units=20000),
    }
