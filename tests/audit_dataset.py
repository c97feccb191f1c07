"""A seeded ``spillnet audit`` dataset that exercises the CSV reader's edge cases.

    write_audit_dataset(units, seed, edges_path, data_path)

The network is G(n, m) with mean degree 2 (about 13% isolated units). Units
get shuffled string ids and are listed in random order; one id holds a comma
and is quoted wherever it appears. Some edge rows repeat, in either
orientation. Both files end their lines with CRLF, hold a blank and a
whitespace-only line, pad some cells with spaces, and the unit table has an
ignored ``note`` column whose quoted cells hold commas and line breaks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MEAN_DEGREE = 2
SPILLOVER_C = -0.5
REPEATED_EDGE_SHARE = 0.05
NOTES = ("", "plain", '"a, b"', '"two\r\nlines"', '"one\nbreak"', '"a\rb"', '"say ""hi"""')


def _cell(name: str) -> str:
    return f'"{name}"' if "," in name else name


def _padded(cell: str) -> str:
    """The cell with a space on each side, but none before an opening quote, which
    would make the quote part of the cell."""
    return f"{cell} " if cell.startswith('"') else f" {cell} "


def write_audit_dataset(units: int, seed: int, edges_path: Path, data_path: Path) -> None:
    rng = np.random.default_rng([seed, 0xA0D17])
    n = units
    m = MEAN_DEGREE * n // 2
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        pairs = (np.minimum(a, b) * n + np.maximum(a, b))[a != b]
        merged = np.concatenate([keys, pairs])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)][:m]
    u, v = keys // n, keys % n

    d = (rng.random(n) < 0.5).astype(np.int64)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    treated_nbrs = (np.bincount(u, weights=d[v], minlength=n)
                    + np.bincount(v, weights=d[u], minlength=n))
    y = (1.0 + degree) + d + SPILLOVER_C / (1.0 + degree) * treated_nbrs + rng.standard_normal(n)

    names = [f"unit-{k:x}" for k in rng.permutation(n).tolist()]
    names[0] = "unit, with comma"
    cells = [_cell(name) for name in names]

    repeat = rng.random(m) < REPEATED_EDGE_SHARE
    src = np.concatenate([u, v[repeat]])
    dst = np.concatenate([v, u[repeat]])
    flip = rng.random(src.size) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    order = rng.permutation(src.size)
    padded = rng.random(src.size) < 0.1
    edge_rows = [f"{_padded(cells[i])},{cells[j]}" if pad else f"{cells[i]},{cells[j]}"
                 for i, j, pad in zip(src[order].tolist(), dst[order].tolist(), padded.tolist())]
    edge_rows.insert(len(edge_rows) // 2, "")
    edge_rows.insert(len(edge_rows) // 3, "   ")
    with edges_path.open("w", newline="") as fh:
        fh.write("src,dst\r\n")
        fh.writelines(row + "\r\n" for row in edge_rows)

    notes = rng.integers(len(NOTES), size=n).tolist()
    treated, outcome = d.tolist(), y.tolist()
    unit_rows = [f"{cells[k]},{treated[k]},{outcome[k]!r},{NOTES[notes[k]]}"
                 for k in rng.permutation(n).tolist()]
    unit_rows.insert(len(unit_rows) // 2, "")
    unit_rows.insert(len(unit_rows) // 4, " ,  ,, ")
    with data_path.open("w", newline="") as fh:
        fh.write("id,treatment,outcome,note\r\n")
        fh.writelines(row + "\r\n" for row in unit_rows)
