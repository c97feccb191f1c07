"""Seeded outputs and command outputs of this version against its golden record.

The record ``tests/golden/<version>.json`` pins what each seed maps to and
what each ``write_golden.commands()`` command prints and writes. A change that
alters what a seed maps to must bump ``spillnet.__version__`` and write the
new version's record with ``tests/write_golden.py``. Counts, digests, exit
codes and text compare exactly; floats to 1e-12 relative, since the last bits
of a factorisation or of a libm call may differ between builds.
"""

import json
import math

import pytest

import spillnet
from write_golden import SECTIONS, cli, commands, golden_path, graphs, main, studies


def assert_matches(got, want, where="record"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_matches(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_seeded_studies_match_the_golden_record_of_this_version():
    path = golden_path()
    if not path.exists():
        pytest.fail(
            f"no golden record {path} for spillnet {spillnet.__version__}: a version bump "
            "needs a new file, written by `PYTHONPATH=src python tests/write_golden.py "
            "studies graphs cli`"
        )
    want = json.loads(path.read_text())
    assert want["version"] == spillnet.__version__
    assert_matches(studies(), want["studies"], "studies")
    # the sparse study is there to pin exclusions, so it must have some
    assert all(setting["exclusions"] for setting in want["studies"]["sparse"])


def test_graph_edge_keys_match_the_golden_record_of_this_version():
    want = json.loads(golden_path().read_text())
    assert graphs() == want["graphs"]


def test_commands_match_the_golden_record_of_this_version():
    want = json.loads(golden_path().read_text()).get("cli", {})
    missing = [name for name in commands() if name not in want]
    assert not missing, (f"the golden record has no commands {missing}; rewrite its cli section "
                         "with `PYTHONPATH=src python tests/write_golden.py cli`")
    assert_matches(cli(), want, "cli")


def test_writer_rewrites_only_the_named_sections(tmp_path):
    path = tmp_path / "golden.json"
    kept = {"version": spillnet.__version__, "studies": {"x": [0.1 + 0.2, 1e-300]},
            "audit": "text\r\n", "graphs": None, "cli": {"c": ["text\r\n", 2.5e-310]},
            "oracle": None}
    path.write_text(json.dumps(kept, indent=1) + "\n")
    assert main(["graphs", "--out", str(path)]) == 0
    # the retired sections go, and the others come out byte for byte as they were
    want = {"version": kept["version"], "studies": kept["studies"], "graphs": graphs(),
            "cli": kept["cli"]}
    text = path.read_text()
    assert text == json.dumps(want, indent=1) + "\n"
    assert list(json.loads(text)) == ["version", *SECTIONS]
