"""Seeded outputs of this version against its golden record.

The record ``tests/golden/<version>.json`` pins what each seed maps to. A
change that alters that mapping must bump ``spillnet.__version__`` and write
the new version's record with ``tests/write_golden.py``. Counts, exclusions,
graph digests and text (``audit`` stdout among it) compare exactly; floats
to 1e-12 relative, since the last bits of a factorisation or of a libm call
may differ between builds.
"""

import json
import math

import pytest

import spillnet
from write_golden import audit_stdout, golden_path, graphs, main, oracle_tables, studies


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
            "studies audit graphs oracle`"
        )
    want = json.loads(path.read_text())
    assert want["version"] == spillnet.__version__
    assert_matches(studies(), want["studies"], "studies")
    # the sparse study is there to pin exclusions, so it must have some
    assert all(setting["exclusions"] for setting in want["studies"]["sparse"])


def test_audit_stdout_matches_the_golden_record_of_this_version():
    want = json.loads(golden_path().read_text())
    assert audit_stdout() == want["audit"]


def test_graph_edge_keys_match_the_golden_record_of_this_version():
    want = json.loads(golden_path().read_text())
    assert graphs() == want["graphs"]


def test_oracle_tables_match_the_golden_record_of_this_version():
    want = json.loads(golden_path().read_text())
    assert_matches(oracle_tables(), want["oracle"], "oracle")


def test_writer_rewrites_only_the_named_sections(tmp_path):
    path = tmp_path / "golden.json"
    kept = {"version": spillnet.__version__, "studies": {"x": [0.1 + 0.2, 1e-300]},
            "audit": "text\r\n", "graphs": {"g": []}, "oracle": None}
    path.write_text(json.dumps(kept, indent=1) + "\n")
    assert main(["oracle", "--out", str(path)]) == 0
    text = path.read_text()
    before_oracle = json.dumps(kept, indent=1).split('\n "oracle"')[0]
    assert text.startswith(before_oracle + '\n "oracle"')
    assert json.loads(text) == {**kept, "oracle": oracle_tables()}
