"""Seeded outputs of this version against its golden record.

The record ``tests/golden/<version>.json`` pins what each seed maps to. A
change that alters that mapping must bump ``spillnet.__version__`` and write
the new version's record with ``tests/write_golden.py``. Counts, exclusions
and text (``audit`` stdout among it) compare exactly; floats to 1e-12
relative, since the last bits of an SVD may differ between BLAS builds.
"""

import json
import math

import pytest

import spillnet
from write_golden import audit_stdout, golden_path, record


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
            "needs a new file, written by `PYTHONPATH=src python tests/write_golden.py`"
        )
    want = json.loads(path.read_text())
    assert want["version"] == spillnet.__version__
    assert_matches(record(), want["studies"], "studies")
    # the sparse study is there to pin exclusions, so it must have some
    assert all(setting["exclusions"] for setting in want["studies"]["sparse"])


def test_audit_stdout_matches_the_golden_record_of_this_version():
    want = json.loads(golden_path().read_text())
    assert audit_stdout() == want["audit"]
