"""The repository's pytest configuration reports a failing property.

``filterwarnings = ["error"]`` turns every warning into an error.  The
report hypothesis prints for a failing property raises a deprecation
warning of its own, which under that setting used to stop the whole
session with INTERNALERROR after the first failure.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_failing_property(n):
    assert n != 0


def test_passing():
    assert True
'''


def test_failing_property_is_reported_with_the_rest_of_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
