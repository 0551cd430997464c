"""The repository's pytest settings report a failing test as a failure."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_GIVEN = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_a_failing_given_test_fails_without_an_internal_error(tmp_path):
    # the hypothesis report hook touches a deprecated mypy_extensions name,
    # and filterwarnings = ["error"] would turn that into an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out
