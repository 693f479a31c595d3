"""The pytest settings of this suite, run on a suite of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""

PASSING = """\
def test_one():
    pass


def test_two():
    pass
"""


def test_a_failing_property_leaves_later_tests_reported(tmp_path):
    # under the suite's settings, a failing Hypothesis property (test_a) must
    # fail alone: the tests after it (test_b) still run, and pytest exits 1
    # (tests failed), not 3 (internal error)
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text(FAILING_PROPERTY)
    (tests / "test_b.py").write_text(PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 2 passed" in proc.stdout, proc.stdout[-2000:]
    assert proc.returncode == 1
