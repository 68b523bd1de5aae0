"""The repo's pytest settings report a failing property test like any other failure.

``pyproject.toml`` turns every warning into an error.  Hypothesis's
pytest plugin raises a ``DeprecationWarning`` while it builds the report
of a failing ``@given`` test, and unless that one warning is ignored,
the error aborts the session with an ``INTERNALERROR``: no traceback for
the failure and no run of the tests after it.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_after_it():
    pass
'''


def test_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_suite.py").write_text(SUITE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
    assert done.returncode == 1
