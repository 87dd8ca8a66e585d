"""The warning filters of pyproject.toml let a failing property test fail.

Every warning is an error in this suite. On a counterexample the hypothesis
pytest plugin imports ``hypothesis.extra._patching``, whose import warns
that ``mypy_extensions.TypedDict`` is deprecated; one narrow filter ignores
that warning, so the test fails instead of stopping the session.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def test_failing_given_test_fails_without_internal_error(tmp_path):
    path = tmp_path / "test_failing_property.py"
    path.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed" in out, out
