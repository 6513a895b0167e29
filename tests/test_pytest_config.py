"""The pytest configuration reports a failing property test like any other
failure, and runs every test where click cannot be imported."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: one failing @given test, one passing test and one test whose own warning
#: must still count as an error
SESSION = """
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass


def test_own_warning_is_an_error():
    warnings.warn("deprecated here", DeprecationWarning)
"""


def test_failing_property_test_leaves_the_rest_of_the_report(tmp_path):
    (tmp_path / "test_session.py").write_text(SESSION)
    child = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_session.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = child.stdout + child.stderr
    assert "INTERNALERROR" not in output, output
    assert child.returncode == 1, output
    summary = child.stdout.splitlines()[-1]
    assert summary.startswith("2 failed, 1 passed"), output
    assert "FAILED test_session.py::test_property_fails" in child.stdout
    assert "FAILED test_session.py::test_own_warning_is_an_error" in child.stdout


def test_click_cannot_be_imported():
    # conftest.py blocks it before any test imports the CLI, so every
    # in-process CLI run shows that numpy is the one runtime dependency
    with pytest.raises(ImportError):
        import click  # noqa: F401
