"""The repository's pytest settings: they find the package and carry on past a failing test."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # A failing @given test makes hypothesis print a patch; that path must
    # not turn a warning into an internal error that ends the session.
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_package_imports_without_pythonpath(tmp_path):
    # A fresh checkout has no otmap installed; the settings put src/ on sys.path.
    (tmp_path / "test_import.py").write_text("import otmap\n\n\ndef test_import():\n    assert otmap.__all__\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_import.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
