"""The repository's pytest settings report a failing test and carry on."""

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
