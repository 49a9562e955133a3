import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # hypothesis imports libcst to report a failing example, and libcst
    # warns on import: the suite's warning filters must let the failure
    # be reported instead of ending the session with INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr


def test_loadtxt_no_data_warning_is_an_error():
    # a read that hands np.loadtxt only blank lines fails the suite
    with pytest.raises(UserWarning, match="input contained no data"):
        np.loadtxt(["\n"], delimiter=",", comments=None)
