"""The test configuration in pyproject.toml, run on a test of its own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # reporting a failing example imports libcst, which warns; under
    # filterwarnings = ["error"] that warning must not end the run with an
    # INTERNALERROR (exit 3) in place of the failure (exit 1)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "1 failed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout
