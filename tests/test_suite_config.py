"""The suite's own pytest config: a failing hypothesis property must report
its falsifying example under filterwarnings = error."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ALWAYS_FAILS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_always_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
