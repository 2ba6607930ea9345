"""Each script under demos/ runs to completion in a fresh interpreter that
imports bhlab from the source tree, and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [path.stem for path in DEMOS] == [
        "brun_hooley_sandwich", "progression_errors",
        "second_moment_experiment", "singular_series_convergence"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
