"""Every demo script runs to completion from a clean interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=src_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
