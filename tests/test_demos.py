"""Every demo script runs to completion against the package in src/."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_first_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_first_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
