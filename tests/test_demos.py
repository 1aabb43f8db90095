"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import approxsub

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(approxsub.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
