"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainphase

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(chainphase.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["exchange_semion.py",
                                    "membrane_statistics.py",
                                    "search_classification.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
