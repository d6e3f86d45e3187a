"""The traced benchmark patches library names; they must still exist.

``perfbench/spans.install`` wraps functions and methods by name
(``StandardComplex.has_simplex``, ``actions.load_term_file``, ...), so
renaming or deleting one of them breaks every traced benchmark run.
Installing the spans in a fresh interpreter catches that here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_span_install_finds_every_patch_target():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
