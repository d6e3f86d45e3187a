"""Import-footprint guard: the CLI's imports stay off the numeric stack.

Phases reduce with ``math.gcd``, so importing the package must not load
``fractions`` (nor ``decimal`` and ``numbers``, which it pulls in).
``-S`` skips site, whose ``.pth`` files could import them on their own.
"""

import os
import subprocess
import sys
from pathlib import Path

import chainphase

SRC = Path(chainphase.__file__).resolve().parents[1]


def test_cli_imports_no_numeric_stack():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\n"
         "from chainphase import actions, cli\n"
         "print(' '.join(m for m in ('fractions', 'decimal', 'numbers')\n"
         "               if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
