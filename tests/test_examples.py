"""Every ``examples/*.py`` runs to completion as documented.

The README sends a new reader to ``python examples/quickstart.py`` first;
an example that raises is a broken front door.  Each runs in a subprocess,
exactly as a reader would run it, and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(example):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(example)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
