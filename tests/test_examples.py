"""Every script under ``examples/`` runs to completion.

The examples are the public API's worked documentation, and
``quickstart.py`` is the one caller of :func:`repro.create_server`. Each
runs in a fresh interpreter with ``src`` on the path, its artifact cache
(``REPRO_CACHE_DIR``) and temporary files (``TMPDIR``) under the test's
own directory, so a run starts cold and leaves nothing behind.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script, tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO / "src"),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "TMPDIR": str(scratch),
    }
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
