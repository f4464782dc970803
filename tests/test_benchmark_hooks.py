"""The program names the benchmark's traced run wraps still exist.

``perfbench/spans.py`` replaces program attributes where they are looked
up — module functions such as ``repro.pipeline.stages.simulate`` and
methods such as ``PredictionService.predict_request`` — with traced
versions. Renaming or removing any of them breaks the traced run, so
this test installs every wrapper once, in a fresh interpreter with
``perfbench`` and ``src`` on ``sys.path``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path[:0] = sys.argv[1:3]
from spans import Tracer, install
install(Tracer())
"""


def test_traced_run_finds_every_wrapped_name():
    result = subprocess.run(
        [sys.executable, "-c", _INSTALL,
         str(REPO / "perfbench"), str(REPO / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
