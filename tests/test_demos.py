"""Every script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src") + (os.pathsep + path if path else "")
    proc = subprocess.run(
        # The suite's filterwarnings setting does not reach a subprocess.
        [sys.executable, "-W", "error", str(script)],
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
