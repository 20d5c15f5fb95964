"""Every script in `demos/` runs to completion from an empty directory, and
the figure `render_figure.py` writes there is the golden one."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cluster_default.svg"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo.stem == "render_figure":
        assert (tmp_path / "cluster.svg").read_bytes() == GOLDEN.read_bytes()
