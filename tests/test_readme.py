"""The library example in README.md runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_python_blocks_run(tmp_path):
    # every fenced python block, each in a fresh interpreter that imports
    # the package from src, so a renamed or moved name fails here; every
    # warning is an error, so an inf or NaN in a table that the package
    # builds at import fails here too
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", block], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
