"""Every `python` block of README.md runs as written against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_readme_python_block_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for i, block in enumerate(blocks):
        done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, f"README python block {i}:\n{done.stderr}"
