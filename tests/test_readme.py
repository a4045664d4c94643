"""The README's library example runs as written, in a fresh process and an empty directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 1, res.stdout
