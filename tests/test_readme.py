"""The README's python code blocks run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                    re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", code], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": "src"},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
