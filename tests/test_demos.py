"""Every demo and every Python block of README.md runs to completion against
the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def run_python(args):
    # a RuntimeWarning is an error here, as it is in the rest of the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_all_demos_found():
    assert len(DEMOS) == 5
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_block_runs(block):
    result = run_python(["-c", block])
    assert result.returncode == 0, result.stderr
