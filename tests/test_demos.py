"""Every demo script, and every Python block of the README, runs to completion
from a clean working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.DOTALL | re.MULTILINE)


def run_python(argv, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_exits_0(block, tmp_path):
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
