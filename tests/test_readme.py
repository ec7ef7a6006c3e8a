"""Every python block of README.md runs on its own and prints what it says.

Each block runs in a fresh interpreter, so a block that leans on names from
another one fails here.  A `print(...)` line followed by a `# <value>`
comment line promises that value; the text after an em dash is a remark.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def python_blocks() -> list[str]:
    return BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def promised_output(block: str) -> list[str]:
    lines = block.splitlines()
    return [nxt.lstrip("# ").split("—")[0].strip()
            for line, nxt in zip(lines, lines[1:])
            if line.lstrip().startswith("print(") and nxt.startswith("#")]


def test_readme_python_blocks_run_alone():
    blocks = python_blocks()
    assert len(blocks) >= 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    printed = []
    for block in blocks:
        run = subprocess.run([sys.executable, "-c", block], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == promised_output(block)
        printed += run.stdout.splitlines()
    # the first block prints the bar homology of the dual numbers
    assert printed[0] == "{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}"
