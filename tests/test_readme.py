import re
import subprocess
import sys
from pathlib import Path

import pytest

import mixdiff

SRC = Path(mixdiff.__file__).parents[1]
README = SRC.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_blocks_are_found():
    assert len(BLOCKS) == 1


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_block_runs_cleanly(block):
    """Each fenced python block of the README runs as written, so the README
    cannot name an API the library has dropped."""
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
