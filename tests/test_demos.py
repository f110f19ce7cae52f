import subprocess
import sys
from pathlib import Path

import pytest

import mixdiff

SRC = Path(mixdiff.__file__).parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "sampling_convergence.py",
        "self_correction_repair.py",
        "weight_curves.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo):
    """Each demo calls the public API end to end; a signature change that
    breaks one shows up here."""
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
