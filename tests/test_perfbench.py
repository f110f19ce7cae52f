"""Each benchmark workload runs its unit 0 once, with the digest of its
output pinned: a change to a library call the benchmark makes (perfbench
passes some arguments by position) fails here before it fails a run."""

import hashlib
import sys
from pathlib import Path

import pytest

import mixdiff

PERFBENCH = Path(mixdiff.__file__).parents[2] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
# Importing writes no bytecode next to the benchmark's files.
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402

sys.dont_write_bytecode = dont_write_bytecode

# sha256 of unit 0's output at seed 7.
OUTPUT_SHA256 = {
    "sample_wide": "45aae751ed0bb3eab497cb5e14878642311ea8ee3aa9be0ef842689e60b2a3d1",
    "train_table": "f2a1ed3256503e63ed271f290709cc887ff3d5fb75d4e855aed72c38fbd78e4e",
    "score_narrow": "6b8a0c887694dfc8a0233dc927c387d230ba7eae1e7d1b807b778b2d20936472",
}


def test_every_workload_is_pinned():
    assert sorted(workloads.WORKLOADS) == sorted(OUTPUT_SHA256)


@pytest.mark.parametrize("name", OUTPUT_SHA256)
def test_workload_unit_zero(tmp_path, name):
    workload = workloads.WORKLOADS[name](7, tmp_path)
    workload.warm_up()
    unit = workload.run_unit(0)
    workload.check_unit(0, unit)
    assert unit.failures == []
    assert unit.attempted >= 1
    assert hashlib.sha256(unit.output).hexdigest() == OUTPUT_SHA256[name]
