"""Each benchmark workload runs its unit 0 once, with the digest of its
output pinned: a change to a library call the benchmark makes (perfbench
passes some arguments by position) fails here before it fails a run. Unit 0
also runs once under the benchmark's tracer, with the same digest and its
counts pinned: the tracer stays off the numeric path, and a library name it
no longer finds, or one it wraps twice, moves a count here."""

import hashlib
import sys
from pathlib import Path

import pytest

import mixdiff

PERFBENCH = Path(mixdiff.__file__).parents[2] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
# Importing writes no bytecode next to the benchmark's files.
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import tracing  # noqa: E402
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


# The layer counts of unit 0 at seed 7 that are not zero; every other count is.
TRACED_COUNTS = {
    "sample_wide": {
        "schedule.calls": 174,
        "schedule.check_time.calls": 174,
        "denoiser.oracle.calls": 170,
        "denoiser.oracle.rows": 16837,
        "denoiser.oracle.distinct_rows": 16837,
        "sampler.steps": 170,
    },
    "train_table": {
        "schedule.calls": 30,
        "schedule.check_time.calls": 30,
        "denoiser.table.lookups": 30,
        "denoiser.table.entries": 72,
        "denoiser.table.bytes": 6674,
    },
    "score_narrow": {
        "schedule.calls": 100,
        "schedule.check_time.calls": 100,
        "denoiser.oracle.calls": 508,
        "denoiser.oracle.rows": 6808,
        "denoiser.oracle.distinct_rows": 3673,
        "sampler.self_correct.calls": 100,
        "sampler.self_correct.iterations": 208,
        "sampler.self_correct.converged": 100,
        "sampler.self_correct.edits": 108,
        "metrics.self_accuracy.calls": 200,
        "cli.read_corpus.bytes": 2412,
        "cli.write_corpus.bytes": 1206,
    },
}
# The timed layers each workload goes through; each reads more than zero.
TRACED_TIMES = {
    "sample_wide": (
        "schedule.self_s", "denoiser.oracle.self_s", "sampler.self_s", "sampler.adapt.self_s",
        "metrics.tv_distance.s",
    ),
    "train_table": (
        "schedule.self_s", "denoiser.table_train.self_s", "denoiser.table.save_s",
        "denoiser.table.load_s",
    ),
    "score_narrow": (
        "schedule.self_s", "elbo.sequence_nelbo.self_s", "denoiser.oracle.self_s",
        "sampler.adapt.self_s", "sampler.self_correct.self_s", "metrics.self_accuracy.s",
        "cli.read_corpus.s", "cli.write_corpus.s",
    ),
}


@pytest.mark.parametrize("name", OUTPUT_SHA256)
def test_traced_unit_zero(tmp_path, name):
    workload = workloads.WORKLOADS[name](7, tmp_path)
    workload.warm_up()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        unit = workload.run_unit(0)
    workload.check_unit(0, unit)
    assert unit.failures == []
    assert hashlib.sha256(unit.output).hexdigest() == OUTPUT_SHA256[name]
    layers = tracing.layer_metrics(tracer)
    counts = {k: v for k, v in layers.items() if isinstance(v, int) and v}
    assert counts == TRACED_COUNTS[name]
    assert [k for k in TRACED_TIMES[name] if not layers[k] > 0] == []
