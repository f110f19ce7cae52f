"""Set-up stays light: the library loads no third-party module but numpy.

The benchmark's set-up time covers the imports and each workload's warm-up,
and importing scipy.special alone takes longer than a whole set-up there. So
a fresh interpreter imports mixdiff, its CLI and its checks, makes one small
call of each entry the benchmark times, and lists the top-level modules
outside the standard library that these imported, beyond what the interpreter
loaded at start-up (its site hooks may load some of their own). Modules with
no import spec are not counted: Cython's shared-type module, which numpy's
compiled extensions create in memory, is one.
"""

import subprocess
import sys
from pathlib import Path

import mixdiff

SRC = Path(mixdiff.__file__).parents[1]

SCRIPT = """
import os, sys, tempfile
start = set(sys.modules)

import mixdiff, mixdiff.cli, mixdiff.verify
from mixdiff import (
    CLAMP, LogitTable, OracleDenoiser, SamplerConfig, SelfCorrectConfig, ToyDistribution, Vocab,
    ancestral_sample_batch, make_schedule, posterior_kl_to_oracle, self_accuracy, self_correct,
    sequence_nelbo, table_train, tv_distance,
)
from mixdiff.cli import read_corpus, write_corpus

vocab = Vocab(3, 2)
dist = ToyDistribution(vocab, 2, (((0, 0), 0.5), ((1, 1), 0.5)))
sched = make_schedule("hybrid", vocab, p_u=0.2)
oracle = OracleDenoiser(dist, sched)
samples = ancestral_sample_batch(sched, 2, oracle, SamplerConfig(num_steps=4), 8)
tv_distance(samples, dist)
mask_sched = make_schedule("mask", vocab)
sequence_nelbo(mask_sched, [0, 0], OracleDenoiser(dist, mask_sched), 4, seed=1)
self_accuracy([0, 1], oracle, 1e-4, 2)
self_correct([0, 1], oracle, SelfCorrectConfig(temperature=0.1), 2)
table = LogitTable(vocab, 2)
table_train(dist, sched, table, steps=2, batch=4, mode=CLAMP, seed=3)
with tempfile.TemporaryDirectory() as tmp:
    table.save(os.path.join(tmp, "table.txt"))
    loaded = LogitTable.load(os.path.join(tmp, "table.txt"))
    posterior_kl_to_oracle(dist, sched, oracle, loaded, 8)
    with open(os.path.join(tmp, "corpus.txt"), "w") as fh:
        write_corpus(fh, vocab, 2, samples)
    read_corpus(os.path.join(tmp, "corpus.txt"))

imported = [name for name in set(sys.modules) - start if sys.modules[name].__spec__]
print(" ".join(sorted({name.partition(".")[0] for name in imported} - sys.stdlib_module_names)))
"""


def test_entries_the_benchmark_times_load_only_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["mixdiff", "numpy"]
