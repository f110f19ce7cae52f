import argparse
import hashlib
import json
import math
import os
import select
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import mixdiff
from mixdiff import ToyDistribution, Vocab, cli
from mixdiff.cli import main
from mixdiff.schedule import ConditionalTransition, Terms


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_corpus(path, vocab, seqs):
    with open(path, "w") as fh:
        fh.write(f"{vocab.size} {len(seqs[0])} {vocab.mask_id}\n")
        for seq in seqs:
            fh.write(" ".join(str(z) for z in seq) + "\n")


@pytest.fixture
def dist_file(tmp_path, two_outcome):
    path = tmp_path / "dist.txt"
    two_outcome.save(str(path))
    return str(path)


@pytest.fixture
def corpus_file(tmp_path, vocab3):
    path = tmp_path / "corpus.txt"
    write_corpus(path, vocab3, [(0, 0), (1, 1), (0, 0)])
    return str(path)


def test_noise_near_zero_time_is_identity(capsys, corpus_file):
    code, out, _ = run(capsys, ["noise", "--corpus", corpus_file, "--t", "1e-4", "--seed", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3 2 2"
    assert lines[1:] == ["0 0", "1 1", "0 0"]


def test_noise_near_one_is_all_mask(capsys, tmp_path, vocab3):
    path = tmp_path / "big.txt"
    write_corpus(path, vocab3, [tuple([0] * 100)] * 100)
    code, out, _ = run(capsys, ["noise", "--corpus", str(path), "--t", "0.9999"])
    assert code == 0
    tokens = np.array(
        [int(v) for ln in out.strip().splitlines()[1:] for v in ln.split()]
    )
    assert np.mean(tokens == 2) > 0.999


@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], "a0e8f4893594c84e2d90255a7b19b06c8a23a8bfe00c6c24d806ea042f9ea877"),
        (
            ["--schedule", "hybrid", "--p-u", "0.2"],
            "74c0ede68b822b38d4acba08e288ab7e6678235720462e99bc7b96e9e9b2015a",
        ),
    ],
    ids=["mask", "hybrid"],
)
def test_noise_grid_same_bytes(capsys, tmp_path, flags, digest):
    """stdout sha256 recorded when the corpus was noised one sequence at a time."""
    path = tmp_path / "c.txt"
    seqs = [(0, 1, 2, 3), (3, 3, 3, 3), (1, 0, 2, 2), (0, 0, 0, 1), (2, 1, 0, 3)]
    write_corpus(path, Vocab(5, 4), seqs)
    code, out, _ = run(
        capsys, ["noise", "--corpus", str(path), "--t", "0.3,0.7", "--seed", "5", *flags]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_noise_missing_time_is_usage_error(corpus_file):
    """noise without --t used to exit 2, as if the corpus were at fault."""
    with pytest.raises(SystemExit) as exc:
        main(["noise", "--corpus", corpus_file])
    assert exc.value.code == 1


def test_bad_corpus_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2 2\n0 zero\n")
    code, _, err = run(capsys, ["noise", "--corpus", str(bad), "--t", "0.5"])
    assert code == 2
    assert "line 2" in err
    # line numbers count blank lines
    bad.write_text("3 2 2\n\n0 zero\n")
    code, _, err = run(capsys, ["noise", "--corpus", str(bad), "--t", "0.5"])
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("command", ["nelbo", "self-correct", "noise"])
def test_corpus_without_sequences_is_data_error(capsys, tmp_path, dist_file, command):
    """A corpus of only its header line is a data error: no traceback, no NaN
    in the JSON, and no --out file."""
    empty = tmp_path / "empty.txt"
    empty.write_text("3 2 2\n")
    out = tmp_path / "out.txt"
    argv = {
        "nelbo": ["--dist", dist_file],
        "self-correct": ["--dist", dist_file, "--out", str(out)],
        "noise": ["--t", "0.5"],
    }[command]
    code, stdout, err = run(capsys, [command, "--corpus", str(empty)] + argv)
    assert code == 2
    assert stdout == ""
    assert "corpus has no sequences" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 2 5\n0.5 0 0\n0.5 1 1\n", 1),  # mask id outside the vocab
        ("3 2 2\n0.5 0 0\n0.5 2 2\n", 3),  # mask token in an outcome
        ("3 2 2\n0.5 0 0\n0.4 1 1\n", 3),  # probabilities sum to 0.9
    ],
    ids=["mask_id_outside_vocab", "mask_in_outcome", "probs_sum_below_1"],
)
def test_bad_distribution_contents_are_data_errors(capsys, tmp_path, text, line):
    path = tmp_path / "dist.txt"
    path.write_text(text)
    out = tmp_path / "table.txt"
    code, _, err = run(capsys, ["train", "--dist", str(path), "--steps", "1", "--out", str(out)])
    assert code == 2
    assert f"data error: line {line}:" in err


@pytest.mark.parametrize(
    "argv, text, what",
    [
        (["noise", "--t", "0.5", "--corpus"], "0 1\n0 1 1\n", "corpus"),
        (["train", "--out", "table.txt", "--dist"], "0.5 0 0\n0.5 1 1 1\n", "distribution file"),
    ],
    ids=["corpus", "distribution"],
)
def test_line_of_another_width_is_data_error(capsys, tmp_path, monkeypatch, argv, text, what):
    """Both readers check a line's width with the denoisers' batch check."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "in.txt"
    path.write_text("3 2 2\n" + text)
    code, stdout, err = run(capsys, argv + [str(path)])
    assert (code, stdout) == (2, "")
    kind = what.split()[0]
    assert err == f"data error: line 3: bad {what}: batch of length 3 for a {kind} of length 2\n"
    assert not (tmp_path / "table.txt").exists()


def test_table_file_with_a_key_outside_the_table_is_data_error(capsys, tmp_path):
    """A table entry with a token outside the vocabulary used to load and
    score silently; `nelbo --table` exits 2 naming its line."""
    table = tmp_path / "table.txt"
    table.write_text("3 2 2 8 0.0001 0.5\n0 0 7 0.0 1.0 2.0 3.0 4.0 5.0\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("3 2 2\n0 1\n")
    code, stdout, err = run(capsys, ["nelbo", "--table", str(table), "--corpus", str(corpus)])
    assert code == 2
    assert stdout == ""
    assert "data error: line 2:" in err and "token id 7 outside [0, 3)" in err


@pytest.mark.parametrize("logit", ["nan", "inf"])
def test_table_file_with_a_non_finite_logit_is_data_error(capsys, tmp_path, logit):
    """A `nan` logit used to load, and `sample --table` exited 0 with samples
    drawn from NaN predictions; the table file is a data error on its line."""
    table = tmp_path / "table.txt"
    table.write_text(
        f"3 2 2 8 0.0001 0.5\n7 0 0 0.0 1.0 2.0 3.0 4.0 5.0\n7 2 2 0.0 {logit} 0 0 0 0\n"
    )
    out = tmp_path / "samples.txt"
    code, stdout, err = run(capsys, ["sample", "--table", str(table), "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert "data error: line 3:" in err and f"logit {logit} is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--batch", "0"), ("--steps", "-3")])
def test_train_bad_batch_or_steps_is_usage_error(capsys, tmp_path, dist_file, flag, value):
    out = tmp_path / "table.txt"
    code, stdout, err = run(capsys, ["train", "--dist", dist_file, flag, value, "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert f"usage error: {flag[2:]} must be" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, match",
    [
        ("--lr", "nan", "learning_rate must be finite and > 0"),
        ("--lr", "inf", "learning_rate must be finite and > 0"),
        ("--lr", "-1", "learning_rate must be finite and > 0"),
        ("--lr", "0", "learning_rate must be finite and > 0"),
        ("--t-buckets", "0", "t_buckets must be >= 1"),
        ("--t-buckets", "-2", "t_buckets must be >= 1"),
        ("--w-max", "nan", "w_max must be finite and > 0"),
        ("--w-max", "inf", "w_max must be finite and > 0"),
    ],
)
def test_train_bad_table_parameter_is_usage_error(capsys, tmp_path, dist_file, flag, value, match):
    out = tmp_path / "table.txt"
    code, stdout, err = run(capsys, ["train", "--dist", dist_file, flag, value, "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert f"usage error: {match}" in err
    assert not out.exists()


def test_train_with_t_buckets_past_int64_keys_is_usage_error(capsys, tmp_path, dist_file):
    """--t-buckets 10**20 exited with an OverflowError traceback from LogitTable.buckets."""
    out = tmp_path / "table.txt"
    argv = ["train", "--dist", dist_file, "--t-buckets", str(10**20), "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (1, "")
    assert "usage error: t_buckets must be >= 1 and <= 2**32" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, match",
    [
        (["nelbo", "--mode", "clamp", "--w-max", "nan"], "w_max must be finite and > 0"),
        (["sample", "--temperature", "nan"], "temperature must be finite and > 0"),
        (["sample", "--temperature", "inf"], "temperature must be finite and > 0"),
        (["self-correct", "--temperature", "nan"], "temperature must be finite and > 0"),
        (["oracle-eval", "--schedule", "hybrid", "--gamma", "nan"], "gamma must be finite and > 0"),
        (["oracle-eval", "--schedule", "hybrid", "--gamma", "inf"], "gamma must be finite and > 0"),
    ],
)
def test_non_finite_config_value_is_usage_error(
    capsys, tmp_path, dist_file, corpus_file, argv, match
):
    """These used to exit 0 with a NaN NELBO, all-zero samples or NaN closed forms."""
    out = tmp_path / "out.txt"
    files = {
        "nelbo": ["--corpus", corpus_file],
        "sample": ["--out", str(out)],
        "self-correct": ["--corpus", corpus_file, "--out", str(out)],
    }
    code, stdout, err = run(capsys, [*argv, "--dist", dist_file, *files.get(argv[0], [])])
    assert code == 1
    assert stdout == ""
    assert f"usage error: {match}" in err
    assert not out.exists()


def test_distribution_file_with_nan_probability_is_data_error(capsys, tmp_path):
    """A `nan` probability used to load, and oracle-eval printed a NaN NELBO."""
    path = tmp_path / "dist.txt"
    path.write_text("3 2 2\nnan 0 0\n1.0 1 1\n")
    code, stdout, err = run(capsys, ["oracle-eval", "--dist", str(path)])
    assert code == 2
    assert stdout == ""
    assert "data error: line 2:" in err


@pytest.mark.parametrize(
    "header", ["3 2 2 0 0.0001 0.5", "3 2 2 8 0.5 0.5", "3 2 2 8 0.0001 nan", "3 2 2 8 0.0001 -1"]
)
def test_table_file_with_bad_parameters_is_data_error(capsys, tmp_path, corpus_file, header):
    path = tmp_path / "table.txt"
    path.write_text(header + "\n")
    code, stdout, err = run(capsys, ["nelbo", "--corpus", corpus_file, "--table", str(path)])
    assert code == 2
    assert stdout == ""
    assert "data error: line 1:" in err


def test_p_u_needs_hybrid_schedule(capsys, dist_file):
    code, out, err = run(capsys, ["oracle-eval", "--dist", dist_file, "--p-u", "0.2"])
    assert code == 1
    assert out == ""
    assert "usage error: p_u=0.2 needs the hybrid schedule, not 'mask'" in err


def test_gamma_needs_hybrid_schedule(capsys, dist_file):
    """--gamma shapes only the uniform bump, which the mask schedule lacks."""
    code, out, err = run(capsys, ["oracle-eval", "--dist", dist_file, "--gamma", "3"])
    assert code == 1
    assert out == ""
    assert "gamma=3.0 needs the hybrid schedule, not 'mask'" in err
    code, _, _ = run(capsys, ["oracle-eval", "--dist", dist_file, "--gamma", "1"])
    assert code == 0


@pytest.mark.parametrize("gamma", ["1100", "1e300"])
def test_gamma_that_overflows_is_usage_error(capsys, gamma):
    """2**gamma used to end the command in an OverflowError traceback."""
    argv = ["weights-csv", "--schedule", "hybrid", "--p-u", "0.2", "--gamma", gamma]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: gamma={float(gamma)!r} above 2 makes the off-mask rate negative\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--gamma", "3"], "gamma=3.0 above 2 makes the off-mask rate negative"),
        (["--eps-t", "1e-100"], "eps_t=1e-100 is at most 2**-54, so 1 - eps_t rounds to 1"),
    ],
)
def test_schedule_outside_the_valid_domain_is_usage_error(capsys, flags, message):
    """weights-csv used to exit 0, printing a negative w_uniform at gamma 3 and
    w_mask = inf at eps_t 1e-100."""
    argv = ["weights-csv", "--schedule", "hybrid", "--p-u", "0.2", *flags]
    assert run(capsys, argv) == (1, "", f"usage error: {message}\n")


def test_nelbo_sequence_seeds_differ_across_seeds(capsys, tmp_path, vocab3, dist_file):
    """Sequence i draws from a stream hashed from (seed, i): with seed ^ i,
    seed 0 and seed 1 scored a corpus of one sequence twice identically."""
    corpus = tmp_path / "twice.txt"
    write_corpus(corpus, vocab3, [(0, 0), (0, 0)])
    nelbos = []
    for seed in ("0", "1"):
        argv = ["nelbo", "--dist", dist_file, "--corpus", str(corpus), "--num-mc", "4"]
        code, out, _ = run(capsys, argv + ["--seed", seed])
        assert code == 0
        nelbos.append(json.loads(out)["nelbo"])
    assert nelbos[0] != nelbos[1]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_range_is_usage_error(capsys, tmp_path, corpus_file, dist_file, seed):
    """Every command checks the seed before it reads a sequence; `noise` used
    to pass 2**64 to default_rng, and an empty corpus never reached a check."""
    empty = tmp_path / "empty.txt"
    empty.write_text("3 2 2\n")
    for argv in (
        ["noise", "--corpus", corpus_file, "--t", "0.5"],
        ["nelbo", "--corpus", corpus_file, "--dist", dist_file],
        ["nelbo", "--corpus", str(empty), "--dist", dist_file],
        ["sample", "--dist", dist_file, "--count", "1", "--out", str(tmp_path / "s.txt")],
    ):
        code, out, err = run(capsys, argv + ["--seed", seed])
        assert code == 1
        assert out == ""
        assert "seed must lie in [0, 2**64)" in err


def test_missing_file_is_data_error(capsys):
    code, _, _ = run(capsys, ["noise", "--corpus", "/no/such/file", "--t", "0.5"])
    assert code == 2


@pytest.mark.parametrize("denoiser", ["dist", "table"])
def test_nelbo_of_a_corpus_holding_the_mask_id_is_data_error(
    capsys, tmp_path, five_outcome, denoiser
):
    """A corpus row that holds the mask id is not clean data; `nelbo` used to
    score it and exit 0."""
    path, vocab = tmp_path / "denoiser.txt", five_outcome.vocab
    if denoiser == "dist":
        five_outcome.save(str(path))
    else:
        table, sched = mixdiff.LogitTable(vocab, 3), mixdiff.make_schedule("mask", vocab)
        mixdiff.table_train(five_outcome, sched, table, 20)
        table.save(str(path))
    corpus = tmp_path / "corpus.txt"
    write_corpus(corpus, vocab, [(0, 1, 4), (1, 2, 3)])
    code, stdout, err = run(capsys, ["nelbo", "--corpus", str(corpus), f"--{denoiser}", str(path)])
    assert (code, stdout) == (2, "")
    assert err == "error: NELBO requires a fully denoised sequence\n"


def test_degenerate_evidence_names_the_row_and_time(capsys, tmp_path, dist_file, vocab3):
    """Under the mask schedule a clean row outside the support has zero
    likelihood under every outcome; the error used to name neither the row
    nor the time."""
    corpus, out = tmp_path / "corpus.txt", tmp_path / "out.txt"
    write_corpus(corpus, vocab3, [(0, 0), (0, 1)])
    argv = ["self-correct", "--dist", dist_file, "--corpus", str(corpus), "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (2, "")
    msg = "noisy sequence [0, 1] at t = 0.0001 has zero likelihood under every outcome"
    assert err == f"error: {msg}\n"
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["noise"])  # missing required --corpus
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_nelbo_reports_config(capsys, corpus_file, dist_file):
    code, out, _ = run(
        capsys,
        ["nelbo", "--corpus", corpus_file, "--dist", dist_file, "--num-mc", "16"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nelbo"] >= 0.0
    assert payload["ppl"] == pytest.approx(math.exp(payload["nelbo"]))
    assert payload["sequences"] == 3
    assert payload["config"]["num_mc"] == 16
    assert payload["config"]["schedule"] == "mask"


def test_nelbo_requires_denoiser(capsys, corpus_file):
    code, _, _ = run(capsys, ["nelbo", "--corpus", corpus_file])
    assert code == 2


def test_sample_round_trip(capsys, tmp_path, dist_file):
    out_path = tmp_path / "samples.txt"
    argv = [
        "sample",
        "--dist",
        dist_file,
        "--schedule",
        "hybrid",
        "--p-u",
        "0.05",
        "--count",
        "32",
        "--steps",
        "32",
        "--seed",
        "3",
        "--out",
        str(out_path),
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["sample_count"] == 32
    assert 0.0 <= payload["tv_distance"] <= 1.0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "3 2 2"
    assert len(lines) == 33

    # determinism: identical invocation, identical output
    code, out2, _ = run(capsys, argv)
    assert out2 == out


def test_sample_out_directory_is_data_error(capsys, tmp_path, dist_file):
    argv = [
        "sample",
        "--dist",
        dist_file,
        "--schedule",
        "hybrid",
        "--p-u",
        "0.05",
        "--count",
        "4",
        "--out",
        str(tmp_path),
    ]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "data error" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sample_bad_count_is_usage_error(capsys, tmp_path, dist_file, count):
    out = tmp_path / "samples.txt"
    argv = ["sample", "--dist", dist_file, "--count", count, "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 1
    assert stdout == ""
    assert err == f"usage error: count must be >= 1 and an integer, got {count}\n"
    assert not out.exists()


@pytest.mark.xfail(
    strict=True,
    reason="under mask the oracle meets a noisy row no outcome explains and the "
    "command exits 2 (ROADMAP item 2)",
)
def test_sample_mask_two_outcome(capsys, tmp_path, dist_file):
    out = tmp_path / "samples.txt"
    argv = ["sample", "--dist", dist_file, "--schedule", "mask", "--count", "64",
            "--steps", "4", "--out", str(out)]
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")


def test_sample_mask_table_carries_a_revealed_token_over(capsys, tmp_path, five_outcome):
    """A mask-trained table whose argmax misses a revealed token left that
    position's posterior no support, and the command exited 2 with
    "reverse-step posterior has no support"; masking never changes a revealed
    token, so the token carries over."""
    dist, table, out = (str(tmp_path / name) for name in ("dist.txt", "table.txt", "out.txt"))
    five_outcome.save(dist)
    argv = ["train", "--dist", dist, "--schedule", "mask", "--steps", "300", "--out", table]
    assert run(capsys, argv)[0] == 0
    argv = ["sample", "--table", table, "--schedule", "mask", "--temperature", "1e-12",
            "--steps", "8", "--count", "200", "--out", out]
    code, stdout, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(stdout)["mask_fraction"] == 0.0


def test_train_then_nelbo_with_table(capsys, tmp_path, dist_file, corpus_file):
    table_path = tmp_path / "table.txt"
    code, out, _ = run(
        capsys,
        [
            "train",
            "--dist",
            dist_file,
            "--schedule",
            "hybrid",
            "--p-u",
            "0.2",
            "--mode",
            "clamp",
            "--steps",
            "60",
            "--out",
            str(table_path),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["table_entries"] > 0
    assert payload["loss_trajectory"][-1] < payload["loss_trajectory"][0]

    code, out, _ = run(
        capsys,
        [
            "nelbo",
            "--corpus",
            corpus_file,
            "--table",
            str(table_path),
            "--schedule",
            "hybrid",
            "--p-u",
            "0.2",
            "--num-mc",
            "8",
        ],
    )
    assert code == 0
    assert json.loads(out)["nelbo"] >= 0.0


def test_self_correct_command(capsys, tmp_path, vocab3):
    dist = ToyDistribution(
        vocab3, 4, (((0, 0, 0, 0), 0.5), ((1, 1, 1, 1), 0.5))
    )
    dist_path = tmp_path / "dist4.txt"
    dist.save(str(dist_path))
    corpus_path = tmp_path / "corrupted.txt"
    write_corpus(corpus_path, vocab3, [(0, 1, 0, 0), (1, 1, 0, 1)])
    out_path = tmp_path / "fixed.txt"
    code, out, _ = run(
        capsys,
        [
            "self-correct",
            "--corpus",
            str(corpus_path),
            "--dist",
            str(dist_path),
            "--schedule",
            "hybrid",
            "--p-u",
            "0.2",
            "--temperature",
            "0.1",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["edits"] >= 2
    assert payload["self_accuracy_after"] >= payload["self_accuracy_before"]
    assert payload["generative_nll_after"] < payload["generative_nll_before"]
    lines = out_path.read_text().strip().splitlines()
    assert lines[1:] == ["0 0 0 0", "1 1 1 1"]


def test_oracle_eval(capsys, dist_file):
    code, out, _ = run(
        capsys,
        ["oracle-eval", "--dist", dist_file, "--schedule", "hybrid", "--p-u", "0.2", "--num-mc", "64"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_nll"] == pytest.approx(math.log(2))
    assert payload["oracle_nelbo"] >= payload["exact_nll"] - 0.2


def test_weights_csv(capsys):
    code, out, _ = run(
        capsys,
        ["weights-csv", "--schedule", "hybrid", "--p-u", "0.2", "--grid-size", "101"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,w_mask,w_uniform,w_clean,log_snr"
    rows = {float(ln.split(",")[0]): [float(v) for v in ln.split(",")[1:]] for ln in lines[1:]}
    mid = rows[0.5]
    assert mid[0] == pytest.approx(4.0)
    assert mid[1] == pytest.approx(2.0)
    assert mid[2] == pytest.approx(2.0 / 9.0, abs=1e-4)
    assert mid[3] == pytest.approx(math.log(2 / 3), abs=1e-9)
    # sha256 recorded when log_snr became numpy's log and log1p
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3fb654176cd7b6ccc292d8c99aef2f60a248511eaf8296414419bbb7cc9f0c82"
    )


@pytest.mark.parametrize("size", ["0", "-1"])
def test_weights_csv_bad_grid_size_is_usage_error(capsys, size):
    """--grid-size 0 used to exit 0 with a header and no rows, and -1 to exit
    with numpy's linspace message."""
    code, out, err = run(capsys, ["weights-csv", "--grid-size", size])
    assert code == 1
    assert out == ""
    assert err == f"usage error: grid_size must be >= 1 and an integer, got {size}\n"


def test_weights_csv_mask_only_zero_columns(capsys):
    code, out, _ = run(capsys, ["weights-csv", "--schedule", "mask", "--grid-size", "21"])
    assert code == 0
    for ln in out.strip().splitlines()[1:]:
        _, _, w_uniform, w_clean, _ = (float(v) for v in ln.split(","))
        assert w_uniform == 0.0
        assert w_clean == 0.0


def test_config_file_and_flag_precedence(capsys, tmp_path, dist_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("schedule=hybrid\np_u=0.2\ngrid_size=11\n")
    code, out, _ = run(capsys, ["weights-csv", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 12
    # explicit flag wins over the file value
    code, out, _ = run(capsys, ["weights-csv", "--config", str(cfg), "--grid-size", "5"])
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_config_file_unknown_key(capsys, tmp_path, dist_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume=11\n")
    code, out, err = run(
        capsys, ["nelbo", "--corpus", dist_file, "--dist", dist_file, "--config", str(cfg)]
    )
    assert code == 2
    assert "volume" in err


@pytest.mark.parametrize("text, key", [("seed=abc\n", "seed"), ("# run\n\np_u=high\n", "p_u")])
def test_config_file_bad_value_is_data_error(capsys, tmp_path, dist_file, text, key):
    """`seed=abc` used to exit 1 naming neither the line nor the key."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run(
        capsys, ["nelbo", "--corpus", dist_file, "--dist", dist_file, "--config", str(cfg)]
    )
    assert code == 2
    assert out == ""
    line = len(text.splitlines())
    assert f"data error: line {line}: bad value for {key!r}" in err


def test_config_file_line_without_equals_is_data_error(capsys, tmp_path, dist_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nnum_mc 4\n")
    code, out, err = run(
        capsys, ["nelbo", "--corpus", dist_file, "--dist", dist_file, "--config", str(cfg)]
    )
    assert code == 2
    assert out == ""
    assert err == "data error: line 2: expected key=value\n"


def test_verify_command(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 16
    assert all(c["passed"] for c in payload["checks"])


def test_verify_same_bytes(capsys):
    """stdout sha256 recorded when forward_kernel_nonnegative joined the checks."""
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "855b7baa1e953237704e08339b52f2f202f489b24e3ae11d040b00e6f0394c0e"
    )


def test_verify_fails_when_a_closed_form_is_off(capsys):
    """With alpha_t' 0.1% too large, so that the generator's diagonal
    alpha_t'/alpha_t is too, verify exits 3 and names the checks that see it."""
    alpha_prime = Terms.alpha_prime.fget
    off = property(lambda terms: 1.001 * alpha_prime(terms))
    with mock.patch.object(Terms, "alpha_prime", off):
        code, out, _ = run(capsys, ["verify"])
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert {"forward_rate_fd", "generator_rows_sum_zero"} <= failed
    assert "chapman_kolmogorov" not in failed


def test_verify_fails_when_the_forward_kernel_is_not_clamped(capsys):
    """Without the clamp at 0 in Terms.to, beta_pi_ts rounds below 0 at times
    a few ulps apart under hybrid noise: verify exits 3, and only
    forward_kernel_nonnegative sees it."""
    to = Terms.to

    def unclamped(self, later):
        a_ts = to(self, later).alpha_ts
        return ConditionalTransition(a_ts, later.beta_pi - (a_ts * self.beta_pi.T).T)

    with mock.patch.object(Terms, "to", unclamped):
        code, out, _ = run(capsys, ["verify"])
    assert code == 3
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["forward_kernel_nonnegative"]


def test_self_correct_zero_iterations_is_usage_error(capsys, tmp_path, dist_file, corpus_file):
    out = tmp_path / "fixed.txt"
    argv = ["self-correct", "--corpus", corpus_file, "--dist", dist_file]
    code, stdout, err = run(capsys, argv + ["--max-iters", "0", "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert "usage error: max_iters must be >= 1" in err
    assert not out.exists()


# The pinned corpus commands run on the five-outcome distribution over
# Vocab(5, 4), a logit table trained on it, and two corpora: outcomes only
# (the mask schedule's oracle accepts no other evidence) and outcomes with
# corrupted tokens.
PIN_VOCAB = Vocab(5, 4)
PIN_OUTCOMES = ((0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 0, 0))
PIN_CLEAN = [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 0, 0), (1, 2, 3), (0, 0, 0)]
PIN_NOISY = [
    (0, 1, 3), (1, 1, 3), (2, 3, 0), (3, 0, 0), (0, 0, 1),
    (2, 2, 2), (1, 2, 3), (3, 3, 0), (0, 1, 2), (1, 0, 0),
]


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    from mixdiff import LogitTable, make_schedule, table_train

    root = tmp_path_factory.mktemp("pinned")
    dist = ToyDistribution(PIN_VOCAB, 3, tuple(zip(PIN_OUTCOMES, (0.3, 0.25, 0.2, 0.15, 0.1))))
    dist.save(str(root / "dist.txt"))
    table = LogitTable(PIN_VOCAB, 3)
    table_train(dist, make_schedule("hybrid", PIN_VOCAB, p_u=0.2), table, 200, seed=3)
    table.save(str(root / "table.txt"))
    write_corpus(root / "clean.txt", PIN_VOCAB, PIN_CLEAN)
    write_corpus(root / "noisy.txt", PIN_VOCAB, PIN_NOISY)
    return root


HYBRID = ["--schedule", "hybrid", "--p-u", "0.2"]
# a prediction unsure enough that rows stop by patience and by max_iters
UNSURE = ["--temperature", "1", "--t-condition", "0.6"]
# (command, denoiser, corpus, flags): sha256 of stdout and of the --out file,
# recorded when the commands scored and corrected one sequence per call; the
# `nelbo table` entries when table_train became minibatch descent, since the
# fixture trains the table.
CORPUS_COMMAND_PINS = {
    ("nelbo", "dist", "clean", ()): (
        "899c97d88d98d1d685a23334ebc8dc3be0d4a6ffb4bdfc20f73f3dc328e93fa6",
        None,
    ),
    ("nelbo", "table", "noisy", ()): (
        "5f1a080de6c74a986220e077c82102d9c2c4682ccf8e36bd1bb49b486277303c",
        None,
    ),
    ("nelbo", "dist", "noisy", (*HYBRID,)): (
        "30fff46d1118db1e2e5aad37edf239e19e2785f094b3a80dd2c61f0ecdda53b7",
        None,
    ),
    ("nelbo", "table", "noisy", (*HYBRID,)): (
        "60f9e21bbd2cb272169fada0f7e210425066b09bc45aebf293d4356a9fd8115e",
        None,
    ),
    ("nelbo", "table", "noisy", (*HYBRID, "--mode", "clamp")): (
        "fb799dc7b44515b8fe9b32a99ee0096498b65fa6ceb303d5a11c7592a289ac75",
        None,
    ),
    ("self-correct", "dist", "clean", ()): (
        "c819c5cafaf5e756d6034d56b87797324fde44313d5680163213176f7e77a27d",
        "8d2a7e0542cf29cc910c5d9aa8f14f3fdac12d54a6c798eb344b828d236d6f6d",
    ),
    ("self-correct", "table", "noisy", ("--patience", "3", *UNSURE)): (
        "94d1edd936e23e5c26c34556b80f80841610a31cba1c6fe601fa038a1608e9d3",
        "a3c9efea122aff7ec8fc4721ccfa36048460eab0e398f7ad0cd3bd3469e6eb50",
    ),
    ("self-correct", "dist", "noisy", (*HYBRID,)): (
        "b655e7dffc5d4b3f5067cc37b650dd0e6bcef48641333c7226c9eb4214ff36b8",
        "c001b0d7b25b3d00b81e29ce4a040121b0d58787bf01f22bce64d70df31e25ea",
    ),
    ("self-correct", "table", "noisy", (*HYBRID, "--max-iters", "5", *UNSURE)): (
        "d67b28a97ff0e8d6b76dbd60f564b2b10134f4d96d6e1d0a243e8d307b89c458",
        "a3c9efea122aff7ec8fc4721ccfa36048460eab0e398f7ad0cd3bd3469e6eb50",
    ),
    ("oracle-eval", "dist", None, ()): (
        "5f91fcbdaeaedba73257e00e6ccb383c9edb039b6a8f5cab5f358c9d4149f50d",
        None,
    ),
    ("oracle-eval", "dist", None, (*HYBRID,)): (
        "863f53bfd578c52c1dc581a9db5bb6a56ecf7178102cbe9df2f16697d004e888",
        None,
    ),
}


@pytest.mark.parametrize(
    "case", list(CORPUS_COMMAND_PINS), ids=lambda c: " ".join(v for v in (*c[:3], *c[3]) if v)
)
def test_corpus_commands_same_bytes(capsys, tmp_path, pinned_inputs, case):
    command, denoiser, corpus, flags = case
    argv = [command, f"--{denoiser}", str(pinned_inputs / f"{denoiser}.txt"), "--seed", "11"]
    argv += ["--temperature", "0.1"] if command == "self-correct" else ["--num-mc", "16"]
    if corpus is not None:
        argv += ["--corpus", str(pinned_inputs / f"{corpus}.txt")]
    out = tmp_path / "out.txt"
    if command == "self-correct":
        argv += ["--out", str(out)]
    code, stdout, err = run(capsys, argv + list(flags))
    assert code == 0, err
    got = (
        hashlib.sha256(stdout.encode()).hexdigest(),
        hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None,
    )
    assert got == CORPUS_COMMAND_PINS[case]


class _Reads:
    """An object's attributes, recording the name of each one read."""

    def __init__(self, target, reads):
        self._target, self._reads = target, reads

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._target, name)


class _ReadsDict(dict):
    """A dict recording each key read by subscript; dict.copy(...) reads without recording."""

    def __init__(self, values, reads):
        super().__init__(values)
        self._reads = reads

    def __getitem__(self, key):
        self._reads.add(key)
        return super().__getitem__(key)


def _accepted_flags():
    """{command: set of the dests of its flags} as the parser accepts them."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
        for command, p in sub.choices.items()
    }


def test_every_accepted_flag_is_read(capsys, tmp_path, monkeypatch, pinned_inputs):
    """Each command reads every flag it accepts, on some valid invocation: an
    argument of its own, or a config key outside the JSON echo of the config.
    `--config` counts as read when the command reads a config key. `verify`
    used to take eight flags it never read, and `sample --mode clamp` exited
    0 reporting a mode that changed nothing."""
    dist, table, corpus = (
        str(pinned_inputs / f"{name}.txt") for name in ("dist", "table", "clean")
    )
    out = str(tmp_path / "out.txt")
    invocations = [
        ["noise", "--corpus", corpus, "--t", "0.5"],
        ["nelbo", "--corpus", corpus, "--dist", dist, "--num-mc", "2"],
        ["nelbo", "--corpus", corpus, "--table", table, "--num-mc", "2"],
        ["sample", "--dist", dist, "--count", "2", "--steps", "2", "--out", out, *HYBRID],
        ["sample", "--table", table, "--count", "2", "--steps", "2", "--out", out],
        ["self-correct", "--corpus", corpus, "--dist", dist, "--out", out],
        ["self-correct", "--corpus", corpus, "--table", table, "--out", out],
        ["train", "--dist", dist, "--steps", "2", "--out", out],
        ["oracle-eval", "--dist", dist, "--num-mc", "2"],
        ["verify"],
        ["weights-csv", "--grid-size", "3"],
    ]
    echo = cli.emit_json
    monkeypatch.setattr(cli, "emit_json", lambda payload, cfg: echo(payload, dict.copy(cfg)))
    accepted = _accepted_flags()
    read = {command: set() for command in accepted}
    for argv in invocations:
        args = cli.build_parser().parse_args(argv)
        arg_reads, cfg_reads = set(), set()
        code = args.func(_Reads(args, arg_reads), _ReadsDict(cli.resolve_config(args), cfg_reads))
        assert code == 0, argv
        read[argv[0]] |= arg_reads | cfg_reads | ({"config"} if cfg_reads else set())
    assert {command: accepted[command] - read[command] for command in accepted} == {
        command: set() for command in accepted
    }
    assert sum(map(len, accepted.values())) == 78


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--dist", "d.txt", "--out", "o.txt", "--mode", "clamp"],
        ["self-correct", "--corpus", "c.txt", "--dist", "d.txt", "--out", "o.txt", "--w-max", "2"],
        ["weights-csv", "--grid", "3"],
        ["weights-csv", "--seed", "3"],
        ["verify", "--seed", "3"],
        ["sample", "--dist", "d.txt", "--out", "o.txt", "--min", "0.1"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a.startswith("-") or a == argv[0]),
)
def test_flag_a_command_does_not_read_is_usage_error(capsys, argv):
    """A flag a command does not read, or a prefix of one it does, exits 1
    before any file is opened: `--grid 3` used to stand for `--grid-size 3`."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


def _misfit_argv(tmp_path, dist_file, command, denoiser, corpus_text):
    """argv of `command` on a corpus file of corpus_text against the two-outcome
    distribution over Vocab(3, 2), or an empty table of that vocabulary, of length 2."""
    from mixdiff import LogitTable

    table = tmp_path / "table.txt"
    LogitTable(Vocab(3, 2), 2).save(str(table))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(corpus_text)
    argv = [command, "--corpus", str(corpus)]
    argv += ["--dist", dist_file] if denoiser == "dist" else ["--table", str(table)]
    return argv + (["--out", str(tmp_path / "out.txt")] if command == "self-correct" else [])


@pytest.mark.parametrize("command", ["nelbo", "self-correct"])
@pytest.mark.parametrize("denoiser", ["dist", "table"])
@pytest.mark.parametrize(
    "corpus_text, named",
    [
        ("4 2 3\n0 3\n", "length 2 over Vocab(size=4, mask_id=3)"),
        ("3 3 2\n0 1 0\n1 1 1\n", "length 3 over Vocab(size=3, mask_id=2)"),
    ],
    ids=["vocab", "length"],
)
def test_corpus_that_does_not_fit_the_denoiser_is_data_error(
    capsys, tmp_path, dist_file, command, denoiser, corpus_text, named
):
    """A corpus header must match the denoiser's vocabulary and length: a
    larger vocabulary used to end in an IndexError traceback (self-correct)
    or a usage error (nelbo), a longer sequence in numpy's broadcast error."""
    argv = _misfit_argv(tmp_path, dist_file, command, denoiser, corpus_text)
    code, stdout, err = run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("data error: corpus of ")
    assert named in err
    assert "denoiser of length 2 over Vocab(size=3, mask_id=2)" in err
    assert not (tmp_path / "out.txt").exists()


# `python -m mixdiff.cli` in a fresh interpreter that imports this checkout
CLI = [sys.executable, "-m", "mixdiff.cli"]
CLI_ENV = {"PYTHONPATH": str(Path(mixdiff.__file__).parents[1]), "PATH": ""}


def test_corpus_that_does_not_fit_exits_without_traceback(tmp_path, dist_file):
    argv = _misfit_argv(tmp_path, dist_file, "self-correct", "dist", "4 2 3\n0 3\n")
    proc = subprocess.run([*CLI, *argv], capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "does not fit the denoiser" in proc.stderr
    assert not (tmp_path / "out.txt").exists()


def test_closed_stdout_is_not_an_error():
    """`mixdiff weights-csv --grid-size 100000 | head -1` used to print
    "data error: [Errno 32] Broken pipe" and exit 2: a reader that stops
    early is not a data error."""
    argv = ["weights-csv", "--grid-size", "100000"]
    proc = subprocess.Popen(
        [*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CLI_ENV
    )
    assert proc.stdout.readline() == "t,w_mask,w_uniform,w_clean,log_snr\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert err == ""


def test_out_file_whose_reader_leaves_is_a_data_error(tmp_path, dist_file):
    """Only a closed stdout exits 0: a FIFO given as --out whose reader stops
    early is still a broken output file."""
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # 50,000 rows are 200 kB, more than a pipe buffer holds
    argv = ["sample", "--dist", dist_file, "--schedule", "hybrid", "--p-u", "0.2",
            "--count", "50000", "--steps", "2", "--out", str(fifo)]
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open cannot block
    try:
        proc = subprocess.Popen(
            [*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CLI_ENV
        )
        assert select.select([reader], [], [], 60)[0]
        assert os.read(reader, 4) == b"3 2 "
    finally:
        os.close(reader)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == ""
    assert err == "data error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "kind, what, data, line",
    [
        ("corpus", "corpus", b"5 3 4\n0 1 2\n1 \xff 3\n", 3),
        ("dist", "distribution file", b"5 3 4\n0.5 0 1 2\n\n\xff0.5 1 2 3\n", 4),
        ("table", "table file", b"5 3 4 8 0.0001 0.5\xff\n", 1),
    ],
    ids=["corpus", "dist", "table"],
)
def test_byte_that_is_not_utf8_is_data_error(capsys, tmp_path, pinned_inputs, kind, what, data,
                                             line):
    """A 0xff byte in a record file used to exit 1 as "usage error: 'utf-8'
    codec can't decode ..."; it is a data error naming its line."""
    bad = tmp_path / f"{kind}.txt"
    bad.write_bytes(data)
    out = tmp_path / "samples.txt"
    argv = {
        "corpus": ["nelbo", "--dist", str(pinned_inputs / "dist.txt"), "--corpus", str(bad)],
        "dist": ["sample", "--dist", str(bad), "--out", str(out)],
        "table": ["nelbo", "--table", str(bad), "--corpus", str(pinned_inputs / "clean.txt")],
    }[kind]
    code, stdout, err = run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"data error: line {line}: bad {what}: 'utf-8' codec can't decode byte")
    assert not out.exists()


def test_config_file_with_a_byte_that_is_not_utf8_is_data_error(capsys, tmp_path, dist_file):
    """A config file is read as UTF-8 line by line, like the record files."""
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=1\n# caf\xe9\nnum_mc=4\n")
    code, stdout, err = run(
        capsys, ["nelbo", "--corpus", dist_file, "--dist", dist_file, "--config", str(cfg)]
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("data error: line 2: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--corpus", ["noise", "--t", "0.5", "--seed", "3"]),
        ("--dist", ["oracle-eval", "--num-mc", "4"]),
        ("--table", ["nelbo", "--corpus", "noisy.txt", "--num-mc", "4"]),
    ],
)
def test_dash_reads_standard_input(capsys, pinned_inputs, flag, argv):
    """`-` for --corpus, --dist or --table reads that file from a pipe; stdout
    is what the run that names the file prints."""
    path = pinned_inputs / {"--corpus": "clean.txt", "--dist": "dist.txt"}.get(flag, "table.txt")
    argv = [str(pinned_inputs / v) if v.endswith(".txt") else v for v in argv]
    code, expected, err = run(capsys, [*argv, flag, str(path)])
    assert code == 0, err
    proc = subprocess.run(
        [*CLI, *argv, flag, "-"], input=path.read_text(), capture_output=True, text=True,
        env=CLI_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
