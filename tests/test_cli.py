import json
import math

import numpy as np
import pytest

from mixdiff import ToyDistribution, Vocab
from mixdiff.cli import main


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


def test_noise_missing_time_is_data_error(capsys, corpus_file):
    code, _, err = run(capsys, ["noise", "--corpus", corpus_file])
    assert code == 2


def test_bad_corpus_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2 2\n0 zero\n")
    code, _, err = run(capsys, ["noise", "--corpus", str(bad), "--t", "0.5"])
    assert code == 2
    assert "line 2" in err


def test_missing_file_is_data_error(capsys):
    code, _, _ = run(capsys, ["noise", "--corpus", "/no/such/file", "--t", "0.5"])
    assert code == 2


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


def test_verify_command(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 15
    assert all(c["passed"] for c in payload["checks"])
