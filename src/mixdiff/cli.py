"""Command-line surface.

Subcommands: noise, nelbo, sample, self-correct, train, oracle-eval, verify,
weights-csv. Numeric results are emitted as a single JSON object on stdout
(full double-precision round-trip formatting); corpora are plain text with a
`N L mask_id` header and one space-separated sequence per line.

Exit codes: 0 success, also when the reader of stdout closes it early (as
`| head` does), 1 usage error, 2 data error, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import sys

import numpy as np

from .denoiser import (
    LogitTable, OracleDenoiser, ToyDistribution, read_corpus, table_train, write_corpus
)
from .elbo import WeightingMode, corpus_nelbo, noise_sequence
from .errors import CorpusFormatError, MixdiffError
from .metrics import generative_nll, tv_distance, unigram_entropy
from .sampler import (
    SamplerConfig,
    SelfCorrectConfig,
    ancestral_sample_batch,
    derive_seeds,
    self_correct_batch,
)
from .schedule import DEFAULT_EPS_T, LOG_FLOOR, Vocab, check_count, check_seed, make_schedule

USAGE_ERROR, DATA_ERROR, INVARIANT_FAILURE = 1, 2, 3

DEFAULTS = {
    "schedule": "mask",
    "p_u": 0.0,
    "gamma": 1.0,
    "eps_t": DEFAULT_EPS_T,
    "seed": 0,
    "mode": "exact",
    "w_max": 1.0,
    "t_buckets": 8,
    "num_mc": 64,
    "steps": 128,
    "lr": 0.5,
    "batch": 64,
    "count": 16,
    "temperature": 1.0,
    "min_p": 0.0,
    "patience": 32,
    "max_iters": 256,
    "grid_size": 101,
}

# keys accepted in a key=value config file and their types; CLI flags override file
# values. t_condition has no fixed default: resolve_config sets it to eps_t when unset.
CONFIG_KEYS = {key: type(value) for key, value in DEFAULTS.items()} | {"t_condition": float}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def read_fitting_corpus(path: str, vocab: Vocab, length: int) -> np.ndarray:
    """The (S, L) sequences of a corpus whose header matches the denoiser's
    vocabulary and sequence length; a mismatch is a data error."""
    corpus_vocab, seqs = read_corpus(path)
    if (corpus_vocab, len(seqs[0])) != (vocab, length):
        raise CorpusFormatError(
            f"corpus of length {len(seqs[0])} over {corpus_vocab} does not fit the "
            f"denoiser of length {length} over {vocab}"
        )
    return np.array(seqs)


def load_config_file(path: str) -> dict:
    """The key=value lines of a UTF-8 config file; `#` starts a comment line."""
    values = {}
    with open(path, "rb") as fh:
        for lineno, ln in enumerate(fh.read().splitlines(), start=1):
            try:
                ln = ln.decode().strip()
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(str(exc), line=lineno) from exc
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise CorpusFormatError("expected key=value", line=lineno)
            key, _, raw = ln.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise CorpusFormatError(f"unknown config key {key!r}", line=lineno)
            try:
                values[key] = CONFIG_KEYS[key](raw.strip())
            except ValueError as exc:
                raise CorpusFormatError(f"bad value for {key!r}: {exc}", line=lineno) from exc
    return values


def resolve_config(args) -> dict:
    """defaults < config file < explicit CLI flags; main passes it to the command."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.setdefault("t_condition", cfg["eps_t"])
    check_seed(cfg["seed"])
    return cfg


def build_schedule(cfg: dict, vocab: Vocab):
    return make_schedule(
        cfg["schedule"], vocab, p_u=cfg["p_u"], gamma=cfg["gamma"], eps_t=cfg["eps_t"]
    )


def weighting_mode(cfg: dict) -> WeightingMode:
    return WeightingMode(cfg["mode"], w_max=cfg["w_max"])


def emit_json(payload: dict, cfg: dict) -> None:
    payload = dict(payload)
    payload["config"] = {k: cfg[k] for k in sorted(cfg) if cfg[k] is not None}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def load_denoiser(args, cfg):
    """Returns (denoiser, vocab, length, dist-or-None, schedule) of --dist, else of --table."""
    if args.dist is not None:
        dist = ToyDistribution.load(args.dist)
        sched = build_schedule(cfg, dist.vocab)
        return OracleDenoiser(dist, sched), dist.vocab, dist.length, dist, sched
    table = LogitTable.load(args.table)
    sched = build_schedule(cfg, table.vocab)
    return table, table.vocab, table.length, None, sched


# ---------------------------------------------------------------- commands


def cmd_noise(args, cfg: dict) -> int:
    times = [float(v) for v in args.t.split(",")]
    vocab, seqs = read_corpus(args.corpus)
    sched = build_schedule(cfg, vocab)
    rng = np.random.default_rng(cfg["seed"])
    # sequence j at time i is row i * len(seqs) + j: the draws of one call per time in turn
    out = noise_sequence(sched, np.tile(seqs, (len(times), 1)), np.repeat(times, len(seqs)), rng)
    write_corpus(sys.stdout, vocab, len(seqs[0]), out)
    return 0


def cmd_nelbo(args, cfg: dict) -> int:
    denoiser, vocab, length, _, sched = load_denoiser(args, cfg)
    seqs = read_fitting_corpus(args.corpus, vocab, length)
    seeds = derive_seeds(cfg["seed"], len(seqs))
    ests = corpus_nelbo(sched, seqs, denoiser, cfg["num_mc"], seeds, weighting_mode(cfg))
    mean = float(np.mean([est.mean_per_token for est in ests]))
    se = float(math.sqrt(sum(est.std_error**2 for est in ests)) / len(ests))
    emit_json(
        {"nelbo": mean, "ppl": math.exp(mean), "std_error": se, "sequences": len(seqs)},
        cfg,
    )
    return 0


def cmd_sample(args, cfg: dict) -> int:
    denoiser, vocab, length, dist, sched = load_denoiser(args, cfg)
    sampler_cfg = SamplerConfig(
        num_steps=cfg["steps"],
        temperature=cfg["temperature"],
        min_p=cfg["min_p"],
        seed=cfg["seed"],
    )
    samples = ancestral_sample_batch(sched, length, denoiser, sampler_cfg, cfg["count"])
    with open(args.out, "w") as fh:
        write_corpus(fh, vocab, length, samples)
    payload = {
        "sample_count": int(len(samples)),
        "unigram_entropy": float(np.mean(unigram_entropy(samples))),
        "mask_fraction": float(np.mean(samples == vocab.mask_id)),
    }
    if dist is not None:
        nll, out_of_support = generative_nll(samples, dist)
        payload["generative_nll"] = nll
        payload["out_of_support"] = out_of_support
        payload["tv_distance"] = tv_distance(samples, dist)
    emit_json(payload, cfg)
    return 0


def cmd_self_correct(args, cfg: dict) -> int:
    denoiser, vocab, length, dist, sched = load_denoiser(args, cfg)
    seqs = read_fitting_corpus(args.corpus, vocab, length)
    sc_cfg = SelfCorrectConfig(
        temperature=cfg["temperature"],
        max_iters=cfg["max_iters"],
        patience=cfg["patience"],
        t_condition=cfg["t_condition"],
    )
    seeds = derive_seeds(cfg["seed"], len(seqs))
    results = self_correct_batch(seqs, denoiser, sc_cfg, vocab.mask_id, seeds)
    corrected = np.array([result.sequence for result in results])
    with open(args.out, "w") as fh:
        write_corpus(fh, vocab, length, corrected)
    # a row's first self-accuracy is its input's, and its best is its output's
    accs = [result.self_accuracy_trajectory for result in results]
    payload = {
        "edits": sum(result.edits for result in results),
        "self_accuracy_before": float(np.mean([acc[0] for acc in accs])),
        "self_accuracy_after": float(np.mean([max(acc) for acc in accs])),
    }
    if dist is not None:
        payload["generative_nll_before"], _ = generative_nll(seqs, dist, floor=LOG_FLOOR)
        payload["generative_nll_after"], _ = generative_nll(corrected, dist, floor=LOG_FLOOR)
    emit_json(payload, cfg)
    return 0


def cmd_train(args, cfg: dict) -> int:
    dist = ToyDistribution.load(args.dist)
    sched = build_schedule(cfg, dist.vocab)
    table = LogitTable(
        dist.vocab,
        dist.length,
        t_buckets=cfg["t_buckets"],
        eps_t=cfg["eps_t"],
        learning_rate=cfg["lr"],
    )
    report = table_train(
        dist,
        sched,
        table,
        steps=cfg["steps"],
        batch=cfg["batch"],
        mode=weighting_mode(cfg),
        seed=cfg["seed"],
    )
    table.save(args.out)
    emit_json(
        {
            "final_avg_loss": report.final_avg_loss,
            "loss_trajectory": list(report.loss_trajectory),
            "steps": report.steps,
            "table_entries": len(table.keys),
        },
        cfg,
    )
    return 0


def cmd_oracle_eval(args, cfg: dict) -> int:
    oracle, _, _, dist, sched = load_denoiser(args, cfg)
    seeds = derive_seeds(cfg["seed"], len(dist.outcomes))
    ests = corpus_nelbo(sched, dist.sequences, oracle, cfg["num_mc"], seeds, weighting_mode(cfg))
    nelbo_seq = sum(
        p * est.mean_per_token * dist.length for (_, p), est in zip(dist.outcomes, ests)
    )
    exact = dist.entropy()
    emit_json(
        {"oracle_nelbo": nelbo_seq, "exact_nll": exact, "gap": nelbo_seq - exact}, cfg
    )
    return 0


def cmd_verify(args, cfg: dict) -> int:
    from .verify import run_all  # imported here: no other command needs it

    results = run_all()
    emit_json(
        {"checks": results, "passed": all(r["passed"] for r in results)}, cfg
    )
    return 0 if all(r["passed"] for r in results) else INVARIANT_FAILURE


def cmd_weights_csv(args, cfg: dict) -> int:
    n = args.vocab_size
    vocab = Vocab(n, n - 1)
    sched = build_schedule(cfg, vocab)
    size = check_count("grid_size", cfg["grid_size"])
    grid = np.linspace(sched.eps_t, 1.0 - sched.eps_t, size)
    # given x = 0: the mask, a non-mask token other than x (N >= 3) and x
    w = sched.elbo_weights(grid, 0)[:, [vocab.mask_id, 1, 0]]
    sys.stdout.write("t,w_mask,w_uniform,w_clean,log_snr\n")
    for row in np.column_stack([grid, w, sched.terms(grid).log_snr]).tolist():
        sys.stdout.write(",".join(map(repr, row)) + "\n")
    return 0


# Per command its function, its help and exactly the flags it reads, where a
# trailing "!" marks a required one and "a|b" two of which exactly one is given.
# A flag takes a value of its FLAG_OPTIONS type, else of its CONFIG_KEYS type, else
# text. A config file may also hold keys that only other commands read.
SCHEDULE = "config schedule p-u gamma eps-t"  # the keys build_schedule reads, and their file
COMMANDS = {
    "noise": (cmd_noise, "resample corpus tokens from the forward marginal",
              f"{SCHEDULE} seed corpus! t!"),
    "nelbo": (cmd_nelbo, "Monte Carlo NELBO of a corpus",
              f"{SCHEDULE} seed mode w-max corpus! dist|table num-mc"),
    "sample": (cmd_sample, "ancestral sampling from an all-mask start",
               f"{SCHEDULE} seed dist|table count steps temperature min-p out!"),
    "self-correct": (cmd_self_correct, "fixed-point token resampling",
                     f"{SCHEDULE} seed corpus! dist|table temperature patience max-iters"
                     " t-condition out!"),
    "train": (cmd_train, "train the tabular denoiser",
              f"{SCHEDULE} seed mode w-max dist! steps lr batch t-buckets out!"),
    "oracle-eval": (cmd_oracle_eval, "oracle NELBO vs exact NLL",
                    f"{SCHEDULE} seed mode w-max dist! num-mc"),
    "verify": (cmd_verify, "run all invariant suites", ""),
    "weights-csv": (cmd_weights_csv, "export loss-weight curves",
                    f"{SCHEDULE} vocab-size grid-size"),
}
FLAG_OPTIONS = {
    "config": {"help": "key=value config file"},
    "schedule": {"choices": ["mask", "hybrid"]},
    "mode": {"choices": ["exact", "clamp", "dynamic"]},
    "t": {"help": "a time or comma-separated times"},
    "vocab_size": {"type": int, "default": 5},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="mixdiff", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            names = flag.rstrip("!").split("|")
            group = p.add_mutually_exclusive_group(required=True) if len(names) > 1 else p
            for name in names:
                dest = name.replace("-", "_")
                options = FLAG_OPTIONS.get(dest, {"type": CONFIG_KEYS.get(dest, str)})
                group.add_argument("--" + name, dest=dest, required=flag == name + "!", **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, resolve_config(args))
        sys.stdout.flush()
        return code
    except (CorpusFormatError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # on stdout if poll sees POLLERR there, else on --out
            poller = select.poll()
            poller.register(sys.stdout, select.POLLOUT)
            if any(events & select.POLLERR for _, events in poller.poll(0)):
                # its reader is gone (`| head`); devnull keeps the interpreter's last flush quiet
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 0
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except MixdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
