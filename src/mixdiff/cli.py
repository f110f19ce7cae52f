"""Command-line surface.

Subcommands: noise, nelbo, sample, self-correct, train, oracle-eval, verify,
weights-csv. Numeric results are emitted as a single JSON object on stdout
(full double-precision round-trip formatting); corpora are plain text with a
`N L mask_id` header and one space-separated sequence per line.

Exit codes: 0 success, 1 usage error, 2 data error, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .denoiser import LogitTable, OracleDenoiser, ToyDistribution, table_train
from .elbo import WeightingMode, noise_sequence, sequence_nelbo
from .errors import CorpusFormatError, MixdiffError
from .metrics import generative_nll, self_accuracy, tv_distance, unigram_entropy
from .sampler import SamplerConfig, SelfCorrectConfig, ancestral_sample_batch, self_correct
from .schedule import DEFAULT_EPS_T, Vocab, make_schedule

USAGE_ERROR, DATA_ERROR, INVARIANT_FAILURE = 1, 2, 3

# keys accepted in a key=value config file; CLI flags override file values
CONFIG_KEYS = {
    "schedule": str,
    "p_u": float,
    "gamma": float,
    "eps_t": float,
    "seed": int,
    "mode": str,
    "w_max": float,
    "t_buckets": int,
    "num_mc": int,
    "steps": int,
    "lr": float,
    "batch": int,
    "count": int,
    "temperature": float,
    "min_p": float,
    "patience": int,
    "max_iters": int,
    "t_condition": float,
    "grid_size": int,
    "pu_epsilon": float,
}

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
    "t_condition": DEFAULT_EPS_T,
    "grid_size": 101,
    "pu_epsilon": None,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def read_corpus(path: str) -> tuple[Vocab, list[np.ndarray]]:
    if path == "-":
        lines = [ln.strip() for ln in sys.stdin if ln.strip()]
    else:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise CorpusFormatError("empty corpus")
    try:
        n, length, mask_id = (int(v) for v in lines[0].split())
    except ValueError as exc:
        raise CorpusFormatError(f"bad header: {exc}", line=1) from exc
    vocab = Vocab(n, mask_id)
    seqs = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            seq = np.array([int(v) for v in ln.split()], dtype=np.int64)
        except ValueError as exc:
            raise CorpusFormatError(f"bad sequence: {exc}", line=lineno) from exc
        if seq.size != length:
            raise CorpusFormatError(
                f"sequence has {seq.size} tokens, expected {length}", line=lineno
            )
        if np.any(seq < 0) or np.any(seq >= n):
            raise CorpusFormatError("token id out of range", line=lineno)
        seqs.append(seq)
    return vocab, seqs


def write_corpus(fh, vocab: Vocab, length: int, seqs) -> None:
    fh.write(f"{vocab.size} {length} {vocab.mask_id}\n")
    for seq in seqs:
        fh.write(" ".join(str(int(z)) for z in seq) + "\n")


def load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise CorpusFormatError("expected key=value", line=lineno)
            key, _, raw = ln.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise CorpusFormatError(f"unknown config key {key!r}", line=lineno)
            values[key] = CONFIG_KEYS[key](raw.strip())
    return values


def resolve_config(args) -> dict:
    """defaults < config file < explicit CLI flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def build_schedule(cfg: dict, vocab: Vocab):
    p_u = cfg["p_u"]
    if cfg["schedule"] == "hybrid" and p_u == 0.0 and cfg.get("pu_epsilon"):
        # study mode reproducing the tiny-nonzero uniform-noise workaround
        p_u = cfg["pu_epsilon"]
    return make_schedule(
        cfg["schedule"], vocab, p_u=p_u, gamma=cfg["gamma"], eps_t=cfg["eps_t"]
    )


def weighting_mode(cfg: dict) -> WeightingMode:
    return WeightingMode(cfg["mode"], w_max=cfg["w_max"])


def emit_json(payload: dict, cfg: dict) -> None:
    payload = dict(payload)
    payload["config"] = {k: cfg[k] for k in sorted(cfg) if cfg[k] is not None}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def load_denoiser(args, cfg, schedule_factory):
    """Returns (denoiser, vocab, length, dist-or-None)."""
    if getattr(args, "dist", None):
        dist = ToyDistribution.load(args.dist)
        sched = schedule_factory(dist.vocab)
        return OracleDenoiser(dist, sched), dist.vocab, dist.length, dist, sched
    if getattr(args, "table", None):
        table = LogitTable.load(args.table)
        sched = schedule_factory(table.vocab)
        return table, table.vocab, table.length, None, sched
    raise CorpusFormatError("either --dist or --table is required")


# ---------------------------------------------------------------- commands


def cmd_noise(args) -> int:
    cfg = resolve_config(args)
    vocab, seqs = read_corpus(args.corpus)
    sched = build_schedule(cfg, vocab)
    if args.t_grid:
        times = [float(v) for v in args.t_grid.split(",")]
    else:
        times = [args.t]
    if any(t is None for t in times):
        raise CorpusFormatError("provide --t or --t-grid")
    rng = np.random.default_rng(cfg["seed"])
    length = len(seqs[0]) if seqs else 0
    out = []
    for t in times:
        for seq in seqs:
            out.append(noise_sequence(sched, seq, sched.check_time(t), rng))
    write_corpus(sys.stdout, vocab, length, out)
    return 0


def cmd_nelbo(args) -> int:
    cfg = resolve_config(args)
    denoiser, vocab, _, _, sched = load_denoiser(
        args, cfg, lambda v: build_schedule(cfg, v)
    )
    _, seqs = read_corpus(args.corpus)
    mode = weighting_mode(cfg)
    means, ses = [], []
    for i, seq in enumerate(seqs):
        est = sequence_nelbo(
            sched, seq, denoiser, cfg["num_mc"], seed=cfg["seed"] ^ i, mode=mode
        )
        means.append(est.mean_per_token)
        ses.append(est.std_error)
    mean = float(np.mean(means))
    se = float(math.sqrt(sum(s**2 for s in ses)) / len(ses))
    emit_json(
        {"nelbo": mean, "ppl": math.exp(mean), "std_error": se, "sequences": len(seqs)},
        cfg,
    )
    return 0


def cmd_sample(args) -> int:
    cfg = resolve_config(args)
    denoiser, vocab, length, dist, sched = load_denoiser(
        args, cfg, lambda v: build_schedule(cfg, v)
    )
    sampler_cfg = SamplerConfig(
        num_steps=cfg["steps"],
        eps_t=cfg["eps_t"],
        temperature=cfg["temperature"],
        min_p=cfg["min_p"],
        seed=cfg["seed"],
    )
    samples = ancestral_sample_batch(sched, length, denoiser, sampler_cfg, cfg["count"])
    with open(args.out, "w") as fh:
        write_corpus(fh, vocab, length, samples)
    payload = {
        "sample_count": int(len(samples)),
        "unigram_entropy": float(np.mean([unigram_entropy(s) for s in samples])),
        "mask_fraction": float(np.mean(samples == vocab.mask_id)),
    }
    if dist is not None:
        nll, out_of_support = generative_nll(samples, dist)
        payload["generative_nll"] = nll
        payload["out_of_support"] = out_of_support
        payload["tv_distance"] = tv_distance(samples, dist)
    emit_json(payload, cfg)
    return 0


def cmd_self_correct(args) -> int:
    cfg = resolve_config(args)
    denoiser, vocab, length, dist, sched = load_denoiser(
        args, cfg, lambda v: build_schedule(cfg, v)
    )
    _, seqs = read_corpus(args.corpus)
    sc_cfg = SelfCorrectConfig(
        temperature=cfg["temperature"],
        max_iters=cfg["max_iters"],
        patience=cfg["patience"],
        t_condition=cfg["t_condition"],
        seed=cfg["seed"],
    )
    corrected = []
    edits = 0
    acc_before, acc_after = [], []
    for i, seq in enumerate(seqs):
        acc_before.append(self_accuracy(seq, denoiser, sc_cfg.t_condition, vocab.mask_id))
        result = self_correct(
            seq,
            denoiser,
            SelfCorrectConfig(
                temperature=sc_cfg.temperature,
                max_iters=sc_cfg.max_iters,
                patience=sc_cfg.patience,
                t_condition=sc_cfg.t_condition,
                seed=sc_cfg.seed ^ i,
            ),
            vocab.mask_id,
        )
        corrected.append(result.sequence)
        edits += result.edits
        acc_after.append(
            self_accuracy(result.sequence, denoiser, sc_cfg.t_condition, vocab.mask_id)
        )
    with open(args.out, "w") as fh:
        write_corpus(fh, vocab, length, corrected)
    payload = {
        "edits": edits,
        "self_accuracy_before": float(np.mean(acc_before)),
        "self_accuracy_after": float(np.mean(acc_after)),
    }
    if dist is not None:
        floor = 1e-30
        payload["generative_nll_before"], _ = generative_nll(seqs, dist, floor=floor)
        payload["generative_nll_after"], _ = generative_nll(corrected, dist, floor=floor)
    emit_json(payload, cfg)
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
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
            "table_entries": len(table.table),
        },
        cfg,
    )
    return 0


def cmd_oracle_eval(args) -> int:
    cfg = resolve_config(args)
    dist = ToyDistribution.load(args.dist)
    sched = build_schedule(cfg, dist.vocab)
    oracle = OracleDenoiser(dist, sched)
    mode = weighting_mode(cfg)
    nelbo_seq = 0.0
    for i, (seq, prob) in enumerate(dist.outcomes):
        est = sequence_nelbo(
            sched,
            np.array(seq),
            oracle,
            cfg["num_mc"],
            seed=cfg["seed"] ^ i,
            mode=mode,
        )
        nelbo_seq += prob * est.mean_per_token * dist.length
    exact = dist.entropy()
    emit_json(
        {"oracle_nelbo": nelbo_seq, "exact_nll": exact, "gap": nelbo_seq - exact}, cfg
    )
    return 0


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    results = verify_mod.run_all()
    emit_json(
        {"checks": results, "passed": all(r["passed"] for r in results)}, cfg
    )
    return 0 if all(r["passed"] for r in results) else INVARIANT_FAILURE


def cmd_weights_csv(args) -> int:
    cfg = resolve_config(args)
    n = args.vocab_size
    vocab = Vocab(n, n - 1)
    sched = build_schedule(cfg, vocab)
    x = 0
    uniform_token = 1  # a non-mask token different from x; requires N >= 3
    sys.stdout.write("t,w_mask,w_uniform,w_clean,log_snr\n")
    for t in np.linspace(sched.eps_t, 1.0 - sched.eps_t, cfg["grid_size"]):
        t = float(t)

        def weight(z):
            q = sched.marginal(t, x)
            if q[z] <= 0.0:
                return 0.0
            return sched.elbo_weight(t, z, x)

        sys.stdout.write(
            f"{t!r},{weight(vocab.mask_id)!r},{weight(uniform_token)!r},"
            f"{weight(x)!r},{sched.log_snr(t)!r}\n"
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mixdiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--schedule", choices=["mask", "hybrid"])
        p.add_argument("--p-u", dest="p_u", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--eps-t", dest="eps_t", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--mode", choices=["exact", "clamp", "dynamic"])
        p.add_argument("--w-max", dest="w_max", type=float)
        p.add_argument("--pu-epsilon", dest="pu_epsilon", type=float)

    p = sub.add_parser("noise", help="resample corpus tokens from the forward marginal")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--t", type=float)
    p.add_argument("--t-grid", dest="t_grid")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("nelbo", help="Monte Carlo NELBO of a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dist")
    p.add_argument("--table")
    p.add_argument("--num-mc", dest="num_mc", type=int)
    p.set_defaults(func=cmd_nelbo)

    p = sub.add_parser("sample", help="ancestral sampling from an all-mask start")
    common(p)
    p.add_argument("--dist")
    p.add_argument("--table")
    p.add_argument("--count", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--min-p", dest="min_p", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("self-correct", help="fixed-point token resampling")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dist")
    p.add_argument("--table")
    p.add_argument("--temperature", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--t-condition", dest="t_condition", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_self_correct)

    p = sub.add_parser("train", help="train the tabular denoiser")
    common(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", dest="lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--t-buckets", dest="t_buckets", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("oracle-eval", help="oracle NELBO vs exact NLL")
    common(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--num-mc", dest="num_mc", type=int)
    p.set_defaults(func=cmd_oracle_eval)

    p = sub.add_parser("verify", help="run all invariant suites")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("weights-csv", help="export loss-weight curves")
    common(p)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=5)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.set_defaults(func=cmd_weights_csv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorpusFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
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
