"""Denoisers over enumerable toy distributions.

Two concrete denoisers back the desk-scale experiments: an exact Bayes oracle
that enumerates the outcomes of a small known distribution, and a trainable
table of logits keyed by (time bucket, noisy sequence) optimized with plain
gradient descent on the per-token loss.

Both assign the mask token probability zero: clean data never contains mask,
and the loss path mixes in beta_t pi_t regardless.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .elbo import (
    EXACT,
    WeightingMode,
    _forward,
    _inverse_cdf,
    kl_divergence,
    loss_target,
    model_marginal,
    softmax,
    stratified_times,
    target_grad,
    target_loss,
)
from .errors import CorpusFormatError, DegenerateEvidenceError, TimeRangeError
from .schedule import (
    DEFAULT_EPS_T, MixingSchedule, Vocab, check_count, check_eps_t, check_fits, check_positive
)


def _read_records(path: str, what: str, parse_header, parse_row, build):
    """Read a UTF-8 text file of one header line and one record per line.

    `-` reads standard input. Blank lines are skipped; line numbers count
    physical lines. parse_header(fields) and parse_row(head, fields) get the
    whitespace-separated fields of a line, and build(head, rows) makes the
    result. A line that is not UTF-8, or a ValueError or IndexError from any of
    them, is a CorpusFormatError naming the line being read (the last for build).
    """
    with nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        lines = fh.read().splitlines()
    records, rows = [], []
    try:
        for lineno, line in enumerate(lines, start=1):
            if fields := line.decode().split():
                records.append((lineno, fields))
        if records:
            lineno, fields = records[0]
            head = parse_header(fields)
            for lineno, fields in records[1:]:
                rows.append(parse_row(head, fields))
            return build(head, rows)
    except (ValueError, IndexError) as exc:
        raise CorpusFormatError(f"bad {what}: {exc}", line=lineno) from exc
    raise CorpusFormatError(f"empty {what}")


def _write_records(fh, vocab: Vocab, length: int, rows, *head) -> None:
    """Write what _read_records reads: the `N L mask_id` header followed by
    the fields of `head`, then one line per row; every field as its str()."""
    header = (vocab.size, length, vocab.mask_id, *head)
    fh.writelines(" ".join(map(str, fields)) + "\n" for fields in (header, *rows))


def _vocab_header(fields, *kinds) -> tuple:
    """(Vocab, length) from the `N L mask_id` header fields, then one more
    field made by each of `kinds`; another number of fields is a ValueError."""
    if len(fields) != 3 + len(kinds):
        raise ValueError(f"header has {len(fields)} fields, expected {3 + len(kinds)}")
    n, length, mask_id = map(int, fields[:3])
    return Vocab(n, mask_id), length, *(kind(v) for kind, v in zip(kinds, fields[3:]))


def read_corpus(path: str) -> tuple[Vocab, list[np.ndarray]]:
    """A corpus file's vocabulary and sequences; `-` reads standard input."""

    def sequence(head, fields):
        return _check_batch([int(v) for v in fields], head[1], head[0], "a corpus")

    def corpus(head, seqs):
        if not seqs:
            raise ValueError("corpus has no sequences")
        return head[0], seqs

    return _read_records(path, "corpus", _vocab_header, sequence, corpus)


def write_corpus(fh, vocab: Vocab, length: int, seqs) -> None:
    _write_records(fh, vocab, length, (map(int, seq) for seq in seqs))


@dataclass(frozen=True)
class ToyDistribution:
    """Enumerable distribution over fixed-length sequences of non-mask tokens;
    `sequences` (K, L), `probs` (K,) and their CDF are read-only arrays."""

    vocab: Vocab
    length: int
    outcomes: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        check_count("length", self.length)
        total = 0.0
        for seq, prob in self.outcomes:
            self._check_outcome(self.vocab, self.length, seq, prob)
            total += prob
        sequences = np.array([seq for seq, _ in self.outcomes], dtype=np.int64)
        sequences = sequences.reshape(-1, self.length)
        distinct, index = _distinct_rows(sequences, self.vocab.size)
        if len(distinct) < len(sequences):
            twice = tuple(distinct[np.bincount(index).argmax()].tolist())
            raise ValueError(f"outcome {twice} is listed twice")
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
        probs = np.array([p for _, p in self.outcomes])
        cdf = np.cumsum(probs, dtype=float)
        cdf /= cdf[-1]
        for name, v in (("sequences", sequences), ("probs", probs), ("_cdf", cdf)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @staticmethod
    def _check_outcome(vocab: Vocab, length: int, seq, prob: float) -> None:
        seq = _check_batch(seq, length, vocab, "a distribution")
        if vocab.mask_id in seq:
            raise ValueError("outcomes must not contain the mask token")
        if not prob >= 0:
            raise ValueError(f"outcome probabilities must be nonnegative, got {prob!r}")

    def outcome_index(self, rows) -> np.ndarray:
        """The index in `sequences` of each row of an (..., L) batch, K for a row
        outside the support; a token id outside [0, N) or another width is a ValueError."""
        z = _check_batch(rows, self.length, self.vocab, "a distribution")
        k = len(self.sequences)
        distinct, index = _distinct_rows(
            np.concatenate([self.sequences, z.reshape(-1, self.length)]), self.vocab.size
        )
        at = np.full(len(distinct), k)
        at[index[:k]] = np.arange(k)
        return at[index[k:]].reshape(z.shape[:-1])

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """(count, L) outcomes: what rng.choice(K, count, p=probs) draws, from its stream."""
        return self.outcomes_at(rng.random(count))

    def outcomes_at(self, u: np.ndarray) -> np.ndarray:
        """The outcome each uniform of u selects, u.shape + (L,), by the
        inverse CDF rng.choice uses: outcomes of probability zero never."""
        return self.sequences.take(self._cdf.searchsorted(u, side="right"), axis=0)

    def entropy(self) -> float:
        """Exact expected NLL in nats per sequence."""
        p = self.probs
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    def save(self, path: str) -> None:
        rows = ((float(prob), *map(int, seq)) for seq, prob in self.outcomes)
        with open(path, "w") as fh:
            _write_records(fh, self.vocab, self.length, rows)

    @classmethod
    def load(cls, path: str) -> "ToyDistribution":
        def outcome(head, f):
            seq, prob = tuple(int(v) for v in f[1:]), float(f[0])
            cls._check_outcome(*head, seq, prob)
            return seq, prob

        def build(head, outcomes):
            return cls(*head, tuple(outcomes))

        return _read_records(path, "distribution file", _vocab_header, outcome, build)


def _distinct_rows(z: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of z in lexicographic order, index of each row of z in them).

    Rows of tokens in [0, n) are keyed as base-n numbers by Horner's rule down
    the columns, a block of columns at a time so that keys fit in int64, led by
    the index over the blocks before. A block whose key space is at most 8 times
    the batch (about where the two cost the same) marks its keys, a larger one
    sorts them. A single block's distinct keys decode to the distinct rows.
    A base too large for one token and the row index to fit is a ValueError.
    """
    if (width := (62 - len(z).bit_length()) // (n - 1).bit_length()) < 1:
        raise ValueError(f"cannot key {len(z)} rows of base {n} in int64")
    index, count = np.zeros(len(z), dtype=np.int64), min(len(z), 1)
    for j in range(0, z.shape[1], width):
        cols = z.T[j : j + width]
        key = index * n + cols[0] if j else np.array(cols[0], dtype=np.int64)
        for col in cols[1:]:
            key *= n
            key += col
        if 0 < (space := count * n ** len(cols)) <= 8 * len(z):
            seen = np.zeros(space, dtype=bool)
            seen[key] = True
            keys, rank = np.flatnonzero(seen), np.empty(space, dtype=np.int64)
            rank[keys] = np.arange(len(keys))
            index, count = rank[key], len(keys)
        else:
            keys, index = np.unique(key, return_inverse=True)
            count = len(keys)
    if 0 < z.shape[1] <= width:
        return keys[:, None] // n ** np.arange(z.shape[1] - 1, -1, -1) % n, index
    first = np.empty(count, dtype=np.int64)
    first[index] = np.arange(len(z))
    return z.take(first, axis=0), index


def _check_batch(z, length: int, vocab: Vocab, what: str) -> np.ndarray:
    """z as int64; named errors for a token id outside [0, N) or a batch of another width."""
    z = vocab.check_tokens(z)
    if (width := z.shape[-1]) != length:
        raise ValueError(f"batch of length {width} for {what} of length {length}")
    return z


class Denoiser:
    """Maps noisy sequences and times to one distribution per position over
    `vocab`, which a subclass sets, with the predict_batch it defines."""
    vocab: Vocab

    def predict_batch(self, z_seqs: np.ndarray, t) -> np.ndarray:
        """(B, L) -> (B, L, N) at one time t or at a (B,) array of times, one
        per row; row b depends only on z_seqs[b] and its time."""
        raise NotImplementedError(f"{type(self).__name__} does not define predict_batch")


class OracleDenoiser(Denoiser):
    """Exact posterior over clean tokens by enumerating the toy distribution.

    The forward process factorizes over positions, so the outcome likelihood
    is the product of per-token marginals; the per-position prediction is the
    posterior-weighted mixture of outcome one-hots.
    """

    def __init__(self, dist: ToyDistribution, schedule: MixingSchedule):
        check_fits("schedule", schedule, "distribution", dist)
        self.dist, self.vocab, self.schedule = dist, dist.vocab, schedule
        self._one_hot = (dist.sequences[..., None] == np.arange(dist.vocab.size)).astype(float)

    def _posterior(self, z_seqs: np.ndarray, t) -> np.ndarray:
        """(B, L) noisy sequences -> (B, K) posterior over outcomes."""
        terms = self.schedule.terms(t)
        a, bp = np.reshape(terms.alpha, (-1, 1, 1)), terms.beta_pi.reshape(-1, self.vocab.size)
        # (B, K, L): per-token likelihood alpha * [z == x] + beta_pi[z]
        match = z_seqs[:, None, :] == self.dist.sequences[None, :, :]
        bp_z = bp[np.arange(len(bp))[:, None], z_seqs][:, None, :]
        lik = np.multiply.reduce(np.where(match, a + bp_z, bp_z), axis=2)
        w = lik * self.dist.probs[None, :]
        total = np.add.reduce(w, axis=1)
        if np.logical_or.reduce(unexplained := total <= 0.0):
            z, t = z_seqs[unexplained][0], np.broadcast_to(terms.t, total.shape)[unexplained]
            raise DegenerateEvidenceError(
                f"noisy sequence {z.tolist()} at t = {t.item(0)!r} has zero likelihood under "
                "every outcome"
            )
        return w / total[:, None]

    def predict_batch(self, z_seqs: np.ndarray, t) -> np.ndarray:
        z_seqs = _check_batch(z_seqs, self.dist.length, self.dist.vocab, "an oracle")
        return np.einsum("bk,kln->bln", self._posterior(z_seqs, t), self._one_hot)


def masked_softmax(logits: np.ndarray, mask_id: int) -> np.ndarray:
    """Softmax over the non-mask entries of the last axis; mask gets probability zero."""
    work = np.array(logits, dtype=float)
    work[..., mask_id] = -np.inf
    return softmax(work.T).T


@dataclass(eq=False)
class LogitTable(Denoiser):
    """Tabular denoiser: logits keyed by (time bucket, full noisy sequence).

    `keys` holds the (E, 1 + L) distinct (bucket, *tokens) rows in lexicographic
    order and `logits` their (E, L, N) logits. Lookup misses return zero
    logits, i.e. a uniform prediction over non-mask tokens. Time buckets are
    equal-width on [eps, 1 - eps].
    """

    vocab: Vocab
    length: int
    t_buckets: int = 8
    eps_t: float = DEFAULT_EPS_T
    learning_rate: float = 0.5

    def __post_init__(self):
        check_count("length", self.length)
        self.t_buckets = check_count("t_buckets", self.t_buckets)  # an int, as _distinct_rows needs
        if self.t_buckets > 2**32:  # keys of 2**30 rows fit in int64
            raise ValueError(f"t_buckets must be >= 1 and <= 2**32, got {self.t_buckets}")
        check_eps_t(self.eps_t)
        check_positive("learning_rate", self.learning_rate)
        self.keys = np.empty((0, 1 + self.length), dtype=np.int64)
        self.logits = np.empty((0, self.length, self.vocab.size))

    @property
    def table(self) -> MappingProxyType:
        """(bucket, tokens) -> that entry's (L, N) logits, read-only, as of now."""
        keys = ((b, tuple(seq)) for b, *seq in self.keys.tolist())
        return MappingProxyType(dict(zip(keys, self.logits)))

    def buckets(self, t: np.ndarray) -> np.ndarray:
        """The time bucket of each entry of an array of times; a time outside
        [eps, 1 - eps] falls into the nearer end bucket, NaN is a TimeRangeError."""
        t = np.asarray(t, dtype=float)
        if np.logical_or.reduce(np.isnan(t), axis=None):
            raise TimeRangeError(f"t=nan is not a time in [{self.eps_t}, {1.0 - self.eps_t}]")
        frac = (t - self.eps_t) / (1.0 - 2.0 * self.eps_t)
        b = (np.minimum(np.maximum(frac, 0.0), 1.0) * self.t_buckets).astype(np.int64)
        return np.minimum(b, self.t_buckets - 1)

    def logits_for(self, z_seqs, t, insert: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The entry of each distinct (bucket, noisy sequence) key of a (B, L)
        batch at one time t or a (B,) array of times, -1 for a miss, and the
        index of each row's key in them. With insert, the table adopts the
        missed keys with zero logits, so no entry is -1."""
        z = _check_batch(z_seqs, self.length, self.vocab, "a table")
        base = max(self.t_buckets, self.vocab.size)
        asked, inverse = _distinct_rows(
            np.column_stack([self.buckets(np.broadcast_to(t, len(z))), z]), base
        )
        merged, where = _distinct_rows(np.concatenate([self.keys, asked]), base)
        old, entries = np.split(where, [len(self.keys)])
        if insert and len(merged) > len(old):
            logits = np.zeros((len(merged), self.length, self.vocab.size))
            logits[old] = self.logits
            self.keys, self.logits = merged, logits
            return entries, inverse
        entry = np.full(len(merged), -1)
        entry[old] = np.arange(len(old))
        return entry[entries], inverse

    def predict_batch(self, z_seqs: np.ndarray, t) -> np.ndarray:
        entries, inverse = self.logits_for(z_seqs, t)
        logits = np.zeros((len(entries), self.length, self.vocab.size))
        logits[entries >= 0] = self.logits[entries[entries >= 0]]
        return masked_softmax(logits, self.vocab.mask_id)[inverse]

    def save(self, path: str) -> None:
        logits = self.logits.reshape(len(self.keys), self.length * self.vocab.size)
        rows = (key + flat for key, flat in zip(self.keys.tolist(), logits.tolist()))
        with open(path, "w") as fh:
            head = self.t_buckets, self.eps_t, self.learning_rate
            _write_records(fh, self.vocab, self.length, rows, *head)

    @classmethod
    def load(cls, path: str) -> "LogitTable":
        def header(f):
            return cls(*_vocab_header(f, int, float, float))

        def entry(table, f):
            n, length = table.vocab.size, table.length
            flat = [float(v) for v in f[1 + length :]]
            if len(flat) != length * n:
                raise ValueError(f"entry has {len(flat)} logits, expected {length * n}")
            if bad := [v for v in flat if not math.isfinite(v)]:
                raise ValueError(f"logit {bad[0]!r} is not finite")
            if not 0 <= (bucket := int(f[0])) < table.t_buckets:
                raise ValueError(f"time bucket {bucket} outside [0, {table.t_buckets})")
            return [bucket, *table.vocab.check_tokens(list(map(int, f[1 : 1 + length])))], flat

        def build(table, entries):
            length, n = table.length, table.vocab.size
            rows = np.array([key for key, _ in entries], dtype=np.int64).reshape(-1, 1 + length)
            keys, index = _distinct_rows(rows, max(table.t_buckets, n))
            if len(keys) < len(rows):
                raise ValueError(f"key {keys[np.bincount(index).argmax()].tolist()} is repeated")
            table.keys, table.logits = keys, np.empty((len(keys), length, n))
            table.logits[index] = np.reshape([flat for _, flat in entries], (-1, length, n))
            return table

        return _read_records(path, "table file", header, entry, build)


@dataclass(frozen=True)
class TrainingReport:
    final_avg_loss: float
    loss_trajectory: tuple[float, ...]
    steps: int


# Examples per block of table_train: what one block holds bounds the memory
# of a call, whatever its number of steps.
TRAIN_BLOCK = 4096
# The training loss is recorded at every TRAJECTORY_EVERY-th step and the last.
TRAJECTORY_EVERY = 50


def table_train(
    dist: ToyDistribution,
    schedule: MixingSchedule,
    table: LogitTable,
    steps: int,
    batch: int = 64,
    mode: WeightingMode = EXACT,
    seed: int = 0,
) -> TrainingReport:
    """Minibatch gradient descent on the per-token loss.

    Each step draws a batch of clean sequences, assigns them low-discrepancy
    times within the batch, noises them and keys each example by
    (bucket(t), noisy sequence). Every example takes its gradient at the
    table as the step began; the gradients, times -learning_rate, are added
    to their entries in example order (np.add.at), so a key that occurs k
    times in a step gets one update of k summed gradients. Nothing else
    reads the table, so the call runs in blocks of steps, TRAIN_BLOCK
    examples or one step each. A block draws the stream its steps would draw
    one by one, and evaluates the schedule, builds q_t(. | x), noises,
    weighs and keys (inserting) once for all its examples, with each z
    indexed within its step, so a step's rows of the target are a target of
    their own. Each step then runs masked_softmax's math on a vocabulary-first
    copy of its logits, model_marginal and target_grad. The loss values, at
    the table as each step began, are computed only for the steps the
    trajectory records (every TRAJECTORY_EVERY-th and the last). A block
    raises only in loss_target or logits_for, before its first update, so
    then the table holds the updates of the blocks before it.
    """
    batch, steps = check_count("batch", batch), check_count("steps", steps, least=0)
    check_fits("schedule", schedule, "distribution", dist)
    check_fits("table", table, "distribution", dist)
    rng = np.random.default_rng(seed)
    per_block, length = max(1, TRAIN_BLOCK // batch), dist.length
    mask_id, step_rate = dist.vocab.mask_id, -table.learning_rate
    trajectory = []
    for first in range(0, steps, per_block):
        block = range(first, min(first + per_block, steps))
        # each step's stream: its outcomes' uniforms, its time offset, its noise
        u = rng.random((len(block), batch * (1 + length) + 1))
        xs = dist.outcomes_at(u[:, :batch]).reshape(-1, length)
        times = stratified_times(batch, u[:, batch, None], schedule.eps_t).ravel()
        forward = _forward(schedule.terms(times), xs)
        zs = _inverse_cdf(forward[-1], u[:, batch + 1 :].reshape(-1, length))
        target = loss_target(forward, zs, mode)
        entries, inverse = table.logits_for(zs, times, insert=True)
        # count each z index within its step: a step's rows are then a target
        z_steps = target[3].reshape(len(block), -1)
        z_steps[...] = zs.reshape(z_steps.shape) * z_steps.shape[1] + np.arange(z_steps.shape[1])
        for step, e in zip(block, entries[inverse].reshape(len(block), batch)):
            rows = slice((step - first) * batch, (step - first + 1) * batch)
            part = tuple(v[..., rows, :] for v in target)
            work = table.logits.take(e, axis=0).transpose(2, 0, 1).copy()
            work[mask_id] = -np.inf
            model = model_marginal(part, softmax(work))
            if step % TRAJECTORY_EVERY == 0 or step == steps - 1:
                w, kl, is_term = target_loss(part, model)
                losses = (w * (kl + is_term)).sum(axis=-1)
                trajectory.append(sum((losses / length).tolist()) / batch)
            np.add.at(table.logits, e, target_grad(part, model).transpose(1, 2, 0) * step_rate)
    return TrainingReport(
        final_avg_loss=trajectory[-1] if steps else 0.0,
        loss_trajectory=tuple(trajectory),
        steps=steps,
    )


def posterior_kl_to_oracle(
    dist: ToyDistribution,
    schedule: MixingSchedule,
    oracle: OracleDenoiser,
    table: LogitTable,
    num_samples: int = 500,
    seed: int = 1,
) -> float:
    """Mean KL(oracle prediction || table prediction) over sampled (Z_t, t); a
    ValueError unless the oracle, the table and the schedule are of `dist`."""
    num_samples = check_count("num_samples", num_samples)
    check_fits("schedule", schedule, "distribution", dist)
    check_fits("table", table, "distribution", dist)
    if oracle.dist != dist or oracle.schedule != schedule:
        raise ValueError("oracle of another distribution or schedule than the one sampled")
    rng = np.random.default_rng(seed)
    times = stratified_times(num_samples, rng.random(), schedule.eps_t)
    # Each sample's clean sequence and noise come from the one stream in turn.
    u = rng.random((num_samples, 1 + dist.length))
    zs = _inverse_cdf(_forward(schedule.terms(times), dist.outcomes_at(u[:, 0]))[-1], u[:, 1:])
    kl = kl_divergence(oracle.predict_batch(zs, times), table.predict_batch(zs, times))
    return sum(kl.ravel().tolist()) / kl.size
