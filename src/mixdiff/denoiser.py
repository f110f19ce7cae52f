"""Denoisers over enumerable toy distributions.

Two concrete denoisers back the desk-scale experiments: an exact Bayes oracle
that enumerates the outcomes of a small known distribution, and a trainable
table of logits keyed by (time bucket, noisy sequence) optimized with plain
gradient descent on the per-token loss.

Both assign the mask token probability zero: clean data never contains mask,
and the loss path mixes in beta_t pi_t regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elbo import (
    DEFAULT_WEIGHT_CLIP,
    EXACT,
    WeightingMode,
    kl_divergence,
    loss_and_grad,
    noise_sequence,
    stratified_times,
)
from .errors import CorpusFormatError, DegenerateEvidenceError
from .schedule import MixingSchedule, Vocab


@dataclass(frozen=True)
class ToyDistribution:
    """Enumerable distribution over fixed-length sequences of non-mask tokens."""

    vocab: Vocab
    length: int
    outcomes: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("sequence length must be >= 1")
        total = 0.0
        for seq, prob in self.outcomes:
            if len(seq) != self.length:
                raise ValueError("all outcomes must have identical length")
            if self.vocab.mask_id in seq:
                raise ValueError("outcomes must not contain the mask token")
            for tok in seq:
                self.vocab.check_token(tok)
            if prob < 0:
                raise ValueError("outcome probabilities must be nonnegative")
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total!r}, not 1")

    @property
    def sequences(self) -> np.ndarray:
        return np.array([seq for seq, _ in self.outcomes], dtype=np.int64)

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.outcomes])

    def prob_of(self, seq) -> float:
        key = tuple(int(z) for z in seq)
        for outcome, p in self.outcomes:
            if outcome == key:
                return p
        return 0.0

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        idx = rng.choice(len(self.outcomes), size=count, p=self.probs)
        return self.sequences[idx]

    def entropy(self) -> float:
        """Exact expected NLL in nats per sequence."""
        p = self.probs
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.vocab.size} {self.length} {self.vocab.mask_id}\n")
            for seq, prob in self.outcomes:
                fh.write(f"{float(prob)!r} " + " ".join(str(int(z)) for z in seq) + "\n")

    @classmethod
    def load(cls, path: str) -> "ToyDistribution":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise CorpusFormatError("empty distribution file")
        try:
            n, length, mask_id = (int(v) for v in lines[0].split())
        except ValueError as exc:
            raise CorpusFormatError(f"bad header: {exc}", line=1) from exc
        outcomes = []
        for lineno, ln in enumerate(lines[1:], start=2):
            parts = ln.split()
            try:
                prob = float(parts[0])
                seq = tuple(int(v) for v in parts[1:])
            except ValueError as exc:
                raise CorpusFormatError(f"bad outcome: {exc}", line=lineno) from exc
            if len(seq) != length:
                raise CorpusFormatError(
                    f"outcome has {len(seq)} tokens, expected {length}", line=lineno
                )
            outcomes.append((seq, prob))
        return cls(Vocab(n, mask_id), length, tuple(outcomes))


class Denoiser:
    """Maps a noisy sequence and time to one distribution per position."""

    def predict(self, z_seq: np.ndarray, t: float) -> np.ndarray:
        """Returns an (L, N) array of per-position distributions."""
        raise NotImplementedError

    def predict_batch(self, z_seqs: np.ndarray, t: float) -> np.ndarray:
        """(B, L) -> (B, L, N); default loops over predict."""
        return np.stack([self.predict(z, t) for z in z_seqs])


class OracleDenoiser(Denoiser):
    """Exact posterior over clean tokens by enumerating the toy distribution.

    The forward process factorizes over positions, so the outcome likelihood
    is the product of per-token marginals; the per-position prediction is the
    posterior-weighted mixture of outcome one-hots.
    """

    def __init__(self, dist: ToyDistribution, schedule: MixingSchedule):
        self.dist = dist
        self.schedule = schedule
        self._outcomes = dist.sequences
        self._priors = dist.probs
        k, l = self._outcomes.shape
        self._one_hot = np.zeros((k, l, dist.vocab.size))
        rows, cols = np.meshgrid(np.arange(k), np.arange(l), indexing="ij")
        self._one_hot[rows, cols, self._outcomes] = 1.0

    def _posterior(self, z_seqs: np.ndarray, t: float) -> np.ndarray:
        """(B, L) noisy sequences -> (B, K) posterior over outcomes."""
        a = self.schedule.alpha(t)
        bp = self.schedule.beta_pi(t)
        # (B, K, L): per-token likelihood alpha * [z == x] + beta_pi[z]
        match = z_seqs[:, None, :] == self._outcomes[None, :, :]
        lik = (a * match + bp[z_seqs][:, None, :]).prod(axis=2)
        w = lik * self._priors[None, :]
        total = w.sum(axis=1)
        if np.any(total <= 0.0):
            raise DegenerateEvidenceError(
                "noisy sequence has zero likelihood under every outcome"
            )
        return w / total[:, None]

    def predict(self, z_seq, t: float) -> np.ndarray:
        return self.predict_batch(np.asarray(z_seq, dtype=np.int64)[None, :], t)[0]

    def predict_batch(self, z_seqs: np.ndarray, t: float) -> np.ndarray:
        z_seqs = np.asarray(z_seqs, dtype=np.int64)
        post = self._posterior(z_seqs, t)
        return np.einsum("bk,kln->bln", post, self._one_hot)


def masked_softmax(logits: np.ndarray, mask_id: int) -> np.ndarray:
    """Row-wise softmax over non-mask entries; mask gets probability zero."""
    logits = np.asarray(logits, dtype=float)
    work = logits.copy()
    work[..., mask_id] = -np.inf
    work -= work.max(axis=-1, keepdims=True)
    e = np.exp(work)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class LogitTable(Denoiser):
    """Tabular denoiser: logits keyed by (time bucket, full noisy sequence).

    Lookup misses return zero logits, i.e. a uniform prediction over non-mask
    tokens. Time buckets are equal-width on [eps, 1 - eps].
    """

    vocab: Vocab
    length: int
    t_buckets: int = 8
    eps_t: float = 1e-4
    learning_rate: float = 0.5
    table: dict = field(default_factory=dict)

    def bucket(self, t: float) -> int:
        frac = (t - self.eps_t) / (1.0 - 2.0 * self.eps_t)
        return min(max(int(frac * self.t_buckets), 0), self.t_buckets - 1)

    def logits_for(self, z_seq, t: float) -> np.ndarray:
        key = (self.bucket(t), tuple(int(z) for z in z_seq))
        entry = self.table.get(key)
        if entry is None:
            return np.zeros((self.length, self.vocab.size))
        return entry

    def _entry(self, z_seq, t: float) -> np.ndarray:
        key = (self.bucket(t), tuple(int(z) for z in z_seq))
        entry = self.table.get(key)
        if entry is None:
            entry = np.zeros((self.length, self.vocab.size))
            self.table[key] = entry
        return entry

    def predict(self, z_seq, t: float) -> np.ndarray:
        return masked_softmax(self.logits_for(z_seq, t), self.vocab.mask_id)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(
                f"{self.vocab.size} {self.length} {self.vocab.mask_id} "
                f"{self.t_buckets} {self.eps_t!r} {self.learning_rate!r}\n"
            )
            for (bucket, seq), logits in sorted(self.table.items()):
                seq_txt = " ".join(str(z) for z in seq)
                flat = " ".join(repr(float(v)) for v in logits.ravel())
                fh.write(f"{bucket} {seq_txt} {flat}\n")

    @classmethod
    def load(cls, path: str) -> "LogitTable":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise CorpusFormatError("empty table file")
        head = lines[0].split()
        try:
            n, length, mask_id, buckets = (int(v) for v in head[:4])
            eps_t, lr = float(head[4]), float(head[5])
        except (ValueError, IndexError) as exc:
            raise CorpusFormatError(f"bad header: {exc}", line=1) from exc
        table = cls(
            Vocab(n, mask_id), length, t_buckets=buckets, eps_t=eps_t, learning_rate=lr
        )
        for lineno, ln in enumerate(lines[1:], start=2):
            parts = ln.split()
            try:
                bucket = int(parts[0])
                seq = tuple(int(v) for v in parts[1 : 1 + length])
                flat = np.array([float(v) for v in parts[1 + length :]])
            except ValueError as exc:
                raise CorpusFormatError(f"bad entry: {exc}", line=lineno) from exc
            if flat.size != length * n:
                raise CorpusFormatError(
                    f"entry has {flat.size} logits, expected {length * n}", line=lineno
                )
            table.table[(bucket, seq)] = flat.reshape(length, n)
        return table


@dataclass(frozen=True)
class TrainingReport:
    final_avg_loss: float
    loss_trajectory: tuple[float, ...]
    steps: int


def table_train(
    dist: ToyDistribution,
    schedule: MixingSchedule,
    table: LogitTable,
    steps: int,
    batch: int = 64,
    mode: WeightingMode = EXACT,
    seed: int = 0,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
    trajectory_every: int = 50,
) -> TrainingReport:
    """Plain gradient descent on the per-token loss, one table entry at a time.

    Each step draws a batch of clean sequences, assigns them low-discrepancy
    times within the batch, noises them, and updates the entry keyed by
    (bucket(t), noisy sequence).
    """
    rng = np.random.default_rng(seed)
    trajectory = []
    avg = 0.0
    for step in range(steps):
        xs = dist.sample(rng, batch)
        times = stratified_times(batch, rng.random(), schedule.eps_t)
        step_loss = 0.0
        for b in range(batch):
            t = float(times[b])
            x_seq = xs[b]
            z_seq = noise_sequence(schedule, x_seq, t, rng)
            entry = table._entry(z_seq, t)
            probs = masked_softmax(entry, schedule.vocab.mask_id)
            w, kl, is_term, grad = loss_and_grad(
                schedule, t, z_seq, x_seq, probs, mode, weight_clip
            )
            entry -= table.learning_rate * grad
            step_loss += float((w * (kl + is_term)).sum()) / dist.length
        avg = step_loss / batch
        if step % trajectory_every == 0 or step == steps - 1:
            trajectory.append(avg)
    return TrainingReport(
        final_avg_loss=avg, loss_trajectory=tuple(trajectory), steps=steps
    )


def posterior_kl_to_oracle(
    dist: ToyDistribution,
    schedule: MixingSchedule,
    oracle: OracleDenoiser,
    table: LogitTable,
    num_samples: int = 500,
    seed: int = 1,
) -> float:
    """Mean KL(oracle prediction || table prediction) over sampled (Z_t, t)."""
    rng = np.random.default_rng(seed)
    times = stratified_times(num_samples, rng.random(), schedule.eps_t)
    total = 0.0
    count = 0
    for t in times:
        x_seq = dist.sample(rng, 1)[0]
        z_seq = noise_sequence(schedule, x_seq, float(t), rng)
        p_oracle = oracle.predict(z_seq, float(t))
        p_table = table.predict(z_seq, float(t))
        for i in range(dist.length):
            total += kl_divergence(p_oracle[i], p_table[i])
            count += 1
    return total / count
