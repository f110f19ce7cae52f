"""Reverse-process sampling and the self-correction fixed-point iteration.

All categorical draws use exact inverse-CDF over double-precision cumulative
sums, so a fixed seed reproduces outputs bit-for-bit. Batched sampling hashes
(seed, row, step, position) into its uniforms, as Random123 does (Salmon et
al., SC'11): row i depends only on (seed, i), so the first k rows of a batch
do not depend on its size, and no two seeds share rows. A call hashes each
(seed, row) once and each step continues that chain, the batch held
column-major so that every per-row pass is stride-1. Each reverse step builds
its posterior and CDF once per distinct row and draws every row by one gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser, _distinct_rows
from .elbo import _grid_times, _inverse_cdf, _vocab_sum, softmax
from .errors import EmptySupportError
from .metrics import _probs_at, self_accuracy_from_probs
from .schedule import (
    DEFAULT_EPS_T,
    MixingSchedule,
    Terms,
    check_count,
    check_denoised,
    check_fits,
    check_positive,
    check_seed,
    check_seeds,
)


def _mix(x: np.ndarray) -> np.ndarray:
    """x <- SplitMix64's finaliser (Steele et al., OOPSLA'14) of x + golden, in
    place on a uint64 array: one link of counter_hash's chain."""
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> 30
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> 27
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> 31
    return x


def counter_hash(*keys) -> np.ndarray:
    """SplitMix64's finaliser chained over keys in [0, 2**64), broadcasting.
    From h = 0, each key goes in as mix((h ^ key) + golden), so it has passed
    the full-avalanche finaliser before the next."""
    h = np.zeros(1, dtype=np.uint64)
    for key in keys:
        h = _mix(h ^ np.asarray(key, dtype=np.uint64))
    return h


def derive_seeds(seed: int, count: int) -> list[int]:
    """The seeds of streams 0..count-1 under `seed`: seed i is the 64-bit hash of (seed, i)."""
    count = check_count("count", count, least=0)
    return counter_hash(check_seed(seed), np.arange(count, dtype=np.uint64)).tolist()


def _step_uniforms(rows: np.ndarray, step: int, length: int) -> np.ndarray:
    """(length, B) uniforms in [0, 1) of one step, given the (B,) hashes
    rows[i] = counter_hash(seed, i): entry (j, i) hashes (seed, i, step, j)."""
    h = _mix(_mix(rows ^ np.uint64(step)) ^ np.arange(length, dtype=np.uint64)[:, None])
    h >>= 11
    return h * 2.0**-53


def counter_uniforms(seed: int, step: int, count: int, length: int) -> np.ndarray:
    """(count, length) uniforms in [0, 1); entry (i, j) hashes (seed, i, step, j)."""
    step, count = check_count("step", step, least=0), check_count("count", count, least=0)
    length, seed = check_count("length", length, least=0), check_seed(seed)
    return _step_uniforms(counter_hash(seed, np.arange(count, dtype=np.uint64)), step, length).T


@dataclass(frozen=True)
class SamplerConfig:
    num_steps: int = 128
    temperature: float = 1.0
    min_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_count("num_steps", self.num_steps)
        check_positive("temperature", self.temperature)
        if not 0.0 <= self.min_p < 1.0:
            raise ValueError("min_p must lie in [0, 1)")
        check_seed(self.seed)

    def time_grid(self, eps_t: float) -> np.ndarray:
        """t_i = eps + (1 - 2 eps) i / T for i = 0..T, strictly increasing, <= 1 - eps."""
        return _grid_times(np.arange(self.num_steps + 1, dtype=float), self.num_steps, eps_t)


@dataclass(frozen=True)
class SelfCorrectConfig:
    temperature: float = 0.1
    max_iters: int = 256
    patience: int = 32
    t_condition: float = DEFAULT_EPS_T
    seed: int = 0

    def __post_init__(self):
        check_count("max_iters", self.max_iters)
        check_count("patience", self.patience)
        check_positive("temperature", self.temperature)
        check_seed(self.seed)


def adapt_distribution(p: np.ndarray, temperature: float = 1.0, min_p: float = 0.0) -> np.ndarray:
    """Temperature then min-p cutoff over the last axis, each followed by renormalization.

    Tempering raises each row to power 1/tau via log-probabilities. Zero
    entries stay zero. As tau -> 0 this approaches one-hot at the argmax
    (lowest index on ties), which falls out of the arithmetic directly.
    """
    p = np.asarray(p, dtype=float)
    check_positive("temperature", temperature)
    if temperature < 1e-9:
        # exact argmax limit; np.argmax breaks ties by lowest index
        p = np.eye(p.shape[-1])[p.argmax(axis=-1)]
    elif temperature != 1.0:
        logp = np.log(p, out=np.full_like(p, -np.inf), where=p > 0)
        logp /= temperature
        p = softmax(logp.T).T
    if min_p == 0.0:
        return p
    out = np.where(p >= min_p, p, 0.0)
    totals = np.add.reduce(out, axis=-1, keepdims=True)
    if np.logical_or.reduce(totals <= 0.0, axis=None):
        raise EmptySupportError(f"min_p={min_p} removed all probability mass")
    return out / totals


def reverse_posterior(at_from: Terms, at_to: Terms, z: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """The normalised (N, L, D) posterior over z_s at at_to.t of the (D, L)
    rows z at at_from.t, given their adapted (N, L, D) predictions, vocabulary
    first: v(z_s) ~ q_{t_from|t_to}(z_t | z_s) q_{t_to}(z_s | x_theta).

    A position with no support is a revealed z_t that the prediction misses
    under p_u = 0; masking never changes a revealed token, so it carries over.
    """
    trans = at_to.to(at_from)
    q_to = at_to.alpha * preds + at_to.beta_pi[:, None, None]
    # v[:,l,d] = bp_ts[z_t] * q_to[:,l,d] with alpha_ts * q_to at z_s = z_t.
    v = trans.beta_pi_ts[z.T] * q_to
    v += trans.alpha_ts * q_to * (z.T == np.arange(len(q_to))[:, None, None])
    totals = _vocab_sum(v)
    dead = totals <= 0.0
    if np.logical_or.reduce(dead, axis=None):
        v[:, dead] = z.T[dead] == np.arange(len(v))[:, None]
        totals[dead] = 1.0
    return v / totals


def ancestral_sample_batch(
    schedule: MixingSchedule,
    length: int,
    denoiser: Denoiser,
    config: SamplerConfig,
    count: int,
) -> np.ndarray:
    """Sample `count` sequences from all-mask starts; returns (count, L).

    Reverse step i runs from grid time t_i to t_{i-1} with counter step i.
    A position still masked at t_0 = eps_t, about eps_t of all positions, then
    draws from the adapted prediction at t_0 with counter step 0, in one more
    denoiser call on the distinct rows that hold one; every other position
    keeps its token. Row i draws only the uniforms counter_uniforms gives
    row i under config.seed, so the first k rows of a batch equal a k-row
    batch. The batch is held column-major between steps and returned
    C-contiguous.
    """
    count, length = check_count("count", count), check_count("length", length)
    check_fits("schedule", schedule, "denoiser", denoiser)
    grid = config.time_grid(schedule.eps_t)
    hashes = counter_hash(config.seed, np.arange(count, dtype=np.uint64))
    z = np.full((length, count), schedule.vocab.mask_id, dtype=np.int64).T
    at_from = schedule.terms(grid[-1])
    for i in range(config.num_steps, 0, -1):
        rows, inverse = _distinct_rows(z, schedule.vocab.size)
        preds = denoiser.predict_batch(rows, at_from.t)
        # after predict_batch, whose terms(t_from) then reads the schedule's last evaluation
        at_to = schedule.terms(grid[i - 1])
        preds = adapt_distribution(preds, config.temperature, config.min_p).T
        post = reverse_posterior(at_from, at_to, rows, preds)
        z = _inverse_cdf(post, _step_uniforms(hashes, i, length), inverse).T
        at_from = at_to
    (held,) = np.logical_or.reduce(z == schedule.vocab.mask_id, axis=1).nonzero()
    if len(held):
        last = z[held]
        rows, inverse = _distinct_rows(last, schedule.vocab.size)
        preds = denoiser.predict_batch(rows, at_from.t)
        preds = adapt_distribution(preds, config.temperature, config.min_p).T
        draw = _inverse_cdf(preds, _step_uniforms(hashes[held], 0, length), inverse).T
        z[held] = np.where(last == schedule.vocab.mask_id, draw, last)
    return np.ascontiguousarray(z)


@dataclass(frozen=True)
class SelfCorrectResult:
    sequence: np.ndarray
    iterations: int
    self_accuracy_trajectory: tuple[float, ...]
    converged: bool
    edits: int


# Rows per block of self_correct_batch: what one block holds bounds the
# memory of a call, whatever the size of its corpus.
CORRECT_BLOCK = 256


def self_correct_batch(
    z_seqs, denoiser: Denoiser, config: SelfCorrectConfig, mask_id: int, seeds
) -> list[SelfCorrectResult]:
    """Fixed-point token resampling of each row of an (S, L) corpus: commit
    one disagreeing token per iteration.

    Each iteration queries the denoiser at t_condition, tempers the
    predictions, resamples every position, and commits only the disagreeing
    token with the highest tempered probability (lowest index on ties).
    A row stops on convergence (no disagreements), max_iters, or `patience`
    iterations without a self-accuracy improvement, and returns the best
    state seen, which also absorbs oscillation between equally good states.
    Row i draws from default_rng(seeds[i]), not from config.seed, and gets
    the result it gets alone. The rows run in lockstep, in blocks of
    CORRECT_BLOCK, with one predict_batch per iteration over the rows of a
    block still active. A token id outside the denoiser's vocabulary is a
    ValueError.
    """
    z_seqs = denoiser.vocab.check_tokens(z_seqs)
    if z_seqs.ndim != 2:
        raise ValueError(f"corpus must be (S, L), got shape {z_seqs.shape}")
    check_denoised(z_seqs, denoiser, mask_id, "self-correction")
    check_seeds(seeds, len(z_seqs))
    results = [None] * len(z_seqs)
    for first in range(0, len(z_seqs), CORRECT_BLOCK):
        # The state of the block's active rows, re-indexed only when some stop.
        z = z_seqs[first : first + CORRECT_BLOCK].copy()
        rows, best_z, best_acc = np.arange(first, first + len(z)), z.copy(), np.full(len(z), -1.0)
        stall, edits = np.zeros((2, len(z)), dtype=np.int64)
        rngs = [np.random.default_rng(seed) for seed in seeds[first : first + CORRECT_BLOCK]]
        trajectories = [[] for _ in rngs]
        for it in range(1, config.max_iters + 1):
            probs = denoiser.predict_batch(z, config.t_condition)
            acc = self_accuracy_from_probs(z, probs)
            for trajectory, a in zip(trajectories, acc.tolist()):
                trajectory.append(a)
            better = acc > best_acc + 1e-15
            np.copyto(best_acc, acc, where=better)
            np.copyto(best_z, z, where=better[:, None])
            stall = np.where(better, 0, stall + 1)
            tempered = adapt_distribution(probs, config.temperature)
            u = np.array([rng.random(z.shape[1]) for rng in rngs])
            proposal = _inverse_cdf(tempered.transpose(2, 0, 1), u)
            disagree = proposal != z
            converged = ~np.logical_or.reduce(disagree, axis=1)
            stop = converged | (stall >= config.patience)
            (go,) = (~stop).nonzero()
            j = np.where(disagree, _probs_at(tempered, proposal), -1.0).argmax(axis=1)[go]
            z[go, j] = proposal[go, j]
            edits[go] += 1
            if len(go) == len(z) and it < config.max_iters:
                continue
            stop |= it == config.max_iters
            for i in stop.nonzero()[0].tolist():
                results[rows[i]] = SelfCorrectResult(
                    best_z[i].copy(), it, tuple(trajectories[i]), bool(converged[i]), int(edits[i])
                )
            if np.logical_and.reduce(stop):
                break
            keep = ~stop
            z, best_z, best_acc, stall, edits, rows = (
                v[keep] for v in (z, best_z, best_acc, stall, edits, rows)
            )
            rngs, trajectories = ([v for v, k in zip(vs, keep) if k] for vs in (rngs, trajectories))
    return results


def self_correct(
    z_seq,
    denoiser: Denoiser,
    config: SelfCorrectConfig,
    mask_id: int,
) -> SelfCorrectResult:
    """self_correct_batch of the one sequence z_seq, drawing from default_rng(config.seed)."""
    return self_correct_batch(np.asarray(z_seq)[None], denoiser, config, mask_id, [config.seed])[0]
