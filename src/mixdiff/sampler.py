"""Reverse-process sampling and the self-correction fixed-point iteration.

All categorical draws use exact inverse-CDF over double-precision cumulative
sums, so a fixed seed reproduces outputs bit-for-bit. Batched sampling hashes
(seed, row, step, position) into its uniforms, as Random123 does (Salmon et
al., SC'11): one call draws a (B, L) block, row i depends only on (seed, i),
so the first k rows of a batch do not depend on its size, and no two seeds
share rows. Each reverse step builds its posterior and its CDF once per
distinct row, and draws every row with one gather of that CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser, _distinct_rows
from .elbo import _inverse_cdf, _marginal_terms
from .errors import EmptySupportError, MaskedInputError, OrderingError
from .metrics import self_accuracy_from_probs
from .schedule import DEFAULT_EPS_T, MixingSchedule


def counter_hash(*keys) -> np.ndarray:
    """SplitMix64's finaliser (Steele et al., OOPSLA'14) chained over keys in
    [0, 2**64), broadcasting. From h = 0, each key goes in as mix((h ^ key) +
    golden), so it has passed the full-avalanche finaliser before the next."""
    h = np.zeros(1, dtype=np.uint64)
    for key in keys:
        x = (h ^ np.asarray(key, dtype=np.uint64)) + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> 27)) * np.uint64(0x94D049BB133111EB)
        h = x ^ (x >> 31)
    return h


def check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")


def derive_seed(seed: int, index: int) -> int:
    """The seed of stream `index` under `seed`: the 64-bit hash of the pair."""
    return int(counter_hash(seed, index)[0])


def counter_uniforms(seed: int, step: int, count: int, length: int) -> np.ndarray:
    """(count, length) uniforms in [0, 1); entry (i, j) hashes (seed, i, step, j)."""
    rows = np.arange(count, dtype=np.uint64)
    h = counter_hash(seed, rows[:, None], step, np.arange(length, dtype=np.uint64))
    return (h >> 11) * 2.0**-53


@dataclass(frozen=True)
class SamplerConfig:
    num_steps: int = 128
    eps_t: float = DEFAULT_EPS_T
    temperature: float = 1.0
    min_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if not 0.0 < self.eps_t < 0.5:
            raise ValueError("eps_t must lie in (0, 0.5)")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.min_p < 1.0:
            raise ValueError("min_p must lie in [0, 1)")
        check_seed(self.seed)

    def time_grid(self) -> np.ndarray:
        """t_i = eps + (1 - 2 eps) i / T for i = 0..T, strictly increasing."""
        i = np.arange(self.num_steps + 1, dtype=float)
        return self.eps_t + (1.0 - 2.0 * self.eps_t) * i / self.num_steps


@dataclass(frozen=True)
class SelfCorrectConfig:
    temperature: float = 0.1
    max_iters: int = 256
    patience: int = 32
    t_condition: float = DEFAULT_EPS_T
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        check_seed(self.seed)


def _temper_rows(p: np.ndarray, temperature: float) -> np.ndarray:
    """Raise each row to power 1/tau via log-probabilities, then renormalize.

    Zero entries stay zero. As tau -> 0 this approaches one-hot at the argmax
    (lowest index on ties), which falls out of the arithmetic directly.
    """
    if temperature == 1.0:
        return p
    if temperature < 1e-9:
        # exact argmax limit; np.argmax breaks ties by lowest index
        out = np.zeros_like(p)
        np.put_along_axis(out, p.argmax(axis=-1)[..., None], 1.0, axis=-1)
        return out
    logp = np.full_like(p, -np.inf)
    nz = p > 0
    logp[nz] = np.log(p[nz]) / temperature
    logp -= logp.max(axis=-1, keepdims=True)
    e = np.exp(logp)
    return e / e.sum(axis=-1, keepdims=True)


def _min_p_rows(p: np.ndarray, min_p: float) -> np.ndarray:
    if min_p == 0.0:
        return p
    out = np.where(p >= min_p, p, 0.0)
    totals = out.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise EmptySupportError(f"min_p={min_p} removed all probability mass")
    return out / totals


def adapt_distribution(p: np.ndarray, temperature: float = 1.0, min_p: float = 0.0) -> np.ndarray:
    """Temperature then min-p cutoff, each followed by renormalization."""
    p = np.asarray(p, dtype=float)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    squeeze = p.ndim == 1
    rows = p[None, :] if squeeze else p
    rows = _min_p_rows(_temper_rows(rows, temperature), min_p)
    return rows[0] if squeeze else rows


def _denoise_step_batch(
    schedule: MixingSchedule,
    z_batch: np.ndarray,
    t_from: float,
    t_to: float,
    denoiser: Denoiser,
    config: SamplerConfig,
    u: np.ndarray,
) -> np.ndarray:
    """One reverse step for a (B, L) batch given pre-drawn uniforms (B, L).

    Forms the per-position posterior
    v(z_s) ~ q_{t_from|t_to}(z_t | z_s) q_{t_to}(z_s | x_theta) and samples it.
    Rows that agree share their posterior, so the denoiser sees each distinct
    row once and the posterior and its CDF are built once per distinct row.
    """
    z_batch, inverse = _distinct_rows(z_batch, schedule.vocab.size)
    preds = denoiser.predict_batch(z_batch, t_from)
    preds = adapt_distribution(preds, config.temperature, config.min_p)
    trans = schedule.conditional_transition(t_to, t_from)
    a_to, bp_to = _marginal_terms(schedule.terms(t_to))
    q_to = a_to * preds + bp_to
    # v[b,l,:] = bp_ts[z_t] * q_to[b,l,:] with alpha_ts * q_to at z_s = z_t.
    v = trans.beta_pi_ts[z_batch][..., None] * q_to
    b_idx, l_idx = np.meshgrid(
        np.arange(z_batch.shape[0]), np.arange(z_batch.shape[1]), indexing="ij"
    )
    v[b_idx, l_idx, z_batch] += trans.alpha_ts * q_to[b_idx, l_idx, z_batch]
    totals = v.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise EmptySupportError("reverse-step posterior has no support")
    return _inverse_cdf(v / totals, u, inverse)


def denoise_step(
    schedule: MixingSchedule,
    z_seq,
    t_from: float,
    t_to: float,
    denoiser: Denoiser,
    config: SamplerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Single reverse-process step from t_from down to t_to."""
    if t_to > t_from:
        raise OrderingError(f"need t_to <= t_from, got {t_to!r} > {t_from!r}")
    z_seq = np.asarray(z_seq, dtype=np.int64)
    u = rng.random(len(z_seq))
    return _denoise_step_batch(
        schedule, z_seq[None, :], t_from, t_to, denoiser, config, u[None, :]
    )[0]


def ancestral_sample_batch(
    schedule: MixingSchedule,
    length: int,
    denoiser: Denoiser,
    config: SamplerConfig,
    count: int,
) -> np.ndarray:
    """Sample `count` sequences from all-mask starts; returns (count, L).

    Row i draws only the uniforms counter_uniforms gives row i under
    config.seed, so the first k rows of a batch equal a k-row batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = config.time_grid()
    z = np.full((count, length), schedule.vocab.mask_id, dtype=np.int64)
    for i in range(config.num_steps, 0, -1):
        u = counter_uniforms(config.seed, i, count, length)
        z = _denoise_step_batch(
            schedule, z, float(grid[i]), float(grid[i - 1]), denoiser, config, u
        )
    return z


def ancestral_sample(
    schedule: MixingSchedule, length: int, denoiser: Denoiser, config: SamplerConfig
) -> np.ndarray:
    """Sample one sequence; equals row 0 of the batched variant."""
    return ancestral_sample_batch(schedule, length, denoiser, config, 1)[0]


@dataclass(frozen=True)
class SelfCorrectResult:
    sequence: np.ndarray
    iterations: int
    self_accuracy_trajectory: tuple[float, ...]
    converged: bool
    edits: int


def self_correct(
    z_seq,
    denoiser: Denoiser,
    config: SelfCorrectConfig,
    mask_id: int,
) -> SelfCorrectResult:
    """Fixed-point token resampling: commit one disagreeing token per iteration.

    Each iteration queries the denoiser at t_condition, tempers the
    predictions, resamples every position, and commits only the disagreeing
    token with the highest tempered probability (lowest index on ties).
    Stops on convergence (no disagreements), max_iters, or `patience`
    iterations without a self-accuracy improvement; returns the best state
    seen, which also absorbs oscillation between equally good states.
    """
    z = np.asarray(z_seq, dtype=np.int64).copy()
    if np.any(z == mask_id):
        raise MaskedInputError("self-correction requires a fully denoised sequence")
    rng = np.random.default_rng(config.seed)
    length = len(z)
    trajectory = []
    best_acc = -1.0
    best_z = z.copy()
    stall = 0
    edits = 0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        probs_raw = denoiser.predict(z, config.t_condition)
        acc = self_accuracy_from_probs(z, probs_raw)
        trajectory.append(acc)
        if acc > best_acc + 1e-15:
            best_acc = acc
            best_z = z.copy()
            stall = 0
        else:
            stall += 1
        tempered = adapt_distribution(probs_raw, config.temperature)
        proposal = _inverse_cdf(tempered, rng.random(length))
        disagree = np.flatnonzero(proposal != z)
        if disagree.size == 0:
            converged = True
            break
        if stall >= config.patience:
            break
        scores = tempered[disagree, proposal[disagree]]
        j = disagree[int(np.argmax(scores))]
        z[j] = proposal[j]
        edits += 1
    return SelfCorrectResult(
        sequence=best_z,
        iterations=iterations,
        self_accuracy_trajectory=tuple(trajectory),
        converged=converged,
        edits=edits,
    )
