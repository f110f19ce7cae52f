"""Reverse-process sampling and the self-correction fixed-point iteration.

All categorical draws use exact inverse-CDF over double-precision cumulative
sums, so a fixed seed reproduces outputs bit-for-bit. Batched sampling derives
one RNG stream per sequence (seed XOR sequence index), which makes results
independent of batching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser
from .errors import EmptySupportError, MaskedInputError, OrderingError
from .metrics import self_accuracy_from_probs
from .schedule import DEFAULT_EPS_T, MixingSchedule


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
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.min_p < 1.0:
            raise ValueError("min_p must lie in [0, 1)")

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
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


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
        out[np.arange(p.shape[0]), p.argmax(axis=-1)] = 1.0
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


def _inverse_cdf(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact inverse-CDF sampling along the last axis. rows must be normalized."""
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0
    idx = (u[..., None] > cdf).sum(axis=-1)
    return np.minimum(idx, rows.shape[-1] - 1).astype(np.int64)


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
    """
    preds = denoiser.predict_batch(z_batch, t_from)
    preds = adapt_distribution(preds, config.temperature, config.min_p)
    trans = schedule.conditional_transition(t_to, t_from)
    a_to = schedule.alpha(t_to)
    bp_to = schedule.beta_pi(t_to)
    q_to = a_to * preds + bp_to[None, None, :]
    # v[b,l,:] = bp_ts[z_t] * q_to[b,l,:] with alpha_ts * q_to at z_s = z_t.
    v = trans.beta_pi_ts[z_batch][..., None] * q_to
    b_idx, l_idx = np.meshgrid(
        np.arange(z_batch.shape[0]), np.arange(z_batch.shape[1]), indexing="ij"
    )
    v[b_idx, l_idx, z_batch] += trans.alpha_ts * q_to[b_idx, l_idx, z_batch]
    totals = v.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise EmptySupportError("reverse-step posterior has no support")
    return _inverse_cdf(v / totals, u)


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

    Each sequence owns the RNG stream seeded with seed XOR its index, so any
    batch split yields identical output.
    """
    rngs = [np.random.default_rng(config.seed ^ i) for i in range(count)]
    grid = config.time_grid()
    z = np.full((count, length), schedule.vocab.mask_id, dtype=np.int64)
    for i in range(config.num_steps, 0, -1):
        u = np.stack([r.random(length) for r in rngs])
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
