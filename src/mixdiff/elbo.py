"""Per-token diffusion loss, weighting schemes, and Monte Carlo NELBO.

The per-token loss is w_t(z_t, x) * (KL + pointwise IS) where both divergences
compare the true marginal q_t(. | x) against the model marginal
q_t(. | x_theta) = alpha_t x_theta + beta_t pi_t. The weight can be the exact
schedule weight, a clamped version, or the dynamic scheme that keeps the
relative weights between mask / uniform / noise-free tokens while bounding the
maximum. `loss_and_grad` computes the loss and its logit gradient for every
position of one noisy sequence; the per-token functions are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MixdiffError, UnsupportedStateError
from .schedule import LOG_FLOOR, MixingSchedule

DEFAULT_WEIGHT_CLIP = 1e4


@dataclass(frozen=True)
class WeightingMode:
    """One of exact / clamp / dynamic, with the cap w_max where applicable."""

    kind: str
    w_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exact", "clamp", "dynamic"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if self.w_max <= 0:
            raise ValueError("w_max must be positive")


EXACT = WeightingMode("exact")
CLAMP = WeightingMode("clamp")
DYNAMIC = WeightingMode("dynamic")


@dataclass(frozen=True)
class LossBreakdown:
    weight: float
    kl: float
    is_term: float

    @property
    def total(self) -> float:
        return self.weight * (self.kl + self.is_term)


@dataclass(frozen=True)
class NelboEstimate:
    mean_per_token: float
    std_error: float
    num_mc_samples: int
    # Boundary terms vanish at the clamped endpoints; the constant is fixed at 0.
    constant: float = 0.0

    @property
    def ppl(self) -> float:
        return math.exp(self.mean_per_token)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """sum p log(p/q) over the last axis; log arguments floored at 1e-30, so
    0 log 0 = 0. A pair of vectors gives a float, stacked rows an array."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    log_ratio = np.log(np.maximum(p, LOG_FLOOR)) - np.log(np.maximum(q, LOG_FLOOR))
    kl = (p * log_ratio).sum(axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def is_divergence_pointwise(p_val, q_val) -> float | np.ndarray:
    """Elementwise Itakura-Saito divergence p/q - log(p/q) - 1."""
    p = np.asarray(p_val, dtype=float)
    q = np.asarray(q_val, dtype=float)
    if (p <= 0).any() or (q <= 0).any():
        raise ValueError("pointwise IS divergence needs positive arguments")
    r = p / q
    d = r - np.log(r) - 1.0
    return float(d) if d.ndim == 0 else d


def _weights(
    schedule: MixingSchedule,
    t: float,
    z: np.ndarray,
    x: np.ndarray,
    q_true: np.ndarray,
    mode: WeightingMode,
    weight_clip: float | None,
) -> np.ndarray:
    """Per-position weight of `mode`; q_true holds the rows q_t(. | x).

    The exact weight is rate_vector(t)[z] / q_t(z | x), clipped at
    `weight_clip` (training-stability guard) unless it is None.
    """
    if mode.kind == "dynamic":
        b = schedule.uniform_mix_constant
        n = schedule.vocab.size
        w = np.ones(len(z))
        w[z == schedule.vocab.mask_id] += 1.0
        w[z == x] += (b / n) * math.exp(-schedule.log_snr(t) / 2.0) - 1.0
        return mode.w_max * w
    q_z = q_true[np.arange(len(z)), z]
    if (q_z <= 0.0).any():
        i = int(np.argmax(q_z <= 0.0))
        raise UnsupportedStateError(
            f"token {z[i]} outside forward support of {x[i]} at t={t!r}"
        )
    w = schedule.rate_vector(t)[z] / q_z
    if weight_clip is not None:
        w = np.minimum(w, weight_clip)
    if mode.kind == "clamp":
        w = np.minimum(mode.w_max, w)
    return w


def loss_and_grad(
    schedule: MixingSchedule,
    t: float,
    z: np.ndarray,
    x: np.ndarray,
    probs: np.ndarray,
    mode: WeightingMode = EXACT,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss terms and logit gradient of one noisy sequence at time t.

    z and x are the (L,) noisy and clean token ids, probs the (L, N) denoiser
    prediction, a softmax of some logits. Returns (weight, kl, is_term, grad):
    position i's loss is weight[i] * (kl[i] + is_term[i]), and grad (L, N) is
    the gradient of the summed loss w.r.t. those logits. The weight does not
    depend on the logits in any mode. Entries with probability 0 get gradient
    0, so grad also holds for a softmax over a subset of entries.
    """
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    s = np.asarray(probs, dtype=float)
    a = schedule.alpha(t)
    bp = schedule.beta_pi(t)
    pos = np.arange(len(x))
    q_true = np.repeat(bp[np.newaxis, :], len(x), axis=0)
    q_true[pos, x] += a
    # The floor keeps q_model > 0, so no ratio below is 0/0.
    q_model = np.maximum(a * s + bp, LOG_FLOOR)
    w = _weights(schedule, t, z, x, q_true, mode, weight_clip)
    kl = kl_divergence(q_true, q_model)
    p_z = np.maximum(q_true[pos, z], LOG_FLOOR)
    q_z = q_model[pos, z]
    is_term = is_divergence_pointwise(p_z, q_z)

    # q_model = alpha_t s + beta_t pi_t. d(KL)/dq_model = -q_true / q_model;
    # d(IS)/dq_model[z] = 1/q - p/q^2.
    g_q = -q_true / q_model
    g_q[pos, z] += 1.0 / q_z - p_z / q_z**2
    g_s = a * w[:, None] * g_q
    grad = s * (g_s - (s * g_s).sum(axis=1, keepdims=True))
    return w, kl, is_term, grad


def loss_weight(
    schedule: MixingSchedule,
    t: float,
    z_t: int,
    x: int,
    mode: WeightingMode = EXACT,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
) -> float:
    """The weight loss_and_grad gives one token."""
    q_true = schedule.marginal(t, x)[np.newaxis, :]
    z = np.array([schedule.vocab.check_token(z_t)])
    return float(_weights(schedule, t, z, np.array([x]), q_true, mode, weight_clip)[0])


def per_token_loss(
    schedule: MixingSchedule,
    t: float,
    z_t: int,
    x: int,
    x_theta: np.ndarray,
    mode: WeightingMode = EXACT,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
) -> LossBreakdown:
    """The loss terms loss_and_grad gives one token."""
    z_t, x = schedule.vocab.check_token(z_t), schedule.vocab.check_token(x)
    probs = np.asarray(x_theta, dtype=float)[np.newaxis, :]
    w, kl, is_term, _ = loss_and_grad(
        schedule, t, [z_t], [x], probs, mode, weight_clip
    )
    return LossBreakdown(weight=float(w[0]), kl=float(kl[0]), is_term=float(is_term[0]))


def per_token_loss_grad(
    schedule: MixingSchedule,
    t: float,
    z_t: int,
    x: int,
    logits: np.ndarray,
    mode: WeightingMode = EXACT,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
) -> np.ndarray:
    """Gradient of per_token_loss(..., softmax(logits), ...).total w.r.t. logits."""
    z_t, x = schedule.vocab.check_token(z_t), schedule.vocab.check_token(x)
    logits = np.asarray(logits, dtype=float)
    e = np.exp(logits - logits.max())
    probs = (e / e.sum())[np.newaxis, :]
    return loss_and_grad(schedule, t, [z_t], [x], probs, mode, weight_clip)[3][0]


def mdm_loss(
    schedule: MixingSchedule, t: float, z_t: int, x: int, x_theta: np.ndarray
) -> float:
    """Masked-diffusion reference loss: (alpha'/(1-alpha)) delta_{z_t,m} log x_theta[x].

    Only meaningful for mask-only noise; nonnegative since alpha' < 0.
    """
    if z_t != schedule.vocab.mask_id:
        return 0.0
    t = schedule.check_time(t)
    a = schedule.alpha(t)
    ap = schedule.alpha_prime(t)
    return float(ap / (1.0 - a) * math.log(max(x_theta[x], LOG_FLOOR)))


def stratified_times(num_mc: int, offset: float, eps_t: float) -> np.ndarray:
    """Low-discrepancy time grid: one shared uniform offset per batch."""
    idx = np.arange(num_mc, dtype=float)
    return eps_t + (1.0 - 2.0 * eps_t) * (idx + offset) / num_mc


def noise_sequence(
    schedule: MixingSchedule, x_seq: np.ndarray, t: float, rng: np.random.Generator
) -> np.ndarray:
    """Independently resample every token from its forward marginal at t."""
    x_seq = np.asarray(x_seq, dtype=np.int64)
    n = schedule.vocab.size
    q = schedule.beta_pi(t)[np.newaxis, :].repeat(len(x_seq), axis=0)
    q[np.arange(len(x_seq)), x_seq] += schedule.alpha(t)
    cdf = np.cumsum(q, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(len(x_seq))
    return np.minimum((u[:, None] > cdf).sum(axis=1), n - 1).astype(np.int64)


def sequence_nelbo(
    schedule: MixingSchedule,
    x_seq,
    denoiser,
    num_mc: int,
    seed: int = 0,
    mode: WeightingMode = EXACT,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
) -> NelboEstimate:
    """Monte Carlo estimate of the per-token NELBO of one sequence.

    Times are drawn by a stratified low-discrepancy rule with a single shared
    offset; per-position noisy tokens are independent. Results are
    deterministic for a fixed seed.
    """
    x_seq = np.asarray(x_seq, dtype=np.int64)
    if x_seq.size == 0:
        raise MixdiffError("cannot estimate the NELBO of an empty sequence")
    for x in x_seq:
        schedule.vocab.check_token(x)
    if num_mc < 1:
        raise ValueError("num_mc must be >= 1")
    rng = np.random.default_rng(seed)
    times = stratified_times(num_mc, rng.random(), schedule.eps_t)
    per_sample = np.empty(num_mc)
    for s, t in enumerate(times):
        z_seq = noise_sequence(schedule, x_seq, t, rng)
        w, kl, is_term, _ = loss_and_grad(
            schedule, t, z_seq, x_seq, denoiser.predict(z_seq, t), mode, weight_clip
        )
        # Left-to-right sum, so an estimate does not depend on numpy's grouping.
        per_sample[s] = sum(w * (kl + is_term)) / len(x_seq)
    mean = float(per_sample.mean())
    if num_mc > 1:
        se = float(per_sample.std(ddof=1) / math.sqrt(num_mc))
    else:
        se = 0.0
    return NelboEstimate(mean_per_token=mean, std_error=se, num_mc_samples=num_mc)
