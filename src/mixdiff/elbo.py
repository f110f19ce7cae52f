"""Per-token diffusion loss, weighting schemes, and Monte Carlo NELBO.

The per-token loss is w_t(z_t, x) * (KL + pointwise IS) where both divergences
compare the true marginal q_t(. | x) against the model marginal
q_t(. | x_theta) = alpha_t x_theta + beta_t pi_t. The weight can be the exact
schedule weight, a clamped version, or the dynamic scheme that keeps the
relative weights between mask / uniform / noise-free tokens while bounding the
maximum. `loss_and_grad` computes the loss and its logit gradient for every
position of a batch of noisy sequences, one time per row; one token is a
batch of one row of length one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MixdiffError, UnsupportedStateError
from .schedule import (
    LOG_FLOOR, MixingSchedule, Terms, check_count, check_denoised, check_fits, check_positive,
    check_seeds,
)

DEFAULT_WEIGHT_CLIP = 1e4


@dataclass(frozen=True)
class WeightingMode:
    """One of exact / clamp / dynamic, with the cap w_max where applicable."""

    kind: str
    w_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exact", "clamp", "dynamic"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        check_positive("w_max", self.w_max)


EXACT = WeightingMode("exact")
CLAMP = WeightingMode("clamp")
DYNAMIC = WeightingMode("dynamic")


@dataclass(frozen=True)
class NelboEstimate:
    mean_per_token: float
    std_error: float
    num_mc_samples: int


def _vocab_sum(v: np.ndarray) -> np.ndarray:
    """The sum over the first axis of v, the vocabulary, with the bits numpy
    gives a contiguous last axis: below 8 entries that is in order, one
    elementwise pass per plane v[k]; from 8 on it is pairwise, so the sum
    runs over a vocabulary-last copy."""
    if len(v) < 8:
        return np.add.reduce(v, axis=0)
    return np.add.reduce(np.moveaxis(v, 0, -1).copy(), axis=-1)


def softmax(work: np.ndarray) -> np.ndarray:
    """Softmax over the first axis, the vocabulary, in place on the float
    array `work`; -inf gets 0. (..., N) logits pass their transpose."""
    np.subtract(work, np.maximum.reduce(work, axis=0), out=work)
    np.exp(work, out=work)
    return np.divide(work, _vocab_sum(work), out=work)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """sum p log(p/q) over the last axis; log arguments floored at 1e-30, so
    0 log 0 = 0. A pair of vectors gives a float, stacked rows an array."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    log_ratio = np.log(np.maximum(p, LOG_FLOOR)) - np.log(np.maximum(q, LOG_FLOOR))
    kl = _vocab_sum((p * log_ratio).T).T
    return float(kl) if kl.ndim == 0 else kl


def is_divergence_pointwise(p_val, q_val) -> float | np.ndarray:
    """Elementwise Itakura-Saito divergence p/q - log(p/q) - 1."""
    p = np.asarray(p_val, dtype=float)
    q = np.asarray(q_val, dtype=float)
    if np.logical_or.reduce(p <= 0, axis=None) or np.logical_or.reduce(q <= 0, axis=None):
        raise ValueError("pointwise IS divergence needs positive arguments")
    r = p / q
    d = r - np.log(r) - 1.0
    return float(d) if d.ndim == 0 else d


def _forward(terms: Terms, x: np.ndarray) -> tuple:
    """The terms, x as (B, L) rows and, vocabulary first, alpha_t (B, 1), beta_t pi_t (N, B, 1)
    and q_t(. | x) (N, B, L): what the noise draw, _inverse_cdf(q, u), and loss_target share."""
    x, bp = np.atleast_2d(x), terms.beta_pi.T
    a, bp = np.reshape(terms.alpha, (-1, 1)), bp.reshape(len(bp), -1, 1)
    return terms, x, a, bp, bp + a * (x == np.arange(len(bp))[:, None, None])


def loss_target(
    forward: tuple,
    z: np.ndarray,
    mode: WeightingMode = EXACT,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
) -> tuple[np.ndarray, ...]:
    """The first part of loss_and_grad for (B, L) z, given the _forward of its
    clean tokens at its times: alpha_t, beta_t pi_t and q_t(. | x) as _forward
    gives them; the index of z in the flattened q_t(. | x) (a caller that scores
    a slice of rows counts it within the slice), q_t(z | x) floored at
    LOG_FLOOR, the weights and alpha_t times them: rows on axis -2 of each."""
    terms, x, a, bp, q_true = forward
    schedule, z, n = terms.schedule, np.atleast_2d(z), len(bp)
    z_index = z * z.size + np.arange(z.size).reshape(z.shape)
    p_z = q_true.take(z_index)
    if mode.kind == "dynamic":
        w = np.ones(z.shape)
        w[z == schedule.vocab.mask_id] += 1.0
        # numpy's exp, as in the closed forms: each row the bits of its time alone
        clean = (schedule.params.B / n) * np.exp(-terms.log_snr / 2.0) - 1.0
        w = mode.w_max * (w + np.where(z == x, np.reshape(clean, (-1, 1)), 0.0))
    else:
        if np.logical_or.reduce(p_z <= 0.0, axis=None):
            row, i = np.argwhere(p_z <= 0.0)[0]
            raise UnsupportedStateError(
                f"token {z[row, i]} outside forward support of {x[row, i]} "
                f"at t={float(np.broadcast_to(terms.t, len(z))[row])!r}"
            )
        w = np.reshape(terms.rate, (-1, n))[np.arange(len(a))[:, None], z] / p_z
        if weight_clip is not None:
            w = np.minimum(w, weight_clip)
        if mode.kind == "clamp":
            w = np.minimum(mode.w_max, w)
    return a, bp, q_true, z_index, np.maximum(p_z, LOG_FLOOR), w, a * w


def model_marginal(target: tuple, probs: np.ndarray) -> tuple[np.ndarray, ...]:
    """What target_loss and target_grad need of the prediction probs, shaped like
    q_t(. | x), against loss_target's `target` or a slice of its rows: probs in
    C order, q_t(. | x_theta) = alpha_t probs + beta_t pi_t floored, its entry at z."""
    a, bp, q_true, z_index, *_ = target
    s = np.ascontiguousarray(probs, dtype=float).reshape(q_true.shape)
    # The floor keeps q_model > 0, so no ratio below is 0/0.
    q_model = np.maximum(a * s + bp, LOG_FLOOR)
    return s, q_model, q_model.take(z_index)


def target_loss(target: tuple, model: tuple) -> tuple[np.ndarray, ...]:
    """The loss terms of loss_and_grad: (weight, kl, is_term)."""
    _, _, q_true, _, p_z, w, _ = target
    _, q_model, q_z = model
    kl = kl_divergence(q_true.transpose(1, 2, 0), q_model.transpose(1, 2, 0))
    return w, kl, is_divergence_pointwise(p_z, q_z)


def target_grad(target: tuple, model: tuple) -> np.ndarray:
    """The logit gradient of loss_and_grad, vocabulary first: a new C-order array."""
    _, _, q_true, z_index, p_z, _, aw = target
    s, q_model, q_z = model
    # q_model = alpha_t s + beta_t pi_t. d(KL)/dq_model = -q_true / q_model;
    # d(IS)/dq_model[z] = 1/q - p/q^2; d/ds is alpha_t w d/dq_model.
    g = np.divide(-q_true, q_model, order="C")
    g.reshape(-1)[z_index] += 1.0 / q_z - p_z / q_z**2
    g *= aw
    return s * (g - _vocab_sum(s * g))


def loss_and_grad(
    schedule: MixingSchedule,
    t,
    z: np.ndarray,
    x: np.ndarray,
    probs: np.ndarray,
    mode: WeightingMode = EXACT,
    weight_clip: float | None = DEFAULT_WEIGHT_CLIP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss terms and logit gradient of a batch of noisy sequences.

    z and x are the (B, L) noisy and clean token ids, probs the (B, L, N)
    denoiser prediction, a softmax of some logits, and t one time for every
    row or a (B,) array, one per row. A single sequence, z and x (L,) and
    probs (L, N), is a batch of one row. Returns (weight, kl, is_term, grad)
    shaped like z, z, z and probs: position i's loss is
    weight[i] * (kl[i] + is_term[i]), and grad is the gradient of the summed
    loss w.r.t. those logits. Each row has the bits it has alone. The weight
    does not depend on the logits in any mode; the exact weight is
    terms(t).rate[z] / q_t(z | x), clipped at `weight_clip`
    (training-stability guard) unless it is None. Entries with probability 0
    get gradient 0, so grad also holds for a softmax over a subset of entries.
    It is the composition of its parts: loss_target computes what does not
    depend on probs, once for rows that model_marginal, target_loss and
    target_grad then score, together or in parts, vocabulary first.
    """
    z, x = (schedule.vocab.check_tokens(v) for v in (z, x))
    target = loss_target(_forward(schedule.terms(t), x), z, mode, weight_clip)
    model = model_marginal(target, np.moveaxis(probs, -1, 0))
    w, kl, is_term = target_loss(target, model)
    grad = np.moveaxis(target_grad(target, model), 0, -1)
    shape = z.shape
    return w.reshape(shape), kl.reshape(shape), is_term.reshape(shape), grad.reshape(shape + (-1,))


def mdm_loss(schedule: MixingSchedule, t, z_t, x, x_theta: np.ndarray) -> float | np.ndarray:
    """Masked-diffusion reference loss: (alpha'/(1-alpha)) delta_{z_t,m} log x_theta[x],
    of one token or, for (B,) t, z_t and x and (B, N) x_theta, of each row.

    Only meaningful for mask-only noise; nonnegative since alpha' < 0.
    """
    z_t, x = (schedule.vocab.check_tokens(v) for v in (z_t, x))
    terms = schedule.terms(t)
    p = np.take_along_axis(np.asarray(x_theta, dtype=float), np.expand_dims(x, -1), -1)[..., 0]
    loss = terms.alpha_prime / (1.0 - terms.alpha) * np.log(np.maximum(p, LOG_FLOOR))
    return np.where(np.equal(z_t, schedule.vocab.mask_id), loss, 0.0)[()]


def _grid_times(k, n: int, eps_t: float) -> np.ndarray:
    """min(eps + (1 - 2 eps) k / n, 1 - eps) for k in [0, n]: for k near n the
    sum can round one ulp past 1 - eps, a time the schedule refuses."""
    return np.minimum(eps_t + (1.0 - 2.0 * eps_t) * k / n, 1.0 - eps_t)


def stratified_times(num_mc: int, offset: float, eps_t: float) -> np.ndarray:
    """Low-discrepancy time grid: one shared uniform offset per batch."""
    num_mc = check_count("num_mc", num_mc)
    return _grid_times(np.arange(num_mc, dtype=float) + offset, num_mc, eps_t)


def _inverse_cdf(rows: np.ndarray, u: np.ndarray, inverse=None) -> np.ndarray:
    """Exact inverse-CDF sampling over the vocabulary, the first axis of the
    normalized rows: u draws from rows, (N,) + u.shape, or with inverse from
    rows.take(inverse, axis=-1). The draw is the count of CDF entries at or
    below u, over all but the last, since u < 1: a token of probability zero
    repeats the entry before it, so u on that entry (u = 0 included) passes
    it by. The CDF sums a plane at a time and the count runs in the smallest
    integer type that holds N - 1."""
    cdf = rows[:-1].copy()
    for k in range(1, len(cdf)):
        cdf[k] += cdf[k - 1]
    below = (cdf if inverse is None else cdf.take(inverse, axis=-1)) <= u
    return np.add.reduce(below, axis=0, dtype=np.min_scalar_type(len(cdf))).astype(np.int64)


def noise_sequence(
    schedule: MixingSchedule,
    x_seq: np.ndarray,
    t,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independently resample every token from its forward marginal at t.

    x_seq is (L,) or (B, L), t one time or a (B,) array; one
    rng.random(x_seq.shape) call draws the stream B rng.random(L) calls would.
    """
    x_seq = schedule.vocab.check_tokens(x_seq)
    q = _forward(schedule.terms(t), x_seq)[-1]
    return _inverse_cdf(q, rng.random(x_seq.shape)).reshape(x_seq.shape)


# Draws per block of corpus_nelbo: what one block holds bounds the memory of
# a call, whatever the size of its corpus.
NELBO_BLOCK = 4096


def corpus_nelbo(
    schedule: MixingSchedule,
    x_seqs,
    denoiser,
    num_mc: int,
    seeds,
    mode: WeightingMode = EXACT,
) -> list[NelboEstimate]:
    """Monte Carlo estimate of the per-token NELBO of each row of an (S, L) corpus.

    Row i draws its time offset and then its (num_mc, L) uniforms from
    default_rng(seeds[i]): its num_mc times follow a stratified
    low-discrepancy rule with that one offset, and per-position noisy tokens
    are independent. The rows are noised, predicted and scored in blocks of
    about NELBO_BLOCK draws (one row at least), and each row's estimate has
    the bits it has alone.
    """
    check_fits("schedule", schedule, "denoiser", denoiser)
    x_seqs = schedule.vocab.check_tokens(x_seqs)
    if x_seqs.ndim != 2:
        raise ValueError(f"corpus must be (S, L), got shape {x_seqs.shape}")
    check_denoised(x_seqs, denoiser, schedule.vocab.mask_id, "NELBO")
    length = x_seqs.shape[1]
    if length == 0:
        raise MixdiffError("cannot estimate the NELBO of an empty sequence")
    num_mc = check_count("num_mc", num_mc)
    check_seeds(seeds, len(x_seqs))
    per_block = max(1, NELBO_BLOCK // num_mc)
    estimates = []
    for first in range(0, len(x_seqs), per_block):
        x = x_seqs[first : first + per_block].repeat(num_mc, axis=0)
        rngs = map(np.random.default_rng, seeds[first : first + per_block])
        offsets, u = zip(*[(rng.random(), rng.random((num_mc, length))) for rng in rngs])
        times = stratified_times(num_mc, np.array(offsets)[:, None], schedule.eps_t).ravel()
        forward = _forward(schedule.terms(times), x)
        z = _inverse_cdf(forward[-1], np.concatenate(u))
        target = loss_target(forward, z, mode)
        probs = np.transpose(denoiser.predict_batch(z, times), (2, 0, 1))
        w, kl, is_term = target_loss(target, model_marginal(target, probs))
        loss = (w * (kl + is_term)).reshape(len(offsets), num_mc, length)
        # Left-to-right sums over positions, whatever numpy's grouping.
        per_sample = sum(loss.transpose(2, 0, 1)) / length
        # np.mean and np.std's steps from one sum; ddof=0 on one draw gives se 0.
        mean = np.add.reduce(per_sample, axis=1, keepdims=True) / num_mc
        var = np.add.reduce(np.square(per_sample - mean), axis=1) / max(1, num_mc - 1)
        se = (np.sqrt(var) / math.sqrt(num_mc)).tolist()
        estimates += map(NelboEstimate, mean[:, 0].tolist(), se, [num_mc] * len(se))
    return estimates


def sequence_nelbo(
    schedule: MixingSchedule,
    x_seq,
    denoiser,
    num_mc: int,
    seed: int = 0,
    mode: WeightingMode = EXACT,
) -> NelboEstimate:
    """corpus_nelbo of the one sequence x_seq, drawing from default_rng(seed)."""
    return corpus_nelbo(schedule, np.asarray(x_seq)[None], denoiser, num_mc, [seed], mode)[0]
