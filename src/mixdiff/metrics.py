"""Desk-scale sample metrics.

Self-accuracy and unigram entropy mirror the usual generation diagnostics;
generative quality is measured exactly against the known toy distribution
(mean NLL and total-variation distance) instead of through a proxy scorer.
"""

from __future__ import annotations

import math

import numpy as np

from .denoiser import Denoiser, ToyDistribution, _check_batch, _distinct_rows
from .schedule import check_denoised, check_fits, token_ids


def self_accuracy(
    z_seq, denoiser: Denoiser, t_condition: float, mask_id: int | None = None
) -> float | np.ndarray:
    """Fraction of positions whose token is an argmax of the raw prediction:
    a float for an (L,) sequence, an (S,) array for the rows of an (S, L)
    corpus, from one predict_batch.

    Ties count as correct. A token id outside the denoiser's vocabulary is a
    ValueError; pass mask_id, the denoiser's, to reject masked input.
    """
    z = denoiser.vocab.check_tokens(z_seq)
    if mask_id is not None:
        check_denoised(z, denoiser, mask_id, "self-accuracy")
    probs = denoiser.predict_batch(z.reshape(-1, z.shape[-1]), t_condition)
    acc = self_accuracy_from_probs(z, probs.reshape(z.shape + probs.shape[-1:]))
    return float(acc) if z.ndim == 1 else acc


def _probs_at(probs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """probs[..., i, z[..., i]]: the entry at each token of z of its row of probs."""
    return probs.reshape(-1, probs.shape[-1])[np.arange(z.size), z.ravel()].reshape(z.shape)


def self_accuracy_from_probs(z_seq: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Fraction of positions whose token is an argmax (ties count) of its row, over the
    last axis of z_seq: a count over the length, np.mean's bits without its overhead."""
    top = np.maximum.reduce(probs, axis=-1)
    return np.add.reduce(_probs_at(probs, z_seq) >= top - 1e-12, axis=-1) / z_seq.shape[-1]


def unigram_entropy(z_seq) -> float | np.ndarray:
    """Shannon entropy (nats) of within-sequence token frequencies: a float
    for an (L,) sequence, an (S,) array for the rows of (S, L) samples, each
    distinct row computed once."""
    z = token_ids(z_seq)
    if z.size == 0:
        raise ValueError("sequence must be nonempty")
    lo = int(z.min())
    rows, index = _distinct_rows(z.reshape(-1, z.shape[-1]) - lo, max(2, int(z.max()) - lo + 1))
    freqs = [np.unique(row, return_counts=True)[1] / len(row) for row in rows]
    entropy = np.array([-(freq * np.log(freq)).sum() for freq in freqs])[index]
    return float(entropy[0]) if z.ndim == 1 else entropy


def _tv(rows_a, p_a, rows_b, p_b, n: int) -> float:
    """Total variation between the law with mass p_a on the distinct rows of
    rows_a and the one with p_b on those of rows_b, tokens in [0, n): each
    row's |p_a - p_b|, summed correctly rounded, so row order cannot matter."""
    _, index = _distinct_rows(np.concatenate([rows_a, rows_b]), n)
    diff = np.bincount(index, np.concatenate([p_a, -p_b]))
    return 0.5 * math.fsum(np.abs(diff).tolist())


def tv_distance(samples, dist: ToyDistribution) -> float:
    """Total variation between the empirical sample law and the distribution.

    Out-of-support samples contribute their full empirical mass.
    """
    z = np.asarray(samples)
    if z.size == 0:
        raise ValueError("need at least one sample")
    z = _check_batch(z, dist.length, dist.vocab, "a distribution").reshape(-1, dist.length)
    rows, index = _distinct_rows(z, dist.vocab.size)
    return _tv(rows, np.bincount(index) / len(z), dist.sequences, dist.probs, dist.vocab.size)


def tv_distance_exact(a: ToyDistribution, b: ToyDistribution) -> float:
    """TV between two enumerable distributions over the same vocabulary and
    sequence length; others are a ValueError."""
    check_fits("distribution", a, "distribution", b)
    return _tv(a.sequences, a.probs, b.sequences, b.probs, a.vocab.size)


def generative_nll(
    samples, dist: ToyDistribution, floor: float | None = None
) -> tuple[float, int]:
    """Mean -log p(sample) in nats per sequence, and the count of samples
    outside the support.

    With floor=None, out-of-support samples are excluded from the mean. With
    a floor in (0, 1], each of them contributes -log(floor) instead, which
    keeps before/after comparisons on corrupted inputs well defined; samples
    in the support contribute -log p, whatever the floor.
    """
    if floor is not None and not 0.0 < floor <= 1.0:
        raise ValueError(f"floor must lie in (0, 1], got {floor!r}")
    k = dist.outcome_index(samples)
    probs = np.append(dist.probs, 0.0)
    # -log p per outcome, -log floor (or NaN) outside the support, gathered in sample order;
    # libm's log, as -math.log(p) of one sample: numpy's can differ from it in the last bit
    outside = math.nan if floor is None else -math.log(floor)
    nlls = np.array([-math.log(p) if p > 0.0 else outside for p in probs.tolist()])[k]
    inside = probs[k] > 0.0
    if floor is None:
        nlls = nlls[inside]
    mean = float(np.mean(nlls)) if nlls.size else float("nan")
    return mean, int(np.count_nonzero(~inside))
