"""Desk-scale sample metrics.

Self-accuracy and unigram entropy mirror the usual generation diagnostics;
generative quality is measured exactly against the known toy distribution
(mean NLL and total-variation distance) instead of through a proxy scorer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser, ToyDistribution
from .errors import MaskedInputError


@dataclass(frozen=True)
class MetricsReport:
    self_accuracy: float | None = None
    unigram_entropy: float | None = None
    generative_nll: float | None = None
    out_of_support: int | None = None
    tv_distance: float | None = None
    sample_count: int = 0

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def self_accuracy(
    z_seq, denoiser: Denoiser, t_condition: float, mask_id: int | None = None
) -> float:
    """Fraction of positions whose token is an argmax of the raw prediction.

    Ties count as correct. Pass mask_id to reject partially denoised input.
    """
    z = np.asarray(z_seq, dtype=np.int64)
    if mask_id is not None and np.any(z == mask_id):
        raise MaskedInputError("self-accuracy requires a fully denoised sequence")
    return self_accuracy_from_probs(z, denoiser.predict(z, t_condition))


def self_accuracy_from_probs(z_seq: np.ndarray, probs: np.ndarray) -> float:
    """Fraction of positions whose token is an argmax (ties count) of its row."""
    row_max = probs.max(axis=1)
    own = probs[np.arange(len(z_seq)), z_seq]
    return float(np.mean(own >= row_max - 1e-12))


def unigram_entropy(z_seq) -> float:
    """Shannon entropy (nats) of within-sequence token frequencies."""
    z = np.asarray(z_seq, dtype=np.int64)
    if z.size == 0:
        raise ValueError("sequence must be nonempty")
    _, counts = np.unique(z, return_counts=True)
    freq = counts / counts.sum()
    return float(-(freq * np.log(freq)).sum())


def tv_distance(samples, dist: ToyDistribution) -> float:
    """Total variation between the empirical sample law and the distribution.

    Out-of-support samples contribute their full empirical mass.
    """
    counts = Counter(tuple(int(z) for z in s) for s in samples)
    n = sum(counts.values())
    if n == 0:
        raise ValueError("need at least one sample")
    seen = set(counts)
    support = {seq for seq, _ in dist.outcomes}
    total = 0.0
    for seq in seen | support:
        emp = counts.get(seq, 0) / n
        total += abs(emp - dist.prob_of(seq))
    return 0.5 * total


def tv_distance_exact(a: ToyDistribution, b: ToyDistribution) -> float:
    """TV between two enumerable distributions over the same sequence length."""
    support = {seq for seq, _ in a.outcomes} | {seq for seq, _ in b.outcomes}
    return 0.5 * sum(abs(a.prob_of(seq) - b.prob_of(seq)) for seq in support)


def generative_nll(
    samples, dist: ToyDistribution, floor: float | None = None
) -> tuple[float, int]:
    """Mean -log p(sample) in nats per sequence.

    With floor=None, out-of-support samples are excluded from the mean and
    returned as a count. With a floor, every sample contributes
    -log max(p, floor), which keeps before/after comparisons on corrupted
    inputs well defined.
    """
    nlls = []
    out = 0
    for s in samples:
        p = dist.prob_of(s)
        if p <= 0.0:
            out += 1
            if floor is not None:
                nlls.append(-math.log(floor))
        else:
            nlls.append(-math.log(p))
    mean = float(np.mean(nlls)) if nlls else float("nan")
    return mean, out
