import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiff import (
    OracleDenoiser,
    ToyDistribution,
    Vocab,
    generative_nll,
    make_schedule,
    self_accuracy,
    tv_distance,
    unigram_entropy,
)
from mixdiff.metrics import tv_distance_exact
from mixdiff.denoiser import Denoiser
from mixdiff.errors import MaskedInputError


class _OneHot(Denoiser):
    vocab = Vocab(3, 2)

    def __init__(self, target):
        self.target = np.asarray(target)

    def predict_batch(self, z_seqs, t):
        out = np.zeros(np.shape(z_seqs) + (3,))
        out[:, np.arange(len(self.target)), self.target] = 1.0
        return out


def test_self_accuracy_extremes():
    z = np.array([0, 1, 0])
    assert self_accuracy(z, _OneHot([0, 1, 0]), 0.5) == 1.0
    assert self_accuracy(z, _OneHot([1, 0, 1]), 0.5) == 0.0


def test_self_accuracy_oracle_on_valid_outcome(two_outcome):
    sched = make_schedule("mask", two_outcome.vocab)
    oracle = OracleDenoiser(two_outcome, sched)
    assert self_accuracy(np.array([1, 1]), oracle, sched.eps_t) == 1.0


def test_self_accuracy_rejects_mask():
    with pytest.raises(MaskedInputError):
        self_accuracy(np.array([0, 2]), _OneHot([0, 0]), 0.5, mask_id=2)


def test_self_accuracy_mask_id_must_be_the_denoisers(five_outcome):
    """A mask id other than the denoiser's used to call a clean outcome masked
    ([0, 1, 2] raised MaskedInputError) or score the rest as usual ([1, 2, 3])."""
    oracle = OracleDenoiser(five_outcome, make_schedule("mask", five_outcome.vocab))
    msg = f"mask id 0 does not fit the denoiser over {five_outcome.vocab!r}"
    for z in ([0, 1, 2], [1, 2, 3]):
        with pytest.raises(ValueError, match=re.escape(msg)):
            self_accuracy(z, oracle, 0.5, mask_id=0)
    assert self_accuracy([1, 2, 3], oracle, 0.5, mask_id=4) == 1.0


def test_unigram_entropy():
    assert unigram_entropy([3, 3, 3, 3]) == 0.0
    assert unigram_entropy([0, 1, 2, 3]) == pytest.approx(math.log(4))
    assert unigram_entropy([1, 1, 2, 2]) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        unigram_entropy([])


def _entropy_alone(z_seq):
    """unigram_entropy's reference: one sequence."""
    _, counts = np.unique(np.asarray(z_seq), return_counts=True)
    freq = counts / counts.sum()
    return float(-(freq * np.log(freq)).sum())


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(2, 60),
    st.sampled_from([0, -7, 2**40]),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_corpus_metrics_are_row_metrics(length, n, low, rows, seed):
    """unigram_entropy and self_accuracy of (S, L) samples give each row the
    bits of the one-sequence definitions, with repeated rows, negative and
    large ids, and rows of 8 or more distinct tokens (np.sum's pairwise
    blocks) among them."""
    rng = np.random.default_rng(seed)
    pool = low + rng.integers(0, n, (max(1, rows // 3), length))
    z = pool[rng.integers(0, len(pool), rows)]
    entropy = unigram_entropy(z)
    assert entropy.shape == (rows,)
    assert entropy.tolist() == [_entropy_alone(row) for row in z]
    assert entropy.tolist() == [unigram_entropy(row) for row in z]
    target = rng.integers(0, 3, length)
    acc = self_accuracy(z % 3, _OneHot(target), 0.5)
    assert acc.tolist() == [float(np.mean(row == target)) for row in z % 3]
    assert acc.tolist() == [self_accuracy(row, _OneHot(target), 0.5) for row in z % 3]


def test_unigram_entropy_bounded_by_log_length():
    rng = np.random.default_rng(0)
    for _ in range(50):
        length = int(rng.integers(1, 10))
        seq = rng.integers(0, 6, size=length)
        assert unigram_entropy(seq) <= math.log(length) + 1e-12


def test_tv_distance_extremes(two_outcome):
    exact = [(0, 0)] * 5 + [(1, 1)] * 5
    assert tv_distance(exact, two_outcome) == pytest.approx(0.0, abs=1e-15)
    assert tv_distance([(0, 1)] * 4, two_outcome) == 1.0
    half = tv_distance([(0, 0)] * 10, two_outcome)
    assert half == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_tv_triangle_sanity(data):
    vocab = Vocab(3, 2)
    raw_a = data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    raw_b = data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    a = ToyDistribution(
        vocab, 1, (((0,), raw_a[0] / sum(raw_a)), ((1,), raw_a[1] / sum(raw_a)))
    )
    b = ToyDistribution(
        vocab, 1, (((0,), raw_b[0] / sum(raw_b)), ((1,), raw_b[1] / sum(raw_b)))
    )
    samples = data.draw(
        st.lists(st.sampled_from([(0,), (1,)]), min_size=1, max_size=20)
    )
    assert tv_distance(samples, a) <= tv_distance(samples, b) + tv_distance_exact(b, a) + 1e-12


def test_generative_nll(two_outcome):
    nll, out = generative_nll([(0, 0), (1, 1)], two_outcome)
    assert nll == pytest.approx(math.log(2))
    assert out == 0
    nll, out = generative_nll([(0, 0), (0, 1)], two_outcome)
    assert out == 1
    assert nll == pytest.approx(math.log(2))


def _tv_one_by_one(samples, dist):
    """tv_distance counting one sample at a time, the reference for the
    distinct-row count; fsum makes its bits independent of the set's order."""
    counts = Counter(tuple(int(z) for z in s) for s in samples)
    n = sum(counts.values())
    prob = dict(dist.outcomes)
    return 0.5 * math.fsum(
        abs(counts.get(seq, 0) / n - prob.get(seq, 0.0)) for seq in set(counts) | set(prob)
    )


def _random_case(length, outcomes, distinct, rng):
    """A distribution over up to `outcomes` rows (Vocab(5, 4)) and 300 samples
    drawn from its first three outcomes and `distinct` other rows."""
    support = sorted({tuple(rng.integers(0, 4, length).tolist()) for _ in range(outcomes)})
    weights = rng.random(len(support)) + 0.01
    probs = (weights / weights.sum()).tolist()
    probs[-1] = 1.0 - sum(probs[:-1])
    dist = ToyDistribution(Vocab(5, 4), length, tuple(zip(support, probs)))
    # the mask token (4) only ever appears out of support
    pool = support[:3] + [tuple(rng.integers(0, 5, length).tolist()) for _ in range(distinct)]
    return dist, np.array([pool[i] for i in rng.integers(0, len(pool), 300)])


def _nll_one_by_one(samples, dist, floor):
    nlls, out, prob = [], 0, dict(dist.outcomes)
    for s in samples:
        p = prob.get(tuple(int(z) for z in s), 0.0)
        if p <= 0.0:
            out += 1
            if floor is not None:
                nlls.append(-math.log(floor))
        else:
            nlls.append(-math.log(p))
    return (float(np.mean(nlls)) if nlls else float("nan")), out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_sample_metrics_equal_one_by_one_counts(length, outcomes, distinct, seed):
    """Bit for bit, on samples with repeated and out-of-support rows."""
    dist, samples = _random_case(length, outcomes, distinct, np.random.default_rng(seed))
    assert tv_distance(samples, dist) == _tv_one_by_one(samples, dist)
    for floor in (None, 1e-30, 0.05):
        got = generative_nll(samples, dist, floor)
        want = _nll_one_by_one(samples, dist, floor)
        assert got[1] == want[1]
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()


def test_tv_distance_does_not_depend_on_sample_order():
    """Permuted samples, and the same samples as a list of tuples, give the
    same bits. A sum in set order used to move with the order the rows came in."""
    rng = np.random.default_rng(19)
    for _ in range(100):
        dist, samples = _random_case(int(rng.integers(1, 5)), int(rng.integers(1, 31)), 40, rng)
        tv = np.float64(tv_distance(samples, dist)).tobytes()
        assert np.float64(tv_distance(rng.permutation(samples), dist)).tobytes() == tv
        as_tuples = [tuple(row) for row in samples.tolist()]
        assert np.float64(tv_distance(as_tuples, dist)).tobytes() == tv


def test_sample_metrics_reject_rows_outside_the_vocabulary(two_outcome):
    for metric in (tv_distance, generative_nll):
        with pytest.raises(ValueError, match=r"token id 3 outside \[0, 3\)"):
            metric([(0, 0), (0, 3)], two_outcome)
        with pytest.raises(ValueError, match="batch of length 3"):
            metric([(0, 0, 0)], two_outcome)
    with pytest.raises(ValueError, match="need at least one sample"):
        tv_distance([], two_outcome)


def test_tv_distance_exact():
    vocab = Vocab(4, 3)
    a = ToyDistribution(vocab, 2, (((0, 0), 0.5), ((1, 2), 0.5)))
    b = ToyDistribution(vocab, 2, (((1, 2), 0.25), ((2, 2), 0.75)))
    assert tv_distance_exact(a, b) == tv_distance_exact(b, a) == 0.75
    assert tv_distance_exact(a, a) == 0.0


def test_tv_distance_exact_needs_one_sample_space():
    """Different lengths raised numpy's concatenate message, and different mask
    ids keyed both laws alike: these two gave 0.5."""
    a = ToyDistribution(Vocab(4, 3), 1, (((0,), 0.5), ((1,), 0.5)))
    for b in (
        ToyDistribution(Vocab(4, 3), 2, (((0, 0), 1.0),)),
        ToyDistribution(Vocab(4, 1), 1, (((0,), 1.0),)),
        ToyDistribution(Vocab(5, 4), 1, (((0,), 1.0),)),
    ):
        for x, y in ((a, b), (b, a)):
            message = (
                f"distribution of length {x.length} over {x.vocab!r} does not fit the "
                f"distribution of length {y.length} over {y.vocab!r}"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                tv_distance_exact(x, y)


def test_generative_nll_delta():
    vocab = Vocab(3, 2)
    delta = ToyDistribution(vocab, 2, (((1, 0), 1.0),))
    nll, out = generative_nll([(1, 0)] * 3, delta)
    assert nll == 0.0 and out == 0


def test_generative_nll_floor(two_outcome):
    nll, out = generative_nll([(0, 1)], two_outcome, floor=1e-30)
    assert out == 1
    assert nll == pytest.approx(-math.log(1e-30))


@pytest.mark.parametrize("floor", [0.0, -1e-30, math.nan, 2.0, math.inf])
def test_generative_nll_floor_must_lie_in_unit_interval(two_outcome, floor):
    """floor=0 raised 'math domain error', nan gave a NaN mean and 2.0 an NLL of -0.693."""
    with pytest.raises(ValueError, match=r"floor must lie in \(0, 1\], got"):
        generative_nll([(0, 1)], two_outcome, floor=floor)
