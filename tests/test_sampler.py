import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixdiff import (
    OracleDenoiser,
    SamplerConfig,
    SelfCorrectConfig,
    ToyDistribution,
    Vocab,
    adapt_distribution,
    ancestral_sample_batch,
    make_schedule,
    noise_sequence,
    self_correct,
    self_correct_batch,
)
from mixdiff.denoiser import Denoiser
from mixdiff.errors import (
    DegenerateEvidenceError,
    EmptySupportError,
    MaskedInputError,
    OrderingError,
)
from mixdiff.elbo import _inverse_cdf, _vocab_sum
from mixdiff.sampler import (
    SelfCorrectResult,
    counter_hash,
    counter_uniforms,
    derive_seeds,
    reverse_posterior,
)
from mixdiff.schedule import Terms
from conftest import random_prediction, transient_peak


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(num_steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(min_p=1.0)
    grid = SamplerConfig(num_steps=16).time_grid(1e-4)
    assert len(grid) == 17
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1 - 1e-4)


def test_time_grid_ends_inside_the_schedule_range(five_outcome):
    """eps + (1 - 2 eps) T / T rounds above 1 - eps at T = 5, so a 5-step
    sample raised TimeRangeError at its first step."""
    for steps in range(1, 300):
        grid = SamplerConfig(num_steps=steps).time_grid(1e-4)
        assert grid[-1] <= 1.0 - 1e-4 and grid[-1] == pytest.approx(1.0 - 1e-4)
        assert np.all(np.diff(grid) > 0)
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    z = ancestral_sample_batch(sched, 3, OracleDenoiser(five_outcome, sched), SamplerConfig(5), 4)
    assert z.shape == (4, 3)


def test_adapt_distribution_identity():
    p = np.array([0.7, 0.2, 0.1])
    np.testing.assert_array_equal(adapt_distribution(p, 1.0, 0.0), p)


def test_adapt_distribution_min_p():
    out = adapt_distribution(np.array([0.7, 0.2, 0.1]), 1.0, 0.15)
    np.testing.assert_allclose(out, [7 / 9, 2 / 9, 0.0], atol=1e-12)
    with pytest.raises(EmptySupportError):
        adapt_distribution(np.array([0.4, 0.3, 0.3]), 1.0, 0.5)


def test_adapt_distribution_zero_temperature_limit():
    p = np.array([0.3, 0.4, 0.3])
    np.testing.assert_array_equal(adapt_distribution(p, 1e-12), [0.0, 1.0, 0.0])
    # exact tie: lowest index wins
    p = np.array([0.4, 0.4, 0.2])
    np.testing.assert_array_equal(adapt_distribution(p, 1e-12), [1.0, 0.0, 0.0])


def test_adapt_distribution_temperature_sharpens():
    p = np.array([0.6, 0.4])
    sharp = adapt_distribution(p, 0.5)
    assert sharp[0] > 0.6
    assert sharp.sum() == pytest.approx(1.0)


def _step(sched, z, t_from, t_to, denoiser, config, u):
    """One reverse step of the (B, L) rows z with their (B, L) uniforms, composed
    as in ancestral_sample_batch but with no rows shared."""
    preds = denoiser.predict_batch(z, t_from)
    preds = adapt_distribution(preds, config.temperature, config.min_p).T
    post = reverse_posterior(sched.terms(t_from), sched.terms(t_to), z, preds)
    return _inverse_cdf(post, u.T).T


def _posterior_of(sched, z, t_from, t_to, row):
    """reverse_posterior of the (B, L) rows z with the prediction `row` at every position."""
    z = np.asarray(z)
    preds = np.broadcast_to(np.asarray(row, dtype=float)[:, None, None], (len(row),) + z.T.shape)
    return reverse_posterior(sched.terms(t_from), sched.terms(t_to), z, preds)


def test_denoise_step_matches_brute_force_kernel():
    """The posterior equals the one-step backward kernel Q_{t|s}[z_t, z_s] q_s(z_s | x_theta)."""
    rng = np.random.default_rng(17)
    vocab = Vocab(5, 4)
    for kind in ("mask", "hybrid"):
        sched = make_schedule(kind, vocab, p_u=0.2 if kind == "hybrid" else 0.0)
        for _ in range(8):
            t_to, t_from = np.sort(1e-3 + 0.998 * rng.random(2))
            x_theta = rng.random(5)
            x_theta[4] = 0.0
            x_theta /= x_theta.sum()
            q_to = sched.marginal_mix(t_to, x_theta)
            trans = sched.conditional_transition(t_to, t_from)
            kernel = trans.matrix() * q_to
            kernel /= kernel.sum(axis=1, keepdims=True)
            got = _posterior_of(sched, np.arange(5)[None], float(t_from), float(t_to), x_theta)
            np.testing.assert_allclose(got[:, :, 0].T, kernel, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [5, 9, 12])
def test_denoise_step_draws_on_the_entries_of_the_last_axis_cdf(n):
    """With u on each entry of the posterior's CDF as the step once formed it,
    vocabulary last (numpy sums a contiguous last axis pairwise from 8
    entries on), _inverse_cdf of reverse_posterior counts that entry: the
    posterior keeps its bits."""
    sched = make_schedule("hybrid", Vocab(n, n - 1), p_u=0.2)
    row = random_prediction(np.random.default_rng(n), n, n - 1)
    z, t_to, t_from = np.arange(n), 0.3, 0.6
    at_to = sched.terms(t_to)
    trans = at_to.to(sched.terms(t_from))
    q_to = at_to.alpha * row + at_to.beta_pi
    v = trans.beta_pi_ts[z][:, None] * q_to
    v += trans.alpha_ts * q_to * (z[:, None] == np.arange(n))
    cdf = np.add.accumulate((v / np.add.reduce(v, axis=-1, keepdims=True))[:, :-1], axis=-1)
    post = _posterior_of(sched, z[None], t_from, t_to, row)
    for u in cdf.T:
        got = _inverse_cdf(post, u[:, None])[:, 0]
        np.testing.assert_array_equal(got, np.add.reduce(cdf <= u[:, None], axis=-1))


def test_denoise_step_no_op_when_times_equal(two_outcome):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(two_outcome, sched)
    z = np.array([[2, 0]])
    post = reverse_posterior(sched.terms(0.4), sched.terms(0.4), z, oracle.predict_batch(z, 0.4).T)
    np.testing.assert_array_equal(post[:, :, 0].T, np.eye(3)[[2, 0]])
    u = np.random.default_rng(0).random(z.shape)
    np.testing.assert_array_equal(_inverse_cdf(post, u.T).T, z)


def test_denoise_step_ordering_error(two_outcome):
    sched = make_schedule("mask", two_outcome.vocab)
    oracle = OracleDenoiser(two_outcome, sched)
    z = np.array([[2, 2]])
    with pytest.raises(OrderingError):
        reverse_posterior(sched.terms(0.2), sched.terms(0.8), z, oracle.predict_batch(z, 0.2).T)


def test_one_step_recovery_mask_only(vocab3):
    """A perfect denoiser recovers the truth in one full-range step."""
    dist = ToyDistribution(vocab3, 2, (((0, 1), 1.0),))
    sched = make_schedule("mask", vocab3)
    oracle = OracleDenoiser(dist, sched)
    config = SamplerConfig(num_steps=1)
    rng = np.random.default_rng(0)
    hits = 0
    trials = 500
    z = np.array([[2, 2]])
    for _ in range(trials):
        out = _step(sched, z, 1 - 1e-4, 1e-4, oracle, config, rng.random(z.shape))
        hits += int(np.array_equal(out[0], [0, 1]))
    # per-token unmask probability is (1 - 2 eps) / (1 - eps) > 1 - 1e-3
    assert hits / trials > 0.99


def _posterior_by_hand(sched, z, t_from, t_to, preds):
    """The (N, L, D) posterior as the fused step formed it, for bit comparisons."""
    at_to = sched.terms(t_to)
    trans = at_to.to(sched.terms(t_from))
    q_to = at_to.alpha * preds + at_to.beta_pi[:, None, None]
    v = trans.beta_pi_ts[z.T] * q_to
    v += trans.alpha_ts * q_to * (z.T == np.arange(len(q_to))[:, None, None])
    return v / _vocab_sum(v)


@pytest.mark.parametrize("kind", ["mask", "hybrid"])
def test_reverse_posterior_carries_a_revealed_token_over(kind, five_outcome):
    """A prediction with no mass on a revealed token left the posterior no
    support under `mask`, and the step raised EmptySupportError. Masking never
    changes a revealed token, so the posterior is one-hot there. Under hybrid
    noise every position has support, and the posterior keeps its bits."""
    sched = make_schedule(kind, five_outcome.vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    z = np.array([[2, 4, 2], [0, 4, 4]])
    preds = np.broadcast_to(np.eye(5)[:, [0]][:, :, None], (5, 3, 2))
    post = reverse_posterior(sched.terms(0.6), sched.terms(0.3), z, preds)
    revealed = z.T == 2
    if kind == "mask":
        np.testing.assert_array_equal(post[:, revealed], np.eye(5)[:, [2, 2]])
        with np.errstate(invalid="ignore"):
            by_hand = _posterior_by_hand(sched, z, 0.6, 0.3, preds)
        np.testing.assert_array_equal(post[:, ~revealed], by_hand[:, ~revealed])
    else:
        np.testing.assert_array_equal(post, _posterior_by_hand(sched, z, 0.6, 0.3, preds))
        assert np.all(post[0, revealed] > 0.0)


_PREDICTION = st.one_of(
    st.integers(0, 4).map(lambda k: np.eye(5)[k]),
    st.lists(st.sampled_from([0.0, 1e-300, 0.5]) | st.floats(0.0, 1.0), min_size=5, max_size=5)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: np.array(w) / sum(w)),
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["mask", "hybrid"]),
    times=st.tuples(st.floats(1e-4, 1 - 1e-4), st.floats(1e-4, 1 - 1e-4)),
    cells=st.lists(st.tuples(st.integers(0, 4), _PREDICTION), min_size=1, max_size=6),
)
@example(kind="mask", times=(0.3, 0.3), cells=[(0, np.eye(5)[1]), (4, np.eye(5)[1])])
def test_reverse_posterior_never_fails(kind, times, cells):
    """Over s <= t, rows that include the mask, and non-negative predictions
    with zero entries and one-hots, the posterior never raises, its rows sum
    to one, and it puts mass only where Q_{t|s}(z_t | z_s) > 0."""
    sched = make_schedule(kind, Vocab(5, 4), p_u=0.2 if kind == "hybrid" else 0.0)
    t_to, t_from = sorted(times)
    z = np.array([[token for token, _ in cells] + [4]])
    preds = np.array([pred for _, pred in cells] + [np.eye(5)[0]]).T[:, :, None]
    post = reverse_posterior(sched.terms(t_from), sched.terms(t_to), z, preds)
    assert post.shape == preds.shape
    np.testing.assert_allclose(post.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    allowed = sched.conditional_transition(t_to, t_from).matrix()[z[0]].T > 0.0
    assert np.all(post[:, :, 0][~allowed] == 0.0)
    assert np.all(post >= 0.0)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["mask", "hybrid"]),
    t_to=st.floats(0.01, 0.99),
    ulps=st.integers(0, 4),
    cells=st.lists(st.tuples(st.integers(0, 4), _PREDICTION), min_size=1, max_size=6),
)
@example(kind="hybrid", t_to=0.5133211177795141, ulps=1, cells=[(0, np.eye(5)[1])])
def test_forward_kernel_is_never_negative(kind, t_to, ulps, cells):
    """Between times a few ulps apart, beta_t pi_t - alpha_ts beta_s pi_s
    rounded to -6.9e-18 under hybrid noise, and the posterior of a revealed
    token then had an entry of -1.9e-17. Every kernel entry and every
    posterior entry is >= 0, and the kernel's columns sum to one."""
    sched = make_schedule(kind, Vocab(5, 4), p_u=0.2 if kind == "hybrid" else 0.0)
    t_from = t_to
    for _ in range(ulps):
        t_from = np.nextafter(t_from, 1.0)
    at_from, at_to = sched.terms(t_from), sched.terms(t_to)
    trans = at_to.to(at_from)
    assert np.all(trans.beta_pi_ts >= 0.0)
    np.testing.assert_allclose(trans.matrix().sum(axis=0), 1.0, rtol=0, atol=1e-12)
    z = np.array([[token for token, _ in cells]])
    preds = np.array([pred for _, pred in cells]).T[:, :, None]
    assert np.all(reverse_posterior(at_from, at_to, z, preds) >= 0.0)


def test_ancestral_sample_single_outcome(vocab3):
    dist = ToyDistribution(vocab3, 2, (((1, 0), 1.0),))
    sched = make_schedule("mask", vocab3)
    oracle = OracleDenoiser(dist, sched)
    out = ancestral_sample_batch(sched, 2, oracle, SamplerConfig(num_steps=1, seed=0), 1)[0]
    np.testing.assert_array_equal(out, [1, 0])


def test_ancestral_sample_deterministic(two_outcome):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.05)
    oracle = OracleDenoiser(two_outcome, sched)
    config = SamplerConfig(num_steps=16, seed=42)
    a = ancestral_sample_batch(sched, 2, oracle, config, 8)
    b = ancestral_sample_batch(sched, 2, oracle, config, 8)
    np.testing.assert_array_equal(a, b)


def test_ancestral_sample_batch_split_invariant(two_outcome):
    """The first k rows of a batch equal, bit for bit, a k-row batch."""
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.05)
    oracle = OracleDenoiser(two_outcome, sched)
    config = SamplerConfig(num_steps=16, seed=5)
    batch = ancestral_sample_batch(sched, 2, oracle, config, 4)
    for k in range(1, 4):
        prefix = ancestral_sample_batch(sched, 2, oracle, config, k)
        np.testing.assert_array_equal(batch[:k], prefix)


def test_nearby_seeds_share_no_rows(five_outcome):
    """With seed ^ i, row 0 of seed 1 was row 1 of seed 0, so seeds 0 and 1
    gave the same multiset of 8 samples."""
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(five_outcome, sched)

    def multiset(seed):
        config = SamplerConfig(num_steps=16, seed=seed)
        return sorted(map(tuple, ancestral_sample_batch(sched, 3, oracle, config, 8).tolist()))

    assert multiset(0) != multiset(1)


def test_sampler_config_seed_range():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=seed)
    SamplerConfig(seed=2**64 - 1)
    assert counter_uniforms(2**64 - 1, 1, 2, 3).shape == (2, 3)


@pytest.mark.parametrize("config", [SamplerConfig, SelfCorrectConfig])
@pytest.mark.parametrize("seed", [1.5, 2.0, "1", None])
def test_seed_must_be_an_integer(config, seed):
    """SamplerConfig(seed=1.5) used to sample as seed 1, and
    SelfCorrectConfig(seed=1.5) to fail later inside numpy."""
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\) and be an integer"):
        config(seed=seed)
    assert config(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_counter_uniforms_contract():
    block = counter_uniforms(0, 3, 1000, 8)
    assert block.shape == (1000, 8) and block.dtype == np.float64
    assert block.min() >= 0.0 and block.max() < 1.0
    assert abs(block.mean() - 0.5) < 0.01
    np.testing.assert_array_equal(block, counter_uniforms(0, 3, 1000, 8))
    # entry (i, j) hashes (seed, i, step, j), so a smaller block is a prefix
    np.testing.assert_array_equal(block[:370, :5], counter_uniforms(0, 3, 370, 5))
    for i, j in ((0, 0), (1, 0), (0, 1), (999, 7)):
        assert block[i, j] == int(counter_hash(0, i, 3, j)[0] >> np.uint64(11)) * 2.0**-53
    # other seeds and other steps give unrelated blocks: no shared row and no
    # correlation beyond chance (standard error 1/sqrt(8000) ~ 0.011)
    for other in (counter_uniforms(1, 3, 1000, 8), counter_uniforms(0, 2, 1000, 8)):
        assert not set(map(tuple, block.tolist())) & set(map(tuple, other.tolist()))
        assert abs(np.corrcoef(block.ravel(), other.ravel())[0, 1]) < 0.05
    # seed 1's rows are not seed 0's rows shifted by one (the seed ^ i defect)
    assert not np.any(counter_uniforms(1, 3, 999, 8) == block[1:])


def _splitmix_chain(*keys) -> int:
    """counter_hash's reference in pure Python: SplitMix64's finaliser chained
    over the keys, each going in as mix((h ^ key) + golden), on ints masked
    to 64 bits."""
    mask, h = 2**64 - 1, 0
    for key in keys:
        x = ((h ^ key) + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        h = x ^ (x >> 31)
    return h


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    step=st.integers(0, 2**64 - 1),
    count=st.integers(1, 5),
    length=st.integers(1, 4),
)
@example(seed=2**64 - 1, step=1, count=3, length=2)
@example(seed=0, step=0, count=1, length=1)
def test_counter_streams_match_splitmix_reference(seed, step, count, length):
    """counter_hash and counter_uniforms, whose rows are hashed once and whose
    steps continue the chain in place, equal the chain computed key by key."""
    assert int(counter_hash(seed)[0]) == _splitmix_chain(seed)
    block = counter_uniforms(seed, step, count, length)
    assert block.shape == (count, length) and block.dtype == np.float64
    for i in range(count):
        for j in range(length):
            h = _splitmix_chain(seed, i, step, j)
            assert int(counter_hash(seed, i, step, j)[0]) == h
            assert block[i, j] == (h >> 11) * 2.0**-53


class _Recording(Denoiser):
    """Wraps a denoiser and keeps every batch it is asked to predict."""

    def __init__(self, inner):
        self.inner, self.vocab = inner, inner.vocab
        self.batches = []

    def predict_batch(self, z_seqs, t):
        self.batches.append(np.array(z_seqs))
        return self.inner.predict_batch(z_seqs, t)


def _or_error(run, *args):
    try:
        return run(*args)
    except (EmptySupportError, DegenerateEvidenceError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["mask", "hybrid"]),
    adapt=st.sampled_from(
        [(1.0, 0.0), (0.5, 0.0), (2.0, 0.0), (1e-12, 0.0), (1.0, 0.2), (0.7, 0.1)]
    ),
    steps=st.integers(1, 6),
    count=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
)
def test_deduplicated_step_equals_rows_stepped_alone(kind, adapt, steps, count, seed):
    """Rows that agree share one prediction and one posterior; each row still
    draws with its own uniforms, so the sample equals the step loop that
    shares nothing, and the denoiser sees each step's distinct rows once."""
    outcomes = (((0, 1, 2), 0.5), ((1, 1, 0), 0.3), ((2, 0, 0), 0.2))
    dist = ToyDistribution(Vocab(4, 3), 3, outcomes)
    sched = make_schedule(kind, dist.vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    config = SamplerConfig(num_steps=steps, temperature=adapt[0], min_p=adapt[1], seed=seed)
    shared, alone = _Recording(OracleDenoiser(dist, sched)), _Recording(OracleDenoiser(dist, sched))
    batch = _or_error(ancestral_sample_batch, sched, 3, shared, config, count)
    loop = _or_error(_sample_batch_loop, sched, 3, alone, config, count)
    assert len(shared.batches) == len(alone.batches)
    for seen, rows in zip(shared.batches, alone.batches):
        np.testing.assert_array_equal(seen, np.unique(rows, axis=0))
    if isinstance(loop, type):
        assert batch is loop
    else:
        np.testing.assert_array_equal(batch, loop)


def test_ancestral_sample_two_outcome_frequencies(two_outcome):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.01)
    oracle = OracleDenoiser(two_outcome, sched)
    samples = ancestral_sample_batch(
        sched, 2, oracle, SamplerConfig(num_steps=128, seed=7), 4000
    )
    zero_freq = np.mean([tuple(s) == (0, 0) for s in samples])
    sigma = 0.5 / np.sqrt(4000)
    assert abs(zero_freq - 0.5) < 3 * sigma + 0.01  # small slack for residual noise


def test_self_correct_config_validation():
    with pytest.raises(ValueError):
        SelfCorrectConfig(patience=0)
    with pytest.raises(ValueError):
        SelfCorrectConfig(temperature=0.0)
    for max_iters in (0, -1):
        with pytest.raises(ValueError, match="max_iters"):
            SelfCorrectConfig(max_iters=max_iters)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SelfCorrectConfig(seed=seed)


def test_self_correct_fixed_point(two_outcome):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(two_outcome, sched)
    result = self_correct(
        np.array([0, 0]),
        oracle,
        SelfCorrectConfig(temperature=1e-12, seed=0),
        two_outcome.vocab.mask_id,
    )
    assert result.converged
    assert result.iterations == 1
    assert result.edits == 0
    np.testing.assert_array_equal(result.sequence, [0, 0])


def test_self_correct_repairs_single_corruption(vocab3):
    dist = ToyDistribution(vocab3, 4, (((0, 0, 0, 0), 0.5), ((1, 1, 1, 1), 0.5)))
    sched = make_schedule("hybrid", vocab3, p_u=0.2)
    oracle = OracleDenoiser(dist, sched)
    result = self_correct(
        np.array([0, 0, 1, 0]),
        oracle,
        SelfCorrectConfig(temperature=0.1, seed=1),
        vocab3.mask_id,
    )
    np.testing.assert_array_equal(result.sequence, [0, 0, 0, 0])
    assert result.iterations <= 3
    assert len(result.self_accuracy_trajectory) == result.iterations


def test_self_correct_rejects_masked_input(two_outcome_oracle):
    oracle, _ = two_outcome_oracle
    with pytest.raises(MaskedInputError):
        self_correct(np.array([2, 0]), oracle, SelfCorrectConfig(), 2)


def test_sample_batch_same_bits(two_outcome, five_outcome):
    """sha256 of a hybrid oracle sample on the counter-based stream.

    Recorded when the per-row `seed ^ i` generators gave way to the hashed
    stream, which changed every sample drawn for a given seed on purpose; the
    old stream's digest was 2df9c4c85079d2b6b2d7e08350e6250229da30b2e6d91673a8d30a0651a3c73e.
    """
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    z = ancestral_sample_batch(
        sched, 2, OracleDenoiser(two_outcome, sched), SamplerConfig(num_steps=16, seed=3), 256
    )
    assert z.dtype == np.int64 and z.shape == (256, 2)
    digest = "bc34a1409f940a1d95456dfd06233eb1869cd579064dfb5b26c3de7550dddafe"
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest

    # Criterion 9's size, where a step keys its rows by marking the key space
    # rather than sorting; recorded before that keying and the token-major draw.
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.01)
    z = ancestral_sample_batch(
        sched, 3, OracleDenoiser(five_outcome, sched), SamplerConfig(num_steps=8, seed=4), 20000
    )
    assert z.dtype == np.int64 and z.shape == (20000, 3)
    digest = "b2c7a559e1489e65f155202787f1c9d994e8bb2e7de05c206c7e5aad5d540a3c"
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest


def _wide_distribution(n):
    """Six outcomes of length 4 over every data token of Vocab(n, n - 1)."""
    seqs = [tuple((3 * k + j) % (n - 1) for j in range(4)) for k in range(6)]
    return ToyDistribution(Vocab(n, n - 1), 4, tuple(zip(seqs, (0.3, 0.2, 0.2, 0.1, 0.1, 0.1))))


# sha256 of draws over vocabularies of 9 and 12 tokens, where the sums over
# the vocabulary run pairwise; recorded before the reverse step built its
# posterior vocabulary first.
WIDE_VOCAB_PINS = {
    (9, "temperature"): "10639ba8c86d6922246ed5b1e2cdbaa29f8f2261ba5c0d0be4fc84f405cb9c0d",
    (9, "min_p"): "e8643d281826284bab83bd4afad4f79deb98e049b403830b11bb38eb0f7e091a",
    (9, "noise"): "729d0febb632b1934387933de59644a5d9c44ead1df56c301e8cab531feaa152",
    (12, "temperature"): "3a041b8386984b36926127f7e16f887fe22df23c5e1539afb66a06799e567a09",
    (12, "min_p"): "94b7e5a5e82a71662964099fc1236dadf672523a978671f145a864a771922d72",
    (12, "noise"): "bf7c66947c200ce068a9f9b154e1aa49ec24aa8fe79a17958ed9f2d12d6e8404",
}


@pytest.mark.parametrize("n, case", list(WIDE_VOCAB_PINS))
def test_wide_vocabulary_draws_same_bits(n, case):
    """A 16-step hybrid sample of 3000 rows (temperature 0.8, or min_p 0.1)
    and the forward noise of 3000 rows at spread times keep their bits."""
    dist = _wide_distribution(n)
    sched = make_schedule("hybrid", dist.vocab, p_u=0.2)
    if case == "noise":
        rng = np.random.default_rng(n)
        t = rng.uniform(sched.eps_t, 1.0 - sched.eps_t, 3000)
        z = noise_sequence(sched, dist.sample(rng, 3000), t, rng)
    else:
        adapt = {"temperature": 0.8} if case == "temperature" else {"min_p": 0.1}
        config = SamplerConfig(num_steps=16, seed=n, **adapt)
        z = ancestral_sample_batch(sched, 4, OracleDenoiser(dist, sched), config, 3000)
    assert z.dtype == np.int64 and z.shape == (3000, 4)
    assert hashlib.sha256(z.tobytes()).hexdigest() == WIDE_VOCAB_PINS[n, case]


class _Untouchable(Denoiser):
    def predict_batch(self, z_seqs, t):
        raise AssertionError("the denoiser must not be called")


@pytest.mark.parametrize("count", [0, -3])
def test_sample_batch_needs_a_row(two_outcome, count):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    with pytest.raises(ValueError, match="count must be >= 1"):
        ancestral_sample_batch(sched, 2, _Untouchable(), SamplerConfig(), count)


def test_sample_batch_needs_a_position(two_outcome):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    with pytest.raises(ValueError, match="length must be >= 1"):
        ancestral_sample_batch(sched, 0, _Untouchable(), SamplerConfig(), 4)


@pytest.mark.parametrize("steps", [1, 2, 16])
def test_sample_evaluates_the_schedule_once_per_step(five_outcome, steps):
    """An N-step sample evaluates the closed forms at its N + 1 grid times
    once each: a step's first time is the step before's last, and the oracle
    and the transition read the step's evaluations."""
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(five_outcome, sched)
    init = Terms.__init__
    with mock.patch.object(Terms, "__init__", autospec=True, side_effect=init) as counted:
        ancestral_sample_batch(sched, 3, oracle, SamplerConfig(num_steps=steps), 64)
    assert counted.call_count == steps + 1


def test_sample_batch_of_other_length_than_the_oracle_is_named_error(five_outcome):
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(five_outcome, sched)
    with pytest.raises(ValueError, match="batch of length 4 for an oracle of length 3"):
        ancestral_sample_batch(sched, 4, oracle, SamplerConfig(num_steps=2), 8)


_FIVE = ToyDistribution(
    Vocab(5, 4),
    3,
    (((0, 1, 2), 0.3), ((1, 2, 3), 0.25), ((2, 3, 0), 0.2), ((3, 0, 1), 0.15), ((0, 0, 0), 0.1)),
)


def _sample_batch_loop(schedule, length, denoiser, config, count):
    """ancestral_sample_batch's reference, as it was before the row hash was
    hoisted out of the steps and the rows shared: a row-major batch, and
    counter_uniforms and _step at every step."""
    grid = config.time_grid(schedule.eps_t)
    z = np.full((count, length), schedule.vocab.mask_id, dtype=np.int64)
    for i in range(config.num_steps, 0, -1):
        u = counter_uniforms(config.seed, i, count, length)
        z = _step(schedule, z, float(grid[i]), float(grid[i - 1]), denoiser, config, u)
    return z


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(1, 400),
    steps=st.integers(1, 12),
    p_u=st.sampled_from([0.01, 0.2]),
)
@example(seed=2**64 - 1, count=20, steps=3, p_u=0.2)  # 125 keys <= 8 * 20: marks
@example(seed=7, count=15, steps=3, p_u=0.2)  # 125 keys > 8 * 15: sorts
def test_sample_batch_equals_step_loop(seed, count, steps, p_u):
    """The position-major chain draws the same bits as the step loop, and
    returns a C-contiguous int64 array."""
    sched = make_schedule("hybrid", _FIVE.vocab, p_u=p_u)
    oracle = OracleDenoiser(_FIVE, sched)
    config = SamplerConfig(num_steps=steps, seed=seed)
    z = ancestral_sample_batch(sched, 3, oracle, config, count)
    assert z.dtype == np.int64 and z.flags.c_contiguous and z.shape == (count, 3)
    np.testing.assert_array_equal(z, _sample_batch_loop(sched, 3, oracle, config, count))


def _self_correct_alone(z_seq, denoiser, config, mask_id):
    """self_correct's reference, as it was before self_correct_batch: one
    sequence, one predict per iteration."""
    z = np.asarray(z_seq, dtype=np.int64).copy()
    rng = np.random.default_rng(config.seed)
    trajectory, best_acc, best_z, stall, edits, converged = [], -1.0, z.copy(), 0, 0, False
    for iterations in range(1, config.max_iters + 1):
        probs = denoiser.predict_batch(z[None], config.t_condition)[0]
        own = probs[np.arange(len(z)), z]
        acc = float(np.mean(own >= probs.max(axis=1) - 1e-12))
        trajectory.append(acc)
        if acc > best_acc + 1e-15:
            best_acc, best_z, stall = acc, z.copy(), 0
        else:
            stall += 1
        tempered = adapt_distribution(probs, config.temperature)
        proposal = _inverse_cdf(tempered.T, rng.random(len(z)))
        disagree = np.flatnonzero(proposal != z)
        if disagree.size == 0:
            converged = True
            break
        if stall >= config.patience:
            break
        j = disagree[int(np.argmax(tempered[disagree, proposal[disagree]]))]
        z[j] = proposal[j]
        edits += 1
    return SelfCorrectResult(best_z, iterations, tuple(trajectory), converged, edits)


def _same_result(a, b):
    return (
        a.sequence.dtype == b.sequence.dtype
        and a.sequence.tobytes() == b.sequence.tobytes()
        and (a.iterations, a.self_accuracy_trajectory, a.converged, a.edits)
        == (b.iterations, b.self_accuracy_trajectory, b.converged, b.edits)
    )


_SC_VOCAB = Vocab(5, 4)
_SC_DIST = ToyDistribution(
    _SC_VOCAB, 6, (((0,) * 6, 0.3), ((1,) * 6, 0.25), ((2,) * 6, 0.25), ((3,) * 6, 0.2))
)
_SC_ORACLE = OracleDenoiser(_SC_DIST, make_schedule("hybrid", _SC_VOCAB, p_u=0.2))


def _stop_reason(result, config):
    if result.converged:
        return "converged"
    return "max_iters" if result.iterations == config.max_iters else "patience"


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([0.1, 1.0, 3.0]),
    st.sampled_from([1e-4, 0.9]),
    st.integers(1, 4),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([1, 3, 256]),
    st.integers(0, 2**32 - 1),
)
def test_self_correct_batch_rows_are_rows_alone(
    temperature, t_condition, patience, max_iters, rows, block, seed
):
    """Row b of self_correct_batch(Z) equals self_correct of that row alone and
    the one-sequence loop it replaced, for every stop reason and block size."""
    rng = np.random.default_rng(seed)
    clean = _SC_DIST.sample(rng, rows)
    z = np.where(rng.random(clean.shape) < 0.3, rng.integers(0, 4, clean.shape), clean)
    seeds = rng.integers(0, 2**63, rows).tolist()
    config = SelfCorrectConfig(temperature, max_iters, patience, t_condition)
    with mock.patch("mixdiff.sampler.CORRECT_BLOCK", block):
        results = self_correct_batch(z, _SC_ORACLE, config, 4, seeds)
    assert len(results) == rows
    for b, result in enumerate(results):
        row_config = SelfCorrectConfig(temperature, max_iters, patience, t_condition, seeds[b])
        assert _same_result(result, self_correct(z[b], _SC_ORACLE, row_config, 4))
        assert _same_result(result, _self_correct_alone(z[b], _SC_ORACLE, row_config, 4))


def test_self_correct_batch_stops_each_row_for_its_own_reason():
    """One batch whose rows stop by converging, by patience and by max_iters,
    each with the result it gets alone."""
    rng = np.random.default_rng(3)
    z = np.where(rng.random((40, 6)) < 0.3, rng.integers(0, 4, (40, 6)), _SC_DIST.sample(rng, 40))
    config = SelfCorrectConfig(temperature=3.0, max_iters=6, patience=3, t_condition=0.9)
    seeds = derive_seeds(17, 40)
    results = self_correct_batch(z, _SC_ORACLE, config, 4, seeds)
    assert {_stop_reason(r, config) for r in results} == {"converged", "patience", "max_iters"}
    for b, result in enumerate(results):
        alone = _self_correct_alone(z[b], _SC_ORACLE, SelfCorrectConfig(3.0, 6, 3, 0.9, seeds[b]), 4)
        assert _same_result(result, alone)


def test_self_correct_batch_rejects_bad_input():
    config = SelfCorrectConfig()
    with pytest.raises(ValueError, match="1 seeds for 2 sequences"):
        self_correct_batch(np.zeros((2, 6), dtype=np.int64), _SC_ORACLE, config, 4, [0])
    with pytest.raises(MaskedInputError):
        self_correct_batch([[0] * 6, [0, 4, 0, 0, 0, 0]], _SC_ORACLE, config, 4, [0, 1])


@pytest.mark.parametrize("corpus", [[0, 1, 0, 1, 0, 1], [[[0, 1, 0, 1, 0, 1]]]], ids=["1d", "3d"])
def test_self_correct_batch_corpus_of_another_rank_is_named_error(corpus):
    with pytest.raises(ValueError, match=r"corpus must be \(S, L\), got shape \((6,|1, 1, 6)\)$"):
        self_correct_batch(corpus, _SC_ORACLE, SelfCorrectConfig(), 4, [0])


@pytest.mark.parametrize("seed", [1.5, -1, 2**64], ids=["float", "negative", "wide"])
def test_self_correct_batch_bad_row_seed_is_named_error(seed):
    z = np.zeros((2, 6), dtype=np.int64)
    with pytest.raises(ValueError, match=rf"seed must lie in .* got {seed!r}$"):
        self_correct_batch(z, _SC_ORACLE, SelfCorrectConfig(), 4, [0, seed])


def test_self_correct_batch_memory_does_not_grow_with_the_corpus():
    """Blocks bound the prediction arrays, the state and the per-row
    generators: ten times the corpus stays within 1.5 times the working memory."""
    config = SelfCorrectConfig(temperature=0.1)
    peaks = []
    for rows in (400, 4000):
        rng = np.random.default_rng(rows)
        clean = _SC_DIST.sample(rng, rows)
        z = np.where(rng.random(clean.shape) < 0.2, rng.integers(0, 4, clean.shape), clean)
        seeds = derive_seeds(rows, rows)
        peaks.append(transient_peak(lambda: self_correct_batch(z, _SC_ORACLE, config, 4, seeds)))
    assert peaks[1] <= 1.5 * peaks[0]


def test_derive_seeds_hash_the_row_index():
    """Seed i is the hash of (seed, i), whatever the count."""
    for seed in (0, 5, 2**64 - 1):
        seeds = derive_seeds(seed, 300)
        assert seeds == [int(counter_hash(seed, i)[0]) for i in range(300)]
        assert derive_seeds(seed, 7) == seeds[:7]
        assert all(isinstance(s, int) for s in seeds)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("config", [SamplerConfig, SelfCorrectConfig])
def test_configs_reject_non_finite_temperature(config, bad):
    """temperature = nan used to construct; sampling then wrote all-zero samples."""
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        config(temperature=bad)
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        adapt_distribution(np.array([0.5, 0.5]), bad)


def _adapt_by_gather(p, temperature):
    """adapt_distribution's tempering written as a boolean gather and scatter."""
    logp = np.full_like(p, -np.inf)
    nz = p > 0
    logp[nz] = np.log(p[nz]) / temperature
    logp -= logp.max(axis=-1, keepdims=True)
    e = np.exp(logp)
    return e / e.sum(axis=-1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 9),
    st.integers(1, 20),
    st.integers(1, 4),
    st.floats(1e-8, 50.0).filter(lambda v: v != 1.0),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_adapt_distribution_equals_gather_form(n, rows, length, temperature, zero_frac, seed):
    """Taking the log with where= gives the bits of the gather form, on rows with zeros."""
    rng = np.random.default_rng(seed)
    p = rng.random((rows, length, n))
    p[rng.random(p.shape) < zero_frac] = 0.0
    p[..., 0] += 0.1  # every row keeps some mass
    p /= p.sum(axis=-1, keepdims=True)
    got = adapt_distribution(p, temperature)
    assert got.tobytes() == _adapt_by_gather(p, temperature).tobytes()
