import hashlib
import math
import re
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiff import (
    Denoiser,
    LogitTable,
    OracleDenoiser,
    SamplerConfig,
    ScheduleParams,
    SelfCorrectConfig,
    ToyDistribution,
    Vocab,
    ancestral_sample_batch,
    corpus_nelbo,
    make_schedule,
    posterior_kl_to_oracle,
    self_accuracy,
    self_correct,
    self_correct_batch,
    table_train,
    unigram_entropy,
    verify,
)
from mixdiff.errors import OrderingError, TimeRangeError
from mixdiff.elbo import stratified_times
from mixdiff.sampler import counter_uniforms, derive_seeds
from mixdiff.schedule import Terms, check_count, check_fits, token_ids
from mixdiff.verify import check_backward_rows

EPS = 1e-4
times = st.floats(min_value=EPS, max_value=1.0 - EPS, allow_nan=False)


def test_check_tokens_rejects_non_integer_ids():
    """Float ids used to pass and be truncated: [1.7, 0.2, 3.9] noised [1, 0, 3]."""
    vocab = Vocab(5, 4)
    for z in ([1.7, 0.2, 3.9], np.array([[1.0, 2.0]]), [True, False]):
        with pytest.raises(ValueError, match="token ids must be integers"):
            vocab.check_tokens(z)
    assert vocab.check_tokens(np.array([], dtype=float)).dtype == np.int64
    assert vocab.check_tokens(np.array([3], dtype=np.uint8)).tolist() == [3]


# A distribution over two tokens of length 2, a hybrid schedule and its oracle.
TWO = ToyDistribution(Vocab(3, 2), 2, (((0, 0), 0.5), ((1, 1), 0.5)))
HYBRID = make_schedule("hybrid", TWO.vocab, p_u=0.2)
ORACLE = OracleDenoiser(TWO, HYBRID)


def _train(**kwargs):
    return table_train(TWO, HYBRID, LogitTable(TWO.vocab, 2), **{"steps": 1, **kwargs})


# Every count of the public entries: its name in the error, its floor, and a
# call that sets it to v.
COUNTS = {
    "Vocab.size": ("vocab size", 3, lambda v: Vocab(v, 0)),
    "Vocab.mask_id": ("mask_id", 0, lambda v: Vocab(3, v)),
    "ToyDistribution.length": ("length", 1, lambda v: ToyDistribution(TWO.vocab, v, TWO.outcomes)),
    "LogitTable.length": ("length", 1, lambda v: LogitTable(TWO.vocab, v)),
    "LogitTable.t_buckets": ("t_buckets", 1, lambda v: LogitTable(TWO.vocab, 2, t_buckets=v)),
    "table_train.batch": ("batch", 1, lambda v: _train(batch=v)),
    "table_train.steps": ("steps", 0, lambda v: _train(steps=v)),
    "posterior_kl_to_oracle.num_samples": (
        "num_samples",
        1,
        lambda v: posterior_kl_to_oracle(TWO, HYBRID, ORACLE, LogitTable(TWO.vocab, 2), v),
    ),
    "corpus_nelbo.num_mc": ("num_mc", 1, lambda v: corpus_nelbo(HYBRID, [[0, 0]], ORACLE, v, [0])),
    "SamplerConfig.num_steps": ("num_steps", 1, lambda v: SamplerConfig(num_steps=v)),
    "SelfCorrectConfig.max_iters": ("max_iters", 1, lambda v: SelfCorrectConfig(max_iters=v)),
    "SelfCorrectConfig.patience": ("patience", 1, lambda v: SelfCorrectConfig(patience=v)),
    "ancestral_sample_batch.count": (
        "count",
        1,
        lambda v: ancestral_sample_batch(HYBRID, 2, ORACLE, SamplerConfig(num_steps=2), v),
    ),
    "ancestral_sample_batch.length": (
        "length",
        1,
        lambda v: ancestral_sample_batch(HYBRID, v, ORACLE, SamplerConfig(num_steps=2), 1),
    ),
    # these four returned as if rounded up: derive_seeds(0, 2.5) gave 3 seeds,
    # counter_uniforms(0, 1, 2.5, 1.5) a (3, 2) array, stratified_times(2.5, ...) 3 times
    "derive_seeds.count": ("count", 0, lambda v: derive_seeds(0, v)),
    "counter_uniforms.step": ("step", 0, lambda v: counter_uniforms(0, v, 2, 2)),
    "counter_uniforms.count": ("count", 0, lambda v: counter_uniforms(0, 1, v, 2)),
    "counter_uniforms.length": ("length", 0, lambda v: counter_uniforms(0, 1, 2, v)),
    "stratified_times.num_mc": ("num_mc", 1, lambda v: stratified_times(v, 0.5, 1e-4)),
}


@pytest.mark.parametrize("value", [2.5, math.nan, "below"])
@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_checked_by_check_count(entry, value):
    """A count of 2.5 used to raise numpy's TypeError deep in the call (num_steps,
    steps, t_buckets) or run as if rounded up (patience), and
    nan compared False; LogitTable(vocab, 0) built a table predicting (B, 0, N)."""
    name, least, call = COUNTS[entry]
    if value == "below":
        value = least - 1
    with pytest.raises(ValueError, match=f"^{name} must be >= {least} and an integer, got "):
        call(value)
    call(least + 1)


def test_check_count():
    assert check_count("n", 3) == 3
    assert type(check_count("n", np.int64(3))) is int
    assert check_count("n", np.uint8(0), least=0) == 0
    for value in (2.0, np.float64(2.0), "2", None, math.inf):
        message = f"n must be >= 1 and an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_count("n", value)


# The vocabulary of TWO with numpy integer fields, which Vocab stores as ints.
NUMPY_VOCAB = Vocab(np.int64(3), np.int64(2))


def test_toy_distribution_over_a_numpy_integer_vocab():
    """It raised AttributeError: 'numpy.int64' object has no attribute 'bit_length'."""
    assert type(NUMPY_VOCAB.size) is int and type(NUMPY_VOCAB.mask_id) is int
    dist = ToyDistribution(NUMPY_VOCAB, 2, TWO.outcomes)
    assert dist.outcomes == TWO.outcomes


def test_sampling_under_a_numpy_integer_vocab():
    """It raised the same AttributeError from the batch of noisy rows."""
    sched = make_schedule("hybrid", NUMPY_VOCAB, p_u=0.2)
    config = SamplerConfig(num_steps=4, seed=3)
    got = ancestral_sample_batch(sched, 2, OracleDenoiser(TWO, sched), config, 50)
    assert got.tobytes() == ancestral_sample_batch(HYBRID, 2, ORACLE, config, 50).tobytes()


def test_fit_message_over_a_numpy_integer_vocab():
    """It printed Vocab(size=np.int64(3), mask_id=np.int64(2))."""
    message = (
        "table of length 2 over Vocab(size=3, mask_id=2) does not fit the "
        "distribution of length 2 over Vocab(size=4, mask_id=3)"
    )
    four = ToyDistribution(Vocab(4, 3), 2, TWO.outcomes)
    with pytest.raises(ValueError, match=re.escape(message)):
        check_fits("table", LogitTable(NUMPY_VOCAB, 2), "distribution", four)


# The two functions that hash a seed they are given, called with that seed.
SEEDED = {
    "derive_seeds": lambda seed: derive_seeds(seed, 3),
    "counter_uniforms": lambda seed: counter_uniforms(seed, 0, 2, 2),
}


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
@pytest.mark.parametrize("entry", SEEDED)
def test_every_seed_is_checked_by_check_seed(entry, seed):
    """-1 and 2**64 raised numpy's OverflowError, and derive_seeds(1.5, 3)
    returned three seeds."""
    with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\) and be an integer"):
        SEEDED[entry](seed)
    SEEDED[entry](2**64 - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda z: ORACLE.predict_batch([z], 0.5),
        lambda z: LogitTable(TWO.vocab, 2).predict_batch([z], 0.5),
        lambda z: self_correct(z, ORACLE, SelfCorrectConfig(), 2),
        lambda z: self_correct_batch([z], ORACLE, SelfCorrectConfig(), 2, [0]),
        lambda z: self_accuracy(z, ORACLE, 0.5),
        unigram_entropy,
    ],
    ids=[
        "OracleDenoiser.predict_batch",
        "LogitTable.predict_batch",
        "self_correct",
        "self_correct_batch",
        "self_accuracy",
        "unigram_entropy",
    ],
)
def test_public_entries_reject_float_ids(call):
    """These used to cast with np.asarray(z, dtype=np.int64): self_correct of [1.7, 0.2]
    corrected [1, 0]."""
    with pytest.raises(ValueError, match="token ids must be integers, got dtype float64"):
        call([1.7, 0.2])


class _Unchecked(Denoiser):
    """A denoiser over Vocab(4, 3) that predicts token 1 at every position and
    never reads the ids of its rows."""

    vocab = Vocab(4, 3)

    def predict_batch(self, z_seqs, t):
        return np.eye(4)[np.ones(np.shape(z_seqs), dtype=np.int64)]


@pytest.mark.parametrize("token", [-1, 7])
@pytest.mark.parametrize(
    "call",
    [
        lambda z: self_accuracy(z, _Unchecked(), 0.5, 3),
        lambda z: self_correct(z, _Unchecked(), SelfCorrectConfig(), 3),
        lambda z: self_correct_batch([z], _Unchecked(), SelfCorrectConfig(), 3, [0]),
    ],
    ids=["self_accuracy", "self_correct", "self_correct_batch"],
)
def test_public_entries_reject_ids_outside_the_denoisers_vocabulary(call, token):
    """These used to read the predictions at unchecked ids: self_accuracy of
    [-1, 0] read the mask column and returned a number, self_correct_batch
    "corrected" [-1, 0] to [1, 1] with 2 edits, and 7 was numpy's IndexError."""
    with pytest.raises(ValueError, match=rf"^token id {token} outside \[0, 4\)$"):
        call([token, 0])


def test_token_ids():
    assert token_ids([[1, 2]]).dtype == np.int64
    assert token_ids(np.array([], dtype=float)).dtype == np.int64
    z = np.array([3, 4])
    assert token_ids(z) is z
    assert token_ids([9, -1]).tolist() == [9, -1]  # no range: that is Vocab.check_tokens


def test_vocab_validation():
    with pytest.raises(ValueError):
        Vocab(2, 1)
    with pytest.raises(ValueError):
        Vocab(5, 5)
    v = Vocab(4, 3)
    assert v.spread(1.0, 0.0).tolist() == [0, 0, 0, 1]


def test_eps_t_range_has_one_message():
    for bad in (0.0, 0.5, math.nan):
        with pytest.raises(ValueError, match=r"eps_t must lie in \(0, 0.5\), got"):
            ScheduleParams(p_u=0.2, eps_t=bad)


def test_schedule_params():
    p = ScheduleParams(p_u=0.2, gamma=1.0)
    assert math.isclose(p.B, 2.0 * 0.2 / 0.8)
    assert ScheduleParams(p_u=0.0).B == 0.0
    with pytest.raises(ValueError):
        ScheduleParams(p_u=1.0)
    with pytest.raises(ValueError):
        ScheduleParams(p_u=0.1, gamma=0.0)
    for eps_t in (0.0, 0.5, 0.7, -1e-4):
        with pytest.raises(ValueError, match="eps_t"):
            ScheduleParams(p_u=0.2, eps_t=eps_t)


def test_time_validation(mask_sched):
    with pytest.raises(TimeRangeError):
        mask_sched.terms(0.0).alpha
    with pytest.raises(TimeRangeError):
        mask_sched.terms(1.0).log_snr
    mask_sched.terms(EPS).alpha
    mask_sched.terms(1.0 - EPS).alpha


def test_check_time_rejects_array_with_one_bad_entry(mask_sched):
    t = np.full(7, 0.5)
    assert mask_sched.check_time(t).tobytes() == t.tobytes()
    for bad in (0.0, 1.0, -0.5, math.nan):
        t[4] = bad
        with pytest.raises(TimeRangeError, match=f"t={bad!r}"):
            mask_sched.check_time(t)
        with pytest.raises(TimeRangeError):
            mask_sched.terms(t).beta_pi


@pytest.mark.parametrize("shape", [(2, 3), (1, 1), (2, 0, 4)])
def test_check_time_names_times_of_more_than_one_axis(mask_sched, shape):
    """Times of shape (2, 3) failed inside Vocab.spread with numpy's broadcast error."""
    message = re.escape(f"times of shape {shape}: need one time or a (B,) array")
    for fn in (mask_sched.check_time, mask_sched.terms, mask_sched.generator):
        with pytest.raises(ValueError, match=message):
            fn(np.full(shape, 0.5))


def test_hybrid_marginal_hand_values(hybrid_sched):
    # t = 0.5: c = 0.25, C = 1.25, alpha = 0.4, mask mass 0.4, uniform 0.05 each
    q = hybrid_sched.marginal(0.5, 0)
    np.testing.assert_allclose(q, [0.45, 0.05, 0.05, 0.05, 0.40], atol=1e-12)
    assert math.isclose(hybrid_sched.terms(0.5).uniform_mass, 0.2, abs_tol=1e-15)


def test_marginal_limits(hybrid_sched):
    near_data = hybrid_sched.marginal(EPS, 2)
    assert near_data[2] > 0.99
    near_prior = hybrid_sched.marginal(1.0 - EPS, 2)
    assert near_prior[4] > 0.99


def test_conditional_transition_identity(mask_sched, hybrid_sched):
    for sched in (mask_sched, hybrid_sched):
        trans = sched.conditional_transition(0.3, 0.3)
        assert math.isclose(trans.alpha_ts, 1.0)
        np.testing.assert_allclose(trans.beta_pi_ts, 0.0, atol=1e-15)


def test_mask_only_transition_hand_values(mask_sched):
    trans = mask_sched.conditional_transition(0.25, 0.5)
    assert math.isclose(trans.alpha_ts, 2.0 / 3.0)
    assert math.isclose(trans.beta_pi_ts[4], 1.0 / 3.0)
    assert math.isclose(trans.alpha_ts + trans.beta_pi_ts.sum(), 1.0, abs_tol=1e-12)


def test_transition_ordering_error(mask_sched):
    with pytest.raises(OrderingError):
        mask_sched.conditional_transition(0.6, 0.4)
    with pytest.raises(OrderingError, match=r"s=0\.6 > t=0\.4"):
        mask_sched.conditional_transition(np.array([0.1, 0.6]), np.array([0.2, 0.4]))


@settings(max_examples=60, deadline=None)
@given(ts=st.tuples(times, times, times), kind=st.sampled_from(["mask", "hybrid"]))
def test_transition_composition(ts, kind):
    sched = make_schedule(kind, Vocab(6, 5), p_u=0.2 if kind == "hybrid" else 0.0)
    r, s, t = sorted(ts)
    q_sr = sched.conditional_transition(r, s).matrix()
    q_ts = sched.conditional_transition(s, t).matrix()
    q_tr = sched.conditional_transition(r, t).matrix()
    np.testing.assert_allclose(q_ts @ q_sr, q_tr, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(ts=st.tuples(times, times), x=st.integers(0, 5), kind=st.sampled_from(["mask", "hybrid"]))
def test_marginal_consistency(ts, x, kind):
    sched = make_schedule(kind, Vocab(6, 5), p_u=0.15 if kind == "hybrid" else 0.0)
    s, t = sorted(ts)
    q = sched.conditional_transition(s, t).matrix()
    np.testing.assert_allclose(q @ sched.marginal(s, x), sched.marginal(t, x), atol=1e-12)


def test_columns_are_distributions(hybrid_sched):
    q = hybrid_sched.conditional_transition(0.2, 0.8).matrix()
    assert np.all(q >= -1e-12)
    np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-12)


def test_mask_forward_rate_hand_values(mask_sched):
    assert math.isclose(mask_sched.generator(0.5)[0, 4], 2.0)
    assert math.isclose(mask_sched.generator(0.5)[4, 4], 0.0)


@settings(max_examples=50, deadline=None)
@given(t=times, z=st.integers(0, 4), kind=st.sampled_from(["mask", "hybrid"]))
def test_generator_rows_sum_to_zero(t, z, kind):
    sched = make_schedule(kind, Vocab(5, 4), p_u=0.2 if kind == "hybrid" else 0.0)
    assert abs(sched.generator(t)[z].sum()) < 1e-10


def test_forward_rate_finite_difference(hybrid_sched):
    delta = 1e-6
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = 0.05 + 0.9 * rng.random()
        fd = (hybrid_sched.conditional_transition(t, t + delta).matrix() - np.eye(5)) / delta
        rates = hybrid_sched.generator(t)
        for z_from in range(5):
            for z_to in range(5):
                r = rates[z_from, z_to]
                assert abs(fd[z_to, z_from] - r) / max(abs(r), 1.0) < 1e-4


def test_backward_rate_rows_and_degenerate(mask_sched, hybrid_sched):
    rng = np.random.default_rng(3)
    for sched in (mask_sched, hybrid_sched):
        x_theta = rng.random(5)
        x_theta[4] = 0.0
        x_theta /= x_theta.sum()
        for z_t in range(5):
            q = sched.marginal_mix(0.4, x_theta)
            if q[z_t] <= 0:
                continue
            back = sched.backward_generator(0.4, x_theta)
            row = sum(back[z_t, z_s] for z_s in range(5))
            assert abs(row) < 1e-10
    one_hot = np.zeros(5)
    one_hot[1] = 1.0
    back = mask_sched.backward_generator(0.4, one_hot)
    # mask-only: token 2 has zero model marginal when x_theta is one-hot at 1
    assert not np.isfinite(back[2]).any()
    # one-hot truth, z_t = x: no backward flow away from x under mask-only
    for z_s in (0, 2, 3):
        assert back[1, z_s] == 0.0


def test_backward_rows_check_fails_on_a_wrong_rate_vector():
    """backward_rows_sum_zero used to check only that the rows of R^_t sum to
    zero, which they do for any R_t. With the rate vector 0.1% too large its
    flow reference q_t R^_t = -dq_t/dt fails it. (alpha_t' reaches only the
    diagonal of R_t, which R^_t does not read; forward_rate_fd catches it.)"""
    fget = Terms.rate.fget
    with mock.patch.object(Terms, "rate", property(lambda terms: 1.001 * fget(terms))):
        name, passed, detail = check_backward_rows()
    assert name == "backward_rows_sum_zero"
    assert not passed
    assert check_backward_rows()[1]


def test_backward_kernel_small_delta(hybrid_sched):
    delta = 1e-6
    rng = np.random.default_rng(5)
    x_theta = rng.random(5)
    x_theta[4] = 0.0
    x_theta /= x_theta.sum()
    t = 0.37
    s = t - delta
    q_t = hybrid_sched.marginal_mix(t, x_theta)
    q_s = hybrid_sched.marginal_mix(s, x_theta)
    trans = hybrid_sched.conditional_transition(s, t)
    back = hybrid_sched.backward_generator(t, x_theta)
    for z_t in range(5):
        for z_s in range(5):
            kernel = trans.matrix()[z_t, z_s] * q_s[z_s] / q_t[z_t]
            rate = back[z_t, z_s]
            pred = (1.0 if z_s == z_t else 0.0) + rate * delta
            assert abs(kernel - pred) <= 1e-4 * max(abs(rate) * delta, delta)


def test_elbo_weight_hand_values(hybrid_sched, mask_sched):
    hybrid_w, mask_w = hybrid_sched.elbo_weights(0.5, 0), mask_sched.elbo_weights(0.5, 0)
    assert math.isclose(hybrid_w[4], 4.0, abs_tol=1e-12)
    assert math.isclose(hybrid_w[1], 2.0, abs_tol=1e-12)
    assert math.isclose(hybrid_w[0], 2.0 / 9.0, abs_tol=1e-12)
    assert math.isclose(mask_w[4], 4.0)
    assert mask_w[0] == 0.0
    # token 1 lies outside the mask-only forward support of 0
    assert mask_w[1] == 0.0


@settings(max_examples=40, deadline=None)
@given(t=times, kind=st.sampled_from(["mask", "hybrid"]))
def test_weight_expectation_identity(t, kind):
    sched = make_schedule(kind, Vocab(5, 4), p_u=0.2 if kind == "hybrid" else 0.0)
    q, w, terms = sched.marginal(t, 0), sched.elbo_weights(t, 0), sched.terms(t)
    mean_w = sum(q[z] * w[z] for z in range(5) if q[z] > 0)
    target = -terms.alpha_prime / terms.alpha
    assert abs(mean_w - target) <= 1e-10 * max(abs(target), 1.0)


def test_log_snr(hybrid_sched, mask_sched):
    assert math.isclose(mask_sched.terms(0.5).log_snr, 0.0, abs_tol=1e-12)
    assert math.isclose(hybrid_sched.terms(0.5).log_snr, math.log(2.0 / 3.0), abs_tol=1e-12)
    for sched in (mask_sched, hybrid_sched):
        grid = np.linspace(EPS, 1 - EPS, 1000)
        lam = np.array([sched.terms(t).log_snr for t in grid])
        assert np.all(np.diff(lam) < 0)


def test_uniform_mass_peaks_at_half():
    for p_u in (0.1, 0.2):
        sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u)
        peak = sched.terms(0.5).uniform_mass
        assert peak == pytest.approx(p_u, abs=1e-15)
        grid = np.linspace(EPS, 1 - EPS, 200)
        assert max(sched.terms(t).uniform_mass for t in grid) <= peak + 1e-12


def test_pu_zero_collapses_to_mask_only():
    """p_u = 0 gives the mask-only closed forms bit for bit."""
    vocab = Vocab(6, 5)
    m = vocab.spread(1.0, 0.0)
    rng = np.random.default_rng(7)
    for sched in (make_schedule("hybrid", vocab, p_u=0.0), make_schedule("mask", vocab)):
        for _ in range(100):
            s, t = np.sort(EPS + (1 - 2 * EPS) * rng.random(2))
            x, z = (int(v) for v in rng.integers(6, size=2))
            q = t * m
            q[x] += 1.0 - t
            terms = sched.terms(t)
            assert terms.alpha == 1.0 - t
            assert terms.alpha_prime == -1.0
            assert np.array_equal(terms.beta_pi, t * m)
            assert np.array_equal(terms.beta_pi / terms.beta_pi.sum(-1, keepdims=True), m)
            assert np.array_equal(terms.rate, m / (1.0 - t))
            assert np.array_equal(sched.marginal(t, x), q)
            assert sched.conditional_transition(s, t).alpha_ts == (1.0 - t) / (1.0 - s)
            if q[z] > 0:
                assert sched.elbo_weights(t, x)[z] == m[z] / (1.0 - t) / q[z]


# sha256 of the hybrid closed forms on a 1001-point grid, recorded when
# they became numpy ufunc calls with no per-time path
CLOSED_FORMS_SHA256 = {
    (0.2, 3): "aedacab6eed4924bdf8e2cfa36b85fb39b5f88087667e4d7ce237cf252b94c6c",
    (0.2, 5): "0044accdb547ae8df431a2dd5ce01650708665ca3815b34d56c0aee1f271a4ac",
    (0.01, 3): "51afa963a384b353264edafed061bd77d34ef9567d5236dff729dc4f0cb4a84a",
    (0.01, 5): "46934c8b6e27de530d72ea854fceffe438ff1ff8407d7cdec6d44e501646d26a",
}


@pytest.mark.parametrize("p_u, n", sorted(CLOSED_FORMS_SHA256))
def test_hybrid_closed_forms_same_bits(p_u, n):
    sched = make_schedule("hybrid", Vocab(n, n - 1), p_u=p_u)
    grid = np.linspace(sched.eps_t, 1.0 - sched.eps_t, 1001)
    h = hashlib.sha256()
    for s, t in zip(grid[:-1], grid[1:]):
        trans = sched.conditional_transition(s, t)
        terms = sched.terms(t)
        for v in (
            terms.alpha,
            terms.beta_pi,
            terms.beta_pi / terms.beta_pi.sum(-1, keepdims=True),
            terms.rate,
            terms.log_snr,
            terms.uniform_mass,
            trans.alpha_ts,
            trans.beta_pi_ts,
        ):
            h.update(np.asarray(v, dtype=float).tobytes())
    assert h.hexdigest() == CLOSED_FORMS_SHA256[p_u, n]


# sha256 of the mask-only closed forms on a 1001-point grid, recorded while
# c_t = 0 still had a branch of its own; log_snr is left out
MASK_CLOSED_FORMS_SHA256 = {
    3: "e86d294d2b92f18b52f1bdb976a90421a6fdceeebdd3d095838f5e91f96c8011",
    5: "1eb5409be67a7e6a36fcf17c0d2de00ef05b84e66a7601feff9e9d874dd1dffb",
}


@pytest.mark.parametrize("n", sorted(MASK_CLOSED_FORMS_SHA256))
def test_mask_closed_forms_same_bits(n):
    """With B = 0 the hybrid closed forms are the mask-only ones bit for bit:
    c_t is exactly 0, so alpha_t = 1 - t, alpha_t' = -1 and the uniform part is 0."""
    sched = make_schedule("mask", Vocab(n, n - 1))
    grid = np.linspace(sched.eps_t, 1.0 - sched.eps_t, 1001)
    terms = sched.terms(grid)
    h = hashlib.sha256()
    for v in (
        terms.alpha,
        terms.alpha_prime,
        terms.beta_pi,
        terms.rate,
        terms.uniform_mass,
        sched.conditional_transition(grid[:-1], grid[1:]).matrix(),
    ):
        h.update(np.asarray(v, dtype=float).tobytes())
    assert h.hexdigest() == MASK_CLOSED_FORMS_SHA256[n]


# Times at which C_t^2 by numpy's square and by libm's pow differ in the last
# bit: where a per-time path and an array path would part if they used both.
SQUARE_TIMES = {
    (0.2, 1.0): [0.004589102, 0.009668086, 0.04444113],
    (0.2, 1.5): [0.036032812000000004, 0.060977822, 0.068046408],
    (0.01, 1.0): [0.019366146, 0.036002818, 0.036372744000000005],
    (0.01, 1.5): [0.012817456, 0.012977424, 0.013057408],
}


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("p_u", [0.2, 0.01])
def test_array_closed_forms_equal_scalar_ones(p_u, gamma):
    """A (B,) array of times gives each time's scalar result, bit for bit.
    Both go through the same numpy ufuncs, whose loops give a float, a 0-d
    array and every entry of an array the same bits; at gamma = 1.5 numpy's
    pow differs from libm's on about 9% of this grid, so a scalar path
    through libm (Python's ** or math) would fail here."""
    sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u, gamma=gamma)
    grid = np.linspace(sched.eps_t, 1.0 - sched.eps_t, 1001)
    grid = np.concatenate([grid, SQUARE_TIMES[p_u, gamma]])
    forms = {
        name: lambda t, name=name: getattr(sched.terms(t), name)
        for name in ("alpha", "alpha_prime", "beta_pi", "rate", "uniform_mass", "log_snr")
    }
    x_theta = np.array([0.1, 0.2, 0.3, 0.4, 0.0])

    def transition(t):
        # from halfway between eps_t and t, so that s <= t
        return sched.conditional_transition(sched.eps_t + (t - sched.eps_t) / 2.0, t)

    forms.update(
        check_time=sched.check_time,
        pi=lambda t: sched.terms(t).beta_pi / sched.terms(t).beta_pi.sum(-1, keepdims=True),
        generator=sched.generator,
        alpha_ts=lambda t: transition(t).alpha_ts,
        beta_pi_ts=lambda t: transition(t).beta_pi_ts,
        transition_matrix=lambda t: transition(t).matrix(),
        marginal=lambda t: sched.marginal(t, 2),
        marginal_mix=lambda t: sched.marginal_mix(t, x_theta),
        backward_generator=lambda t: sched.backward_generator(t, x_theta),
    )
    for name, form in forms.items():
        one_by_one = np.array([form(float(t)) for t in grid])
        batched = form(grid)
        assert batched.shape == one_by_one.shape, name
        assert batched.tobytes() == one_by_one.tobytes(), name


def _closed_forms(sched, t):
    """Reference alpha, beta_pi, rate and log_snr at one time, each
    closed form on its own with numpy's power, log and log1p."""
    n, h = sched.vocab.size, sched.params.gamma / 2.0
    c = sched.params.B * np.power(t, h) * np.power(1.0 - t, h)
    c_prime = h * (1.0 - 2.0 * t) / (t * (1.0 - t)) * c
    alpha = (1.0 - t) / (1.0 + c)
    d = (1.0 + c) * (1.0 - t)
    beta_pi = np.full(n, c * (1.0 / (n - 1)) / (1.0 + c))
    beta_pi[sched.vocab.mask_id] = t / (1.0 + c)
    rate = np.full(n, (c + (1.0 - t) * c_prime) * (1.0 / (n - 1)) / d)
    rate[sched.vocab.mask_id] = 1.0 / d
    return alpha, beta_pi, rate, np.log(alpha) - np.log1p(-alpha)


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("p_u", [0.2, 0.01])
def test_terms_equal_closed_forms(p_u, gamma):
    """terms(t) on 1001 times has the bits of alpha, beta_pi, the rate vector
    and log_snr, each closed form computed alone at each time."""
    sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u, gamma=gamma)
    grid = np.linspace(sched.eps_t, 1.0 - sched.eps_t, 1001)
    terms = sched.terms(grid)
    batched = (terms.alpha, terms.beta_pi, terms.rate, terms.log_snr)
    alone = [np.array(v) for v in zip(*(_closed_forms(sched, t) for t in grid.tolist()))]
    names = ("alpha", "beta_pi", "rate", "log_snr")
    for name, got, want in zip(names, batched, alone):
        assert got.tobytes() == want.tobytes(), name


def _ulps(got, ref: Decimal) -> float:
    """|got - ref| in units of 2^-52 |ref|, the widest spacing of doubles near
    ref: never more than the error in ulps of ref, and never less than half of it."""
    return float(abs(Decimal(float(got)) - ref) / (abs(ref) * Decimal(2.0**-52)))


@pytest.mark.parametrize("gamma", [1.0, 1.5])
def test_closed_forms_are_accurate(gamma):
    """Accuracy, not agreement with libm, is what the closed forms promise.
    Against 50-digit decimal references on 3,000 times:

    c_t = B t^h (1-t)^h, h = gamma/2, is two pows, each within 1 ulp, so
    within 1 unit of 2^-52 |result|; two correctly rounded products, 1/2
    unit each; and 1 - t rounded, 1/2 unit, which the pow scales by h <= 1.
    To first order c_t is within 2 + 1 + h/2 <= 3.5 < 4 units (measured 1.7).
    log alpha and log1p(-alpha) are one function each of the double alpha,
    so within 1 unit (measured 0.54)."""
    h = Decimal(gamma / 2.0)
    t = np.random.default_rng(0).uniform(1e-4, 1.0 - 1e-4, 3000)
    with localcontext(prec=50):
        t_h = [Decimal(v) ** h * (1 - Decimal(v)) ** h for v in t.tolist()]
        for p_u in (0.01, 0.2):
            sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u, gamma=gamma)
            terms = sched.terms(t)
            b = Decimal(sched.params.B)
            for c, a, ref in zip(terms._c.tolist(), terms.alpha.tolist(), t_h):
                assert _ulps(c, b * ref) < 4.0, c
                assert _ulps(np.log(a), Decimal(a).ln()) <= 1.0, a
                assert _ulps(np.log1p(-a), (1 - Decimal(a)).ln()) <= 1.0, a


def test_make_schedule_rejects_unknown():
    with pytest.raises(ValueError):
        make_schedule("linear", Vocab(3, 2))


def test_make_schedule_mask_takes_no_uniform_noise():
    """make_schedule("mask", ...) used to drop p_u and gamma and return a
    mask-only schedule; only the CLI refused them."""
    vocab = Vocab(5, 4)
    for kwargs, text in (({"p_u": 0.2, "gamma": 3.0}, "p_u=0.2"), ({"gamma": 3.0}, "gamma=3.0")):
        with pytest.raises(ValueError, match=rf"^{text} needs the hybrid schedule, not 'mask'$"):
            make_schedule("mask", vocab, **kwargs)
    assert make_schedule("mask", vocab, p_u=0.0, gamma=1.0).params == ScheduleParams(p_u=0.0)


@pytest.mark.parametrize("gamma", [1024.0, 1100.0, 1e300])
def test_schedule_params_reject_a_gamma_that_overflows(gamma):
    """2**gamma used to raise OverflowError, and only inside MixingSchedule."""
    msg = f"gamma={gamma!r} above 2 makes the off-mask rate negative"
    for p_u in (0.2, 0.0):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            ScheduleParams(p_u=p_u, gamma=gamma)


def test_largest_whole_gamma_still_builds():
    """gamma = 2 is the edge of the domain: it builds, and the next double
    above it is refused."""
    sched = make_schedule("hybrid", Vocab(5, 4), p_u=0.2, gamma=2.0)
    assert math.isclose(sched.terms(0.5).uniform_mass, 0.2, abs_tol=1e-15)
    with pytest.raises(ValueError, match=r"^gamma=2\.0000000000000004 above 2"):
        ScheduleParams(p_u=0.2, gamma=math.nextafter(2.0, 3.0))


def test_eps_t_floor_is_where_one_minus_eps_t_rounds_to_one():
    """With 1 - eps_t == 1 the range [eps_t, 1 - eps_t] held t = 1, and
    weights-csv printed w_mask = inf."""
    msg = "eps_t=5.551115123125783e-17 is at most 2**-54, so 1 - eps_t rounds to 1"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        ScheduleParams(p_u=0.2, eps_t=2.0**-54)
    above = math.nextafter(2.0**-54, 1.0)
    assert 1.0 - above < 1.0 and ScheduleParams(p_u=0.2, eps_t=above).eps_t == above


@pytest.mark.parametrize("eps_t", [6e-17, 1e-4, 0.49, 1e-100])
@pytest.mark.parametrize("p_u", [0.0, 0.2, 0.999])
@pytest.mark.parametrize("gamma", [1e-3, 1.0, 2.0, 2.01, 3.0])
def test_accepted_domain_is_a_diffusion(gamma, p_u, eps_t):
    """ScheduleParams refuses gamma > 2 and an eps_t with 1 - eps_t == 1, and
    every schedule it accepts is a diffusion on its whole time range, with
    warnings as errors: finite closed forms, off-mask rates >= 0 and
    transition matrices >= 0 between every pair of grid times s <= t."""
    if gamma > 2.0 or 1.0 - eps_t == 1.0:
        with pytest.raises(ValueError):
            ScheduleParams(p_u=p_u, gamma=gamma, eps_t=eps_t)
        return
    sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u, gamma=gamma, eps_t=eps_t)
    grid = np.linspace(sched.eps_t, 1.0 - sched.eps_t, 65)
    s, t = (v[np.triu_indices(len(grid))] for v in np.meshgrid(grid, grid, indexing="ij"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = sched.terms(grid)
        names = ("alpha", "alpha_prime", "beta_pi", "rate", "log_snr", "uniform_mass")
        forms = [getattr(terms, name) for name in names]
        matrix = sched.conditional_transition(s, t).matrix()
    assert all(np.isfinite(v).all() for v in forms)
    assert (terms.rate >= 0.0).all()
    assert (matrix >= 0.0).all()


@pytest.mark.parametrize("eps_t", [2.0**-53, 1e-4, 0.49])
@pytest.mark.parametrize("p_u", [0.0, 0.2, 0.999])
@pytest.mark.parametrize("gamma", [1e-3, 1.0, 2.0])
def test_verify_holds_at_the_corners_of_the_domain(gamma, p_u, eps_t, monkeypatch):
    """Every verify check passes, with the mask schedule and the hybrid one at
    a corner of the accepted domain as its pair of schedules, wherever its own
    derivation applies: backward_rows_sum_zero's flow bound is derived for
    gamma = 1, and its inner times and those of both finite-difference checks
    lie in [0.01, 0.99], so those need eps_t <= 0.01."""

    def schedules(n):
        vocab = Vocab(n, n - 1)
        hybrid = make_schedule("hybrid", vocab, p_u=p_u, gamma=gamma, eps_t=eps_t)
        return make_schedule("mask", vocab, eps_t=eps_t), hybrid

    monkeypatch.setattr(verify, "_schedules", schedules)
    inner = eps_t <= 0.01
    applies = {
        verify.check_backward_rows: gamma == 1.0 and inner,
        verify.check_forward_rate_fd: inner,
        verify.check_backward_rate_fd: inner,
    }
    results = [check() for check in verify.ALL_CHECKS if applies.get(check, True)]
    assert [(name, detail) for name, passed, detail in results if not passed] == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schedule_params_reject_non_finite_gamma(bad):
    """gamma = nan used to construct and make every closed form NaN."""
    with pytest.raises(ValueError, match="gamma must be finite and > 0"):
        ScheduleParams(p_u=0.2, gamma=bad)


_TERMS_FIELDS = ("alpha", "alpha_prime", "beta_pi", "rate", "log_snr")


def _fields(terms) -> list[bytes]:
    return [np.asarray(getattr(terms, name)).tobytes() for name in _TERMS_FIELDS]


@pytest.mark.parametrize("kind", ["mask", "hybrid"])
def test_terms_of_equal_times_from_other_objects_have_the_same_bits(kind):
    """terms keeps its last evaluation, keyed by value: an array and its copy,
    or a float and an np.float64, give the fields a fresh schedule computes."""
    vocab = Vocab(5, 4)
    sched = make_schedule(kind, vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    t = np.linspace(0.1, 0.9, 17)
    for first, second in ((t, t.copy()), (0.3, np.float64(0.3)), (np.float64(0.7), 0.7)):
        fresh = _fields(make_schedule(kind, vocab, p_u=sched.params.p_u).terms(first))
        assert _fields(sched.terms(first)) == fresh
        assert _fields(sched.terms(second)) == fresh


def test_terms_do_not_see_a_caller_mutate_its_times():
    sched = make_schedule("hybrid", Vocab(5, 4), p_u=0.2)
    t = np.linspace(0.1, 0.9, 9)
    kept = t.copy()
    first = sched.terms(t)
    want = _fields(first)
    t[:] = 0.5
    assert _fields(first) == want
    assert _fields(sched.terms(kept)) == want
    fresh = make_schedule("hybrid", Vocab(5, 4), p_u=0.2)
    assert _fields(sched.terms(t)) == _fields(fresh.terms(t))


@pytest.mark.parametrize("t", [0.3, np.linspace(0.1, 0.9, 5)], ids=["scalar", "array"])
def test_terms_arrays_are_read_only(t):
    terms = make_schedule("hybrid", Vocab(5, 4), p_u=0.2).terms(t)
    for name in ("alpha", "beta_pi"):
        value = getattr(terms, name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0.0


@pytest.mark.parametrize("bad", [0.0, 1.0, math.nan, np.array([0.5, 1.0])])
def test_terms_out_of_range_raises_every_call_and_is_not_kept(bad):
    sched = make_schedule("hybrid", Vocab(5, 4), p_u=0.2)
    kept = sched.terms(0.5)
    for _ in range(3):
        with pytest.raises(TimeRangeError):
            sched.terms(bad)
    assert sched.terms(0.5) is kept
