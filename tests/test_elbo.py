import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiff import (
    CLAMP,
    DYNAMIC,
    EXACT,
    LogitTable,
    OracleDenoiser,
    ToyDistribution,
    Vocab,
    WeightingMode,
    adapt_distribution,
    corpus_nelbo,
    is_divergence_pointwise,
    kl_divergence,
    loss_and_grad,
    make_schedule,
    mdm_loss,
    noise_sequence,
    sequence_nelbo,
    stratified_times,
    table_train,
)
from mixdiff.denoiser import masked_softmax
from mixdiff.elbo import (
    DEFAULT_WEIGHT_CLIP,
    _forward,
    _inverse_cdf,
    loss_target,
    model_marginal,
    softmax,
    target_grad,
    target_loss,
)
from mixdiff.errors import DegenerateEvidenceError, MaskedInputError, UnsupportedStateError
from conftest import random_prediction, transient_peak


def test_kl_hand_values():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    expected = 0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0)
    assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6))
def test_kl_nonnegative(raw):
    p = np.array(raw) / np.sum(raw)
    q = np.roll(p, 1)
    assert kl_divergence(p, q) >= -1e-12


def test_is_divergence_hand_values():
    assert is_divergence_pointwise(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert is_divergence_pointwise(0.6, 0.3) == pytest.approx(1.0 - math.log(2), abs=1e-12)
    assert is_divergence_pointwise(0.3, 0.6) == pytest.approx(math.log(2) - 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        is_divergence_pointwise(0.0, 0.5)
    with pytest.raises(ValueError):
        is_divergence_pointwise(0.5, -1.0)


def test_weighting_mode_validation():
    with pytest.raises(ValueError):
        WeightingMode("soft")
    with pytest.raises(ValueError):
        WeightingMode("clamp", w_max=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weighting_mode_rejects_non_finite_w_max(bad):
    """w_max = nan used to construct and make every clamped weight NaN."""
    with pytest.raises(ValueError, match="w_max must be finite and > 0"):
        WeightingMode("clamp", w_max=bad)


def test_loss_zero_at_truth(mask_sched, hybrid_sched):
    one_hot = np.zeros(5)
    one_hot[2] = 1.0
    for sched in (mask_sched, hybrid_sched):
        for mode in (EXACT, CLAMP, DYNAMIC):
            w, kl, is_term, _ = loss_and_grad(sched, 0.3, [4], [2], [one_hot], mode)
            assert kl[0] == pytest.approx(0.0, abs=1e-12)
            assert is_term[0] == pytest.approx(0.0, abs=1e-12)
            assert (w * (kl + is_term))[0] == pytest.approx(0.0, abs=1e-12)


def test_mask_only_loss_hand_value(mask_sched):
    # masked token, model splits mass evenly between x and one alternative
    x_theta = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
    w, kl, is_term, _ = loss_and_grad(mask_sched, 0.5, [4], [0], [x_theta], EXACT)
    total = (w * (kl + is_term))[0]
    assert total == pytest.approx(-math.log(0.5) / 0.5, abs=1e-10)
    assert total == pytest.approx(mdm_loss(mask_sched, 0.5, 4, 0, x_theta), abs=1e-10)


def test_dynamic_weight_hand_value(hybrid_sched):
    lam = hybrid_sched.terms(0.5).log_snr
    expected = (hybrid_sched.params.B / 5) * math.exp(-lam / 2)
    assert expected == pytest.approx(0.1224744871, abs=1e-9)
    w = loss_and_grad(hybrid_sched, 0.5, [0, 4], [0, 0], np.zeros((2, 5)), DYNAMIC)[0]
    assert w[0] == pytest.approx(expected, abs=1e-12)
    # mask token gets the doubled base weight
    assert w[1] == pytest.approx(2.0)


def test_clamp_caps_weight(hybrid_sched):
    probs = [np.zeros(5)]
    assert loss_and_grad(hybrid_sched, 1e-4, [4], [0], probs, EXACT, None)[0][0] > 100.0
    assert loss_and_grad(hybrid_sched, 1e-4, [4], [0], probs, CLAMP)[0][0] == 1.0
    assert loss_and_grad(hybrid_sched, 1e-4, [4], [0], probs, EXACT, 1e4)[0][0] <= 1e4


def test_mdm_equivalence_random(mask_sched):
    rng = np.random.default_rng(0)
    cases, refs = [], []
    for _ in range(300):
        t = 1e-4 + (1 - 2e-4) * rng.random()
        x = int(rng.integers(4))
        x_theta = random_prediction(rng, 5, 4)
        z_t = 4 if rng.random() < 0.5 else x
        w, kl, is_term, _ = loss_and_grad(mask_sched, t, [z_t], [x], [x_theta], EXACT, None)
        total = (w * (kl + is_term))[0]
        ref = mdm_loss(mask_sched, t, z_t, x, x_theta)
        assert abs(total - ref) <= 1e-8 * max(abs(ref), 1e-12)
        cases.append((t, z_t, x, x_theta))
        refs.append(ref)
    # (B,) rows give each case's own bits
    batched = mdm_loss(mask_sched, *(np.array(v) for v in zip(*cases)))
    assert batched.tobytes() == np.array(refs).tobytes()


def test_mdm_loss_zero_off_mask(mask_sched):
    assert mdm_loss(mask_sched, 0.5, 1, 1, np.full(5, 0.2)) == 0.0


def test_mdm_loss_rejects_tokens_outside_the_vocabulary(mask_sched):
    """A clean id of 9 (N = 5) used to end in numpy's IndexError."""
    for z_t, x in ((4, 9), (9, 0), (np.array([4, 4]), np.array([0, -1]))):
        with pytest.raises(ValueError, match=r"token id (9|-1) outside \[0, 5\)"):
            mdm_loss(mask_sched, 0.5, z_t, x, np.full(5, 0.2))


def test_stratified_times_midpoints():
    grid = stratified_times(4, 0.5, 0.0)
    np.testing.assert_allclose(grid, [0.125, 0.375, 0.625, 0.875], atol=1e-15)
    grid = stratified_times(8, 0.25, 1e-4)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 1e-4 and grid[-1] <= 1 - 1e-4


@pytest.mark.parametrize("num_mc, eps_t", [(5, 1e-4), (10, 1e-4), (19, 1e-4), (5, 0.01), (3, 0.3)])
def test_stratified_times_at_the_largest_offset_stay_in_range(num_mc, eps_t):
    """An offset of 1 - 2**-53, the largest rng.random() draw, used to put the
    last time one ulp past 1 - eps_t (0.9999000000000001 at num_mc 5), a time
    the schedule refuses."""
    grid = stratified_times(num_mc, 1.0 - 2.0**-53, eps_t)
    assert grid[-1] == 1.0 - eps_t
    make_schedule("mask", Vocab(3, 2), eps_t=eps_t).terms(grid)


def test_noise_sequence_marginals(hybrid_sched):
    rng = np.random.default_rng(1)
    x = np.zeros(100000, dtype=np.int64)
    z = noise_sequence(hybrid_sched, x, 0.5, rng)
    counts = np.bincount(z, minlength=5) / len(z)
    np.testing.assert_allclose(counts, [0.45, 0.05, 0.05, 0.05, 0.40], atol=0.006)


def test_noise_sequence_rejects_tokens_outside_the_vocabulary(hybrid_sched):
    """Ids 7 and -1 (N = 5) used to come back as the mask token."""
    with pytest.raises(ValueError, match=r"token id 7 outside \[0, 5\)"):
        noise_sequence(hybrid_sched, [7, -1, 2], 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"token id -1 outside \[0, 5\)"):
        noise_sequence(hybrid_sched, [[0, 1], [2, -1]], 0.5, np.random.default_rng(0))


def test_noise_sequence_rejects_float_ids(hybrid_sched):
    """Float ids used to be truncated: [1.7, 0.2, 3.9] was noised as [1, 0, 3]."""
    with pytest.raises(ValueError, match="token ids must be integers, got dtype float64"):
        noise_sequence(hybrid_sched, [1.7, 0.2, 3.9], 0.5, np.random.default_rng(0))


def test_noise_sequence_batch_is_row_calls(hybrid_sched):
    """A (B, L) batch at (B,) times draws the stream B one-row calls draw."""
    x = np.random.default_rng(0).integers(0, 4, size=(40, 7))
    times = np.linspace(0.01, 0.99, 40)
    batched = noise_sequence(hybrid_sched, x, times, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    rows = [noise_sequence(hybrid_sched, xb, t, rng) for xb, t in zip(x, times.tolist())]
    assert batched.dtype == np.int64
    assert np.array_equal(batched, np.stack(rows))


def test_sequence_nelbo_delta_distribution(vocab3):
    dist = ToyDistribution(vocab3, 2, (((0, 1), 1.0),))
    sched = make_schedule("hybrid", vocab3, p_u=0.2)
    oracle = OracleDenoiser(dist, sched)
    est = sequence_nelbo(sched, np.array([0, 1]), oracle, 64, seed=0)
    assert est.mean_per_token <= 1e-6
    assert est.std_error >= 0.0


def test_sequence_nelbo_deterministic(two_outcome_oracle):
    oracle, sched = two_outcome_oracle
    a = sequence_nelbo(sched, np.array([0, 0]), oracle, 32, seed=9)
    b = sequence_nelbo(sched, np.array([0, 0]), oracle, 32, seed=9)
    assert a == b


def test_sequence_nelbo_lower_bounds_nll(two_outcome, two_outcome_oracle):
    oracle, sched = two_outcome_oracle
    total = 0.0
    se_sq = 0.0
    for i, (seq, p) in enumerate(two_outcome.outcomes):
        est = sequence_nelbo(sched, np.array(seq), oracle, 400, seed=100 + i)
        total += p * est.mean_per_token * two_outcome.length
        se_sq += (p * est.std_error * two_outcome.length) ** 2
    assert total >= two_outcome.entropy() - 3 * math.sqrt(se_sq)


def test_sequence_nelbo_rejects_empty(two_outcome_oracle):
    from mixdiff.errors import MixdiffError

    oracle, sched = two_outcome_oracle
    with pytest.raises(MixdiffError):
        sequence_nelbo(sched, np.array([], dtype=np.int64), oracle, 4)
    with pytest.raises(ValueError):
        sequence_nelbo(sched, np.array([0, 0]), oracle, 0)
    with pytest.raises(ValueError):
        sequence_nelbo(sched, np.array([0, 3]), oracle, 4)
    with pytest.raises(ValueError):
        sequence_nelbo(sched, np.array([0, -1]), oracle, 4)


def test_sequence_nelbo_error_types(vocab3, two_outcome, two_outcome_oracle):
    """The error types of the one-draw-at-a-time estimator."""
    oracle, sched = two_outcome_oracle
    # under pure masking, a revealed (0, 1) contradicts both outcomes
    with pytest.raises(DegenerateEvidenceError):
        sequence_nelbo(sched, [0, 1], oracle, 16)
    hybrid = make_schedule("hybrid", vocab3, p_u=0.2)
    for table in (LogitTable(vocab3, 3), LogitTable(Vocab(5, 4), 2)):
        with pytest.raises(ValueError):
            sequence_nelbo(hybrid, [0, 1], table, 4)


# sequence_nelbo(num_mc=64), recorded when each draw was scored alone, the
# trained table's when table_train became minibatch descent:
# (mean_per_token, std_error)
NELBO_PINS = {
    "oracle": (0.2757226438128818, 0.08628111994147261),
    "exact": (0.4680483798745235, 0.1420937001362736),
    "clamp": (0.12287222359115185, 0.03444409341778378),
    "dynamic": (0.14139881859458994, 0.034350072138135235),
}


def test_sequence_nelbo_same_bits(vocab3, two_outcome):
    vocab = Vocab(5, 4)
    dist = ToyDistribution(
        vocab, 6, (((0,) * 6, 0.3), ((1,) * 6, 0.25), ((2,) * 6, 0.25), ((3,) * 6, 0.2))
    )
    sched = make_schedule("hybrid", vocab, p_u=0.2)
    est = sequence_nelbo(sched, [1] * 6, OracleDenoiser(dist, sched), 64, seed=7)
    assert (est.mean_per_token, est.std_error) == NELBO_PINS["oracle"]
    sched = make_schedule("hybrid", vocab3, p_u=0.2)
    table = LogitTable(vocab3, 2)
    table_train(two_outcome, sched, table, 50, mode=CLAMP, seed=4)
    for mode in (EXACT, CLAMP, DYNAMIC):
        est = sequence_nelbo(sched, [1, 1], table, 64, seed=9, mode=mode)
        assert (est.mean_per_token, est.std_error) == NELBO_PINS[mode.kind]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("mask", 1.0), ("hybrid", 1.0), ("hybrid", 1.5)]),
    st.sampled_from(
        [EXACT, CLAMP, DYNAMIC, WeightingMode("clamp", 0.5), WeightingMode("dynamic", 2.0)]
    ),
    st.sampled_from([DEFAULT_WEIGHT_CLIP, 20.0, None]),
    st.integers(1, 8),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_batched_loss_and_grad_equals_rows(schedule, mode, clip, rows, length, shared, seed):
    """Each row of a batch, with its own time or one shared time, has the
    bits of a one-row call."""
    vocab = Vocab(5, 4)
    kind, gamma = schedule
    sched = make_schedule(kind, vocab, p_u=0.2 if kind == "hybrid" else 0.0, gamma=gamma)
    rng = np.random.default_rng(seed)
    # the endpoint eps_t makes the exact weights large enough to clip
    t = np.where(rng.random(rows) < 0.2, sched.eps_t, rng.uniform(1e-4, 1 - 1e-4, rows))
    if shared:
        t = np.full(rows, t[0])
    x = rng.integers(4, size=(rows, length))
    z = noise_sequence(sched, x, t, rng)
    probs = np.stack(
        [[random_prediction(rng, 5, 4) for _ in range(length)] for _ in range(rows)]
    )
    batched = loss_and_grad(sched, float(t[0]) if shared else t, z, x, probs, mode, clip)
    assert [v.shape for v in batched] == [z.shape] * 3 + [probs.shape]
    for b in range(rows):
        alone = loss_and_grad(sched, float(t[b]), z[b], x[b], probs[b], mode, clip)
        for got, want in zip(batched, alone):
            assert got[b].tobytes() == want.tobytes()


def test_batch_leaving_support_names_its_row(mask_sched):
    """Row 2 holds the only unsupported token; the error names its token, its
    clean token and its time, as a one-row call on row 2 does."""
    times = np.array([0.2, 0.4, 0.6, 0.8])
    x = np.zeros((4, 3), dtype=np.int64)
    z = np.array([[0, 4, 0], [4, 4, 0], [0, 1, 4], [4, 0, 0]])
    probs = np.full((4, 3, 5), 0.25)
    probs[..., 4] = 0.0
    with pytest.raises(UnsupportedStateError) as alone:
        loss_and_grad(mask_sched, 0.6, z[2], x[2], probs[2])
    with pytest.raises(UnsupportedStateError) as batched:
        loss_and_grad(mask_sched, times, z, x, probs, CLAMP)
    assert str(batched.value) == str(alone.value) == (
        "token 1 outside forward support of 0 at t=0.6"
    )


def _fd_grad(sched, t, z_t, x, logits, mode, h=1e-5):
    grad = np.zeros_like(logits)
    for i in range(len(logits)):
        for sign, acc in ((1.0, 1.0), (-1.0, -1.0)):
            bumped = logits.copy()
            bumped[i] += sign * h
            x_theta = np.exp(bumped - bumped.max())
            x_theta /= x_theta.sum()
            w, kl, is_term, _ = loss_and_grad(sched, t, [z_t], [x], [x_theta], mode)
            grad[i] += acc * (w * (kl + is_term))[0]
    return grad / (2 * h)


def test_gradient_matches_finite_differences(mask_sched, hybrid_sched):
    rng = np.random.default_rng(4)
    for sched in (mask_sched, hybrid_sched):
        for mode in (EXACT, CLAMP, DYNAMIC):
            for _ in range(30):
                t = 0.05 + 0.9 * rng.random()
                x = int(rng.integers(4))
                q = sched.marginal(t, x)
                z_t = int(rng.choice(np.flatnonzero(q > 0)))
                logits = rng.normal(size=5)
                probs = softmax(np.array(logits, dtype=float))
                g = loss_and_grad(sched, t, [z_t], [x], [probs], mode)[3][0]
                fd = _fd_grad(sched, t, z_t, x, logits, mode)
                scale = max(np.abs(fd).max(), 1e-6)
                assert np.abs(g - fd).max() / scale < 1e-4


def test_gradient_shift_invariance(hybrid_sched):
    logits = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
    probs = [softmax(logits + shift) for shift in (0.0, 3.7)]
    g1, g2 = (loss_and_grad(hybrid_sched, 0.4, [4], [1], [p])[3][0] for p in probs)
    np.testing.assert_allclose(g1, g2, atol=1e-10)


def test_gradient_vanishes_near_optimum(hybrid_sched):
    logits = np.full(5, -30.0)
    logits[1] = 10.0
    probs = softmax(np.array(logits, dtype=float))
    g = loss_and_grad(hybrid_sched, 0.5, [4], [1], [probs])[3][0]
    assert np.abs(g).max() < 1e-6


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["mask", "hybrid"]),
    st.sampled_from(
        [EXACT, CLAMP, DYNAMIC, WeightingMode("clamp", 0.5), WeightingMode("dynamic", 2.0)]
    ),
    st.integers(1, 6),
    st.floats(1e-4, 1.0 - 1e-4),
    st.integers(0, 2**32 - 1),
)
def test_loss_and_grad_matches_per_position_formulas(kind, mode, length, t, seed):
    vocab = Vocab(5, 4)
    sched = make_schedule(kind, vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    rng = np.random.default_rng(seed)
    x = rng.integers(4, size=length)
    z = np.array([rng.choice(np.flatnonzero(sched.marginal(t, xi) > 0)) for xi in x])
    probs = np.stack([random_prediction(rng, 5, 4) for _ in range(length)])
    w, kl, is_term, grad = loss_and_grad(sched, t, z, x, probs, mode)
    assert grad.shape == (length, 5)
    for i in range(length):
        if mode.kind == "dynamic":
            lam = sched.terms(t).log_snr
            w_ref = 1.0 + (z[i] == 4)
            if z[i] == x[i]:
                w_ref += (sched.params.B / 5) * math.exp(-lam / 2) - 1.0
            w_ref *= mode.w_max
        else:
            w_ref = min(sched.elbo_weights(t, x[i])[z[i]], DEFAULT_WEIGHT_CLIP)
            if mode.kind == "clamp":
                w_ref = min(w_ref, mode.w_max)
        p = sched.marginal(t, x[i])
        q = sched.marginal_mix(t, probs[i])
        kl_ref = sum(pj * math.log(pj / qj) for pj, qj in zip(p, q) if pj > 0)
        r = p[z[i]] / q[z[i]]
        assert w[i] == pytest.approx(w_ref, rel=1e-12, abs=1e-12)
        assert kl[i] == pytest.approx(kl_ref, rel=1e-12, abs=1e-12)
        assert is_term[i] == pytest.approx(r - math.log(r) - 1.0, rel=1e-12, abs=1e-12)


def test_loss_and_grad_rejects_unsupported_state(mask_sched):
    # under pure masking a token can only stay itself or become the mask
    probs = np.full((2, 5), 0.25)
    probs[:, 4] = 0.0
    with pytest.raises(UnsupportedStateError):
        loss_and_grad(mask_sched, 0.5, np.array([4, 1]), np.array([0, 0]), probs, EXACT)
    with pytest.raises(UnsupportedStateError):
        loss_and_grad(mask_sched, 0.5, [1], [0], probs[:1], CLAMP)



def test_loss_and_grad_rejects_tokens_outside_the_vocabulary(hybrid_sched):
    """A clean id of 9 (N = 5) used to get weight 2.0 as if no token were
    clean, and a noisy id of 9 numpy's reshape error."""
    probs = np.full((1, 2, 5), 0.25)
    probs[..., 4] = 0.0
    for z, x in (([[0, 4]], [[0, 9]]), ([[0, 9]], [[0, 1]]), ([[-1, 4]], [[0, 1]])):
        with pytest.raises(ValueError, match=r"token id (9|-1) outside \[0, 5\)"):
            loss_and_grad(hybrid_sched, 0.5, z, x, probs, EXACT)


@pytest.mark.parametrize("mode", [EXACT, CLAMP, DYNAMIC], ids=lambda m: m.kind)
def test_loss_parts_leave_their_inputs_alone(hybrid_sched, mode):
    """model_marginal, target_loss and target_grad return new arrays: every
    part of the target and the prediction keep their bytes, so one target
    slice serves a step's loss and then its gradient. The prediction is
    vocabulary first and C-order, as the parts take it, so none copies it."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 4, size=(3, 4))
    z = noise_sequence(hybrid_sched, x, 0.5, rng)
    probs = np.array([[random_prediction(rng, 5, 4) for _ in range(4)] for _ in range(3)])
    probs = np.ascontiguousarray(np.moveaxis(probs, -1, 0))
    times = np.array([0.2, 0.5, 0.8])
    target = loss_target(_forward(hybrid_sched.terms(times), x), z, mode)
    before = [v.tobytes() for v in (*target, probs)]
    model = model_marginal(target, probs)
    model_bytes = [v.tobytes() for v in model]
    target_loss(target, model)
    target_grad(target, model)
    assert [v.tobytes() for v in (*target, probs)] == before
    assert [v.tobytes() for v in model] == model_bytes


def test_grad_of_fortran_ordered_inputs(hybrid_sched):
    """The gradient at z is scattered through a flat view, which must not be
    a copy when the inputs are column-major."""
    rng = np.random.default_rng(3)
    x = rng.integers(0, 4, size=(2, 3))
    z = noise_sequence(hybrid_sched, x, 0.4, rng)
    probs = np.array([[random_prediction(rng, 5, 4) for _ in range(3)] for _ in range(2)])
    want = loss_and_grad(hybrid_sched, 0.4, z, x, probs)
    got = loss_and_grad(hybrid_sched, 0.4, *map(np.asfortranarray, (z, x, probs)))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_per_token_views_reject_bad_tokens(hybrid_sched):
    """One-token calls, under the dynamic weight, which has no support check."""
    probs = np.full(5, 0.25)
    probs[4] = 0.0
    for z_t, x in ((-1, 0), (0, 5)):
        with pytest.raises(ValueError, match="outside"):
            loss_and_grad(hybrid_sched, 0.5, [z_t], [x], [probs], DYNAMIC)


# Outputs of the two-outcome runs below; any change to the loss arithmetic
# that moves a bit shows up here. Per (schedule, mode): sha256 of the saved
# table, loss trajectory, and sequence_nelbo of the table and of the oracle.
# The (hybrid, dynamic) table was re-recorded when the closed forms became
# numpy ufunc calls.
PINNED = {
    ("mask", "exact"): (
        "955c1fd3f0e488658746cb167d27f7d1d2329cd3006856bf391b203eebd33be1",
        (0.5922686789702807, 0.6772019584121596, 0.7108575187982954),
        (11.086472679323979, 0.36881912403720707),
    ),
    ("mask", "clamp"): (
        "01c30afaa6b4fa4f0e48670d87ac3677d7789c08d000eda1f8980023fcc9b334",
        (0.0919368229909084, 0.08521137875786933, 0.11261358887188955),
        (0.465785901167066, 0.06732539176191532),
    ),
    ("mask", "dynamic"): (
        "9375fcbb58d09611ba32549340c91042536ed07bcdc60325983cc1e6f3eaa96d",
        (0.1838736459818168, 0.16962832607217873, 0.22365464325842388),
        (1.192009865966145, 0.13465078352383064),
    ),
    ("hybrid", "exact"): (
        "7cac0764e7f2e5e6a8a96ca34bda255944acbce617ffdd8bbd6156aeabeb76fa",
        (0.7166662195341892, 0.6700169558102279, 0.5177401890296489),
        (3.474200856277966, 0.16511754589275968),
    ),
    ("hybrid", "clamp"): (
        "8b4e0e498add767c9f64aad1accaf2f0ecc517a961849383e83c931644d85ee9",
        (0.18721636128436878, 0.1769136428162754, 0.15082426495095058),
        (0.24669548909799205, 0.06250041838261078),
    ),
    ("hybrid", "dynamic"): (
        "77e1aa8893bd89b83559f96aeb2146ea193fa669fa1ffcc267a38204f4aff802",
        (0.14518779660733802, 0.15755911231994857, 0.1811784305887502),
        (0.499220991830663, 0.06723261291667891),
    ),
}


@pytest.mark.parametrize("mode", [EXACT, CLAMP, DYNAMIC], ids=lambda m: m.kind)
@pytest.mark.parametrize("kind", ["mask", "hybrid"])
def test_same_seed_same_output(tmp_path, two_outcome, kind, mode):
    sched = make_schedule(kind, two_outcome.vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    table = LogitTable(two_outcome.vocab, 2)
    with mock.patch("mixdiff.denoiser.TRAJECTORY_EVERY", 10):
        report = table_train(two_outcome, sched, table, 20, mode=mode, seed=3)
    path = tmp_path / "table.txt"
    table.save(str(path))
    oracle = OracleDenoiser(two_outcome, sched)
    nelbos = (
        sequence_nelbo(sched, [0, 1], table, 8, seed=1, mode=mode).mean_per_token,
        sequence_nelbo(sched, [1, 1], oracle, 8, seed=2, mode=mode).mean_per_token,
    )
    digest, trajectory, expected_nelbos = PINNED[kind, mode.kind]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert report.loss_trajectory == trajectory
    assert nelbos == expected_nelbos


@pytest.mark.parametrize("inverse", [None, np.array([0])], ids=["own", "shared"])
def test_inverse_cdf_skips_zero_probability_token_at_u_zero(inverse):
    """u = 0 sits on the CDF entry 0 of a leading zero-probability token, which
    a draw must never return; rng.random and counter_uniforms can give 0.
    Rows own or shared, (D, L, N) here, pass vocabulary first, as the sampler does."""

    def draw(p, u):
        return _inverse_cdf(p.T, u.T, inverse).T

    assert draw(np.array([[0.0, 1.0]]), np.array([0.0])).tolist() == [1]
    assert draw(np.array([[[0.0, 0.0, 0.5, 0.5]]]), np.zeros((1, 1))).tolist() == [[2]]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    length=st.integers(1, 4),
    rows=st.integers(1, 6),
    draws=st.integers(1, 40),
    zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_cdf_counts_cdf_entries_below_u(n, length, rows, draws, zero_frac, seed):
    """Each draw is the count of cdf[k] <= u over k < N - 1, with the CDF summed
    left to right, whether the draws gather shared rows or own theirs; u may
    sit exactly on a CDF entry, and tokens may have probability zero."""
    rng = np.random.default_rng(seed)
    p = rng.random((rows, length, n)) * (rng.random((rows, length, n)) >= zero_frac)
    p[..., rng.integers(n)] += 0.5
    p /= p.sum(axis=-1, keepdims=True)
    inverse = rng.integers(0, rows, draws)
    u = rng.random((draws, length))
    expect = np.zeros((draws, length), dtype=np.int64)
    for b in range(draws):
        for l in range(length):
            cdf = np.zeros(n - 1)
            total = 0.0
            for k in range(n - 1):
                total += float(p[inverse[b], l, k])
                cdf[k] = total
            if rng.random() < 0.5 and cdf[-1] < 1.0:
                u[b, l] = cdf[rng.integers(n - 1)]
            expect[b, l] = int((cdf <= u[b, l]).sum())
    shared = _inverse_cdf(p.T, u.T, inverse).T
    own = _inverse_cdf(np.moveaxis(p[inverse], -1, 0), u)
    assert shared.dtype == np.int64 and own.dtype == np.int64
    np.testing.assert_array_equal(shared, expect)
    np.testing.assert_array_equal(own, expect)


def test_inverse_cdf_same_draws_for_either_order_of_u():
    """The sampler passes shared rows and u transposed; a row-major u and a
    column-major one give the same draws, which equal the own-row draws."""
    rng = np.random.default_rng(11)
    p = rng.random((7, 3, 5))
    p /= p.sum(axis=-1, keepdims=True)
    inverse = rng.integers(0, 7, 500)
    u = rng.random((500, 3))
    by_rows = _inverse_cdf(p.T, np.ascontiguousarray(u).T, inverse).T
    by_columns = _inverse_cdf(p.T, np.asfortranarray(u).T, inverse).T
    assert by_rows.dtype == by_columns.dtype == np.int64
    np.testing.assert_array_equal(by_rows, by_columns)
    np.testing.assert_array_equal(by_rows, _inverse_cdf(np.moveaxis(p[inverse], -1, 0), u))


@pytest.mark.parametrize("n", [130, 256, 257, 300])
def test_inverse_cdf_draws_token_ids_past_a_byte(n):
    """The draw counts in a small integer type; with all the mass
    on ids >= 128, every draw lands there, up to N - 1 (an int8 count would
    wrap past 127, a uint8 one past 255)."""
    p = np.zeros((2, 1, n))
    p[..., 128:] = 1.0 / (n - 128)
    u = np.concatenate([np.linspace(0.0, 1.0 - 2.0**-53, 999), [1.0 - 2.0**-53]])[:, None]
    inverse = np.arange(len(u)) % 2
    draws = _inverse_cdf(p.T, u.T, inverse).T
    assert draws.dtype == np.int64
    assert draws.min() == 128 and draws.max() == n - 1
    np.testing.assert_array_equal(draws, _inverse_cdf(np.moveaxis(p[inverse], -1, 0), u))


def _nelbo_alone(schedule, x_seq, denoiser, num_mc, seed, mode):
    """sequence_nelbo's reference, as it was before corpus_nelbo: one
    sequence, its noise drawn by noise_sequence and scored by loss_and_grad."""
    x_seq = np.asarray(x_seq, dtype=np.int64)
    rng = np.random.default_rng(seed)
    times = stratified_times(num_mc, rng.random(), schedule.eps_t)
    x_batch = np.broadcast_to(x_seq, (num_mc, len(x_seq)))
    z = noise_sequence(schedule, x_batch, times, rng)
    w, kl, is_term, _ = loss_and_grad(
        schedule, times, z, x_batch, denoiser.predict_batch(z, times), mode
    )
    per_sample = sum((w * (kl + is_term)).T) / len(x_seq)
    se = float(per_sample.std(ddof=1) / math.sqrt(num_mc)) if num_mc > 1 else 0.0
    return float(per_sample.mean()), se


_CORPUS_VOCAB = Vocab(5, 4)
_CORPUS_DIST = ToyDistribution(
    _CORPUS_VOCAB, 3, (((0, 1, 2), 0.4), ((1, 2, 3), 0.3), ((3, 3, 0), 0.2), ((0, 0, 0), 0.1))
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["mask", "hybrid"]),
    st.sampled_from(["oracle", "table"]),
    st.sampled_from([EXACT, CLAMP, DYNAMIC]),
    st.sampled_from([1, 2, 7, 64]),
    st.integers(1, 9),
    st.sampled_from([1, 16, 4096]),
    st.integers(0, 2**32 - 1),
)
def test_corpus_nelbo_rows_are_rows_alone(kind, denoiser, mode, num_mc, rows, block, seed):
    """Row i of corpus_nelbo(X) equals corpus_nelbo(X[i:i+1]) and the
    one-sequence estimator it replaced, bit for bit, whatever the block size."""
    rng = np.random.default_rng(seed)
    sched = make_schedule(kind, _CORPUS_VOCAB, p_u=0.2 if kind == "hybrid" else 0.0)
    if denoiser == "oracle":
        model = OracleDenoiser(_CORPUS_DIST, sched)
        # the mask schedule's oracle accepts the outcomes only
        x = _CORPUS_DIST.sample(rng, rows)
        if kind == "hybrid":
            x = np.where(rng.random(x.shape) < 0.3, rng.integers(0, 4, x.shape), x)
    else:
        model = LogitTable(_CORPUS_VOCAB, 3)
        table_train(_CORPUS_DIST, sched, model, 20, batch=16, seed=seed % 7)
        x = rng.integers(0, 4, (rows, 3))
    seeds = rng.integers(0, 2**63, rows).tolist()
    with mock.patch("mixdiff.elbo.NELBO_BLOCK", block):
        ests = corpus_nelbo(sched, x, model, num_mc, seeds, mode)
    assert len(ests) == rows
    for i, est in enumerate(ests):
        (alone,) = corpus_nelbo(sched, x[i : i + 1], model, num_mc, seeds[i : i + 1], mode)
        assert est == alone
        assert est.num_mc_samples == num_mc
        assert (est.mean_per_token, est.std_error) == _nelbo_alone(
            sched, x[i], model, num_mc, seeds[i], mode
        )


def test_corpus_nelbo_rejects_bad_input(two_outcome_oracle):
    oracle, sched = two_outcome_oracle
    with pytest.raises(ValueError, match="2 seeds for 1 sequences"):
        corpus_nelbo(sched, [[0, 0]], oracle, 4, [1, 2])
    with pytest.raises(ValueError, match="token id 3 outside"):
        corpus_nelbo(sched, [[0, 0], [0, 3]], oracle, 4, [1, 2])
    for corpus in ([], [0, 0]):
        with pytest.raises(ValueError, match=r"corpus must be \(S, L\), got shape \(\d+,\)"):
            corpus_nelbo(sched, corpus, oracle, 4, [])
    assert corpus_nelbo(sched, np.zeros((0, 2)), oracle, 4, []) == []


@pytest.mark.parametrize("kind", ["mask", "hybrid"])
def test_corpus_nelbo_refuses_rows_that_hold_the_mask_id(kind):
    """Clean rows hold no mask; the denoiser is never asked about one that does."""
    sched = make_schedule(kind, _CORPUS_VOCAB, p_u=0.2 if kind == "hybrid" else 0.0)
    oracle = OracleDenoiser(_CORPUS_DIST, sched)
    with mock.patch.object(oracle, "predict_batch", side_effect=AssertionError("called")):
        with pytest.raises(MaskedInputError, match="^NELBO requires a fully denoised sequence$"):
            corpus_nelbo(sched, [[0, 1, 2], [0, 1, 4]], oracle, 4, [1, 2])


@pytest.mark.parametrize("seed", [1.5, -1, 2**64], ids=["float", "negative", "wide"])
def test_corpus_nelbo_bad_row_seed_is_named_error(two_outcome_oracle, seed):
    oracle, sched = two_outcome_oracle
    with pytest.raises(ValueError, match=rf"seed must lie in .* got {seed!r}$"):
        corpus_nelbo(sched, [[0, 0], [1, 1]], oracle, 4, [0, seed])


def test_corpus_nelbo_memory_does_not_grow_with_the_corpus():
    """Blocks bound the (draws, L, N) loss arrays and the per-row generators:
    ten times the corpus stays within 1.5 times the working memory."""
    sched = make_schedule("mask", _CORPUS_VOCAB)
    oracle = OracleDenoiser(_CORPUS_DIST, sched)
    peaks = []
    for rows in (400, 4000):
        x = _CORPUS_DIST.sample(np.random.default_rng(rows), rows)
        seeds = list(range(rows))
        peaks.append(transient_peak(lambda: corpus_nelbo(sched, x, oracle, 16, seeds)))
    assert peaks[1] <= 1.5 * peaks[0]


def _per_sample(schedule, x_seq, denoiser, num_mc, seed):
    """The (num_mc,) per-token losses of one sequence that corpus_nelbo
    averages, drawn and scored as _nelbo_alone does."""
    x_seq = np.asarray(x_seq, dtype=np.int64)
    rng = np.random.default_rng(seed)
    times = stratified_times(num_mc, rng.random(), schedule.eps_t)
    x_batch = np.broadcast_to(x_seq, (num_mc, len(x_seq)))
    z = noise_sequence(schedule, x_batch, times, rng)
    w, kl, is_term, _ = loss_and_grad(schedule, times, z, x_batch, denoiser.predict_batch(z, times))
    return sum((w * (kl + is_term)).T) / len(x_seq)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["mask", "hybrid"]),
    st.sampled_from([1, 2, 3, 8, 9, 64, 200]),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_corpus_nelbo_mean_and_se_have_numpys_bits(kind, num_mc, rows, seed):
    """Each row's mean and standard error are np.mean and np.std over the
    rows of the (S, num_mc) per-sample losses, bit for bit, num_mc = 1 included."""
    rng = np.random.default_rng(seed)
    sched = make_schedule(kind, _CORPUS_VOCAB, p_u=0.2 if kind == "hybrid" else 0.0)
    oracle = OracleDenoiser(_CORPUS_DIST, sched)
    x = _CORPUS_DIST.sample(rng, rows)
    seeds = rng.integers(0, 2**63, rows).tolist()
    per_sample = np.array([_per_sample(sched, r, oracle, num_mc, s) for r, s in zip(x, seeds)])
    ests = corpus_nelbo(sched, x, oracle, num_mc, seeds)
    means = per_sample.mean(axis=1)
    se = per_sample.std(axis=1, ddof=min(1, num_mc - 1)) / math.sqrt(num_mc)
    assert np.array([est.mean_per_token for est in ests]).tobytes() == means.tobytes()
    assert np.array([est.std_error for est in ests]).tobytes() == se.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 9),
    st.integers(1, 6),
    st.integers(1, 4),
    st.floats(0.0, 60.0),
    st.floats(1e-8, 50.0).filter(lambda v: v != 1.0),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_softmax_callers_keep_their_own_formulas_bits(
    n, rows, length, scale, temperature, zero_frac, seed
):
    """masked_softmax, the tempered branch of adapt_distribution and the
    softmax of one token's logits share one softmax; each equals, bit for
    bit, the formula it had on its own, written out here."""
    rng = np.random.default_rng(seed)
    mask_id = int(rng.integers(n))
    logits = scale * rng.standard_normal((rows, length, n))

    work = np.array(logits, dtype=float)
    work[..., mask_id] = -np.inf
    np.subtract(work, np.maximum.reduce(work, axis=-1, keepdims=True), out=work)
    np.exp(work, out=work)
    want = np.divide(work, np.add.reduce(work, axis=-1, keepdims=True), out=work)
    assert masked_softmax(logits, mask_id).tobytes() == want.tobytes()

    p = rng.random(logits.shape)
    p[rng.random(p.shape) < zero_frac] = 0.0
    p[..., 0] += 0.1  # every row keeps some mass
    p /= p.sum(axis=-1, keepdims=True)
    logp = np.log(p, out=np.full_like(p, -np.inf), where=p > 0)
    logp /= temperature
    logp -= np.maximum.reduce(logp, axis=-1, keepdims=True)
    e = np.exp(logp)
    want = e / np.add.reduce(e, axis=-1, keepdims=True)
    assert adapt_distribution(p, temperature).tobytes() == want.tobytes()

    vocab = Vocab(n, mask_id)
    sched = make_schedule("hybrid", vocab, p_u=0.2)
    t = float(stratified_times(1, rng.random(), sched.eps_t)[0])
    x = int(rng.integers(n - 1))
    x += x >= mask_id
    z_t = int(noise_sequence(sched, [x], t, rng)[0])
    token_logits = logits[0, 0]
    e = np.exp(token_logits - token_logits.max())
    for mode in (EXACT, CLAMP, DYNAMIC):
        want = loss_and_grad(sched, t, [z_t], [x], [e / e.sum()], mode)[3][0]
        probs = softmax(np.array(token_logits, dtype=float))
        assert loss_and_grad(sched, t, [z_t], [x], [probs], mode)[3][0].tobytes() == want.tobytes()


def _q_last_axis(schedule, t, x):
    """alpha_t (B, 1, 1), beta_t pi_t (B, 1, N) and q_t(. | x) (B, L, N), the
    vocabulary last, as the loss built them before it moved the axis first."""
    n, terms = schedule.vocab.size, schedule.terms(t)
    a, bp = np.reshape(terms.alpha, (-1, 1, 1)), np.reshape(terms.beta_pi, (-1, 1, n))
    return a, bp, bp + a * (x[..., None] == np.arange(n))


def _loss_and_grad_last_axis(schedule, t, z, x, probs, mode):
    """loss_and_grad of (B, L) z and x and (B, L, N) probs written out with
    the vocabulary last: every max, sum and count over N is numpy's over the
    last axis, the weight clipped at DEFAULT_WEIGHT_CLIP."""
    n, terms = schedule.vocab.size, schedule.terms(t)
    a, bp, q_true = _q_last_axis(schedule, t, x)
    p_z = np.take_along_axis(q_true, z[..., None], -1)[..., 0]
    if mode.kind == "dynamic":
        w = np.ones(z.shape)
        w[z == schedule.vocab.mask_id] += 1.0
        clean = (schedule.params.B / n) * np.exp(-terms.log_snr / 2.0) - 1.0
        w = mode.w_max * (w + np.where(z == x, np.reshape(clean, (-1, 1)), 0.0))
    else:
        rate = np.reshape(terms.rate, (-1, n))[np.arange(len(a))[:, None], z]
        w = np.minimum(rate / p_z, DEFAULT_WEIGHT_CLIP)
        if mode.kind == "clamp":
            w = np.minimum(mode.w_max, w)
    p_z = np.maximum(p_z, 1e-30)
    q_model = np.maximum(a * probs + bp, 1e-30)
    q_z = np.take_along_axis(q_model, z[..., None], -1)[..., 0]
    log_ratio = np.log(np.maximum(q_true, 1e-30)) - np.log(q_model)
    kl = np.add.reduce(q_true * log_ratio, axis=-1)
    r = p_z / q_z
    g = -q_true / q_model
    g_z = np.take_along_axis(g, z[..., None], -1) + (1.0 / q_z - p_z / q_z**2)[..., None]
    np.put_along_axis(g, z[..., None], g_z, -1)
    g *= a * w[..., None]
    grad = probs * (g - np.add.reduce(probs * g, axis=-1, keepdims=True))
    return w, kl, r - np.log(r) - 1.0, grad


def _noise_last_axis(schedule, t, x, u):
    """noise_sequence's draw with the CDF summed and counted along the last axis."""
    cdf = np.add.accumulate(_q_last_axis(schedule, t, x)[2], axis=-1)[..., :-1]
    return np.add.reduce(cdf <= u[..., None], axis=-1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    rows=st.integers(1, 4),
    length=st.integers(1, 4),
    kind=st.sampled_from(["mask", "hybrid"]),
    one_time=st.booleans(),
    temperature=st.floats(1e-3, 20.0).filter(lambda v: v != 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_vocabulary_first_kernels_keep_the_last_axis_bits(
    n, rows, length, kind, one_time, temperature, seed
):
    """The loss kernels work vocabulary first, (N, B, L); each public entry
    moves the axis at its boundary and gives, bit for bit, what the same
    formula written with the vocabulary last gives, for every N with the
    mask id anywhere. numpy sums a contiguous last axis in order below 8
    entries and pairwise from 8 on; the kernels keep both orders."""
    rng = np.random.default_rng(seed)
    vocab = Vocab(n, int(rng.integers(n)))
    sched = make_schedule(kind, vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    x = rng.integers(0, n - 1, (rows, length))
    x += x >= vocab.mask_id
    t = stratified_times(rows, rng.random(), sched.eps_t)
    t = float(t[0]) if one_time else t

    u = np.random.default_rng(seed).random(x.shape)
    z = noise_sequence(sched, x, t, np.random.default_rng(seed))
    assert z.tobytes() == _noise_last_axis(sched, t, x, u).tobytes()

    logits = 4.0 * rng.standard_normal((rows, length, n))
    work = np.array(logits)
    work[..., vocab.mask_id] = -np.inf
    work = np.exp(work - np.maximum.reduce(work, axis=-1, keepdims=True))
    probs = work / np.add.reduce(work, axis=-1, keepdims=True)
    assert masked_softmax(logits, vocab.mask_id).tobytes() == probs.tobytes()
    logp = np.log(probs, out=np.full_like(probs, -np.inf), where=probs > 0) / temperature
    e = np.exp(logp - np.maximum.reduce(logp, axis=-1, keepdims=True))
    want = e / np.add.reduce(e, axis=-1, keepdims=True)
    assert adapt_distribution(probs, temperature).tobytes() == want.tobytes()

    for mode in (EXACT, CLAMP, DYNAMIC):
        got = loss_and_grad(sched, t, z, x, probs, mode)
        want = _loss_and_grad_last_axis(sched, t, z, x, probs, mode)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    outcomes = sorted(set(map(tuple, x.tolist())))
    dist = ToyDistribution(vocab, length, tuple((o, 1.0 / len(outcomes)) for o in outcomes))
    oracle, num_mc = OracleDenoiser(dist, sched), int(rng.integers(1, 12))
    for mode in (EXACT, CLAMP, DYNAMIC):
        (est,) = corpus_nelbo(sched, x[:1], oracle, num_mc, [seed], mode)
        draws = np.random.default_rng(seed)
        times = stratified_times(num_mc, draws.random(), sched.eps_t)
        x_batch = np.repeat(x[:1], num_mc, axis=0)
        z = _noise_last_axis(sched, times, x_batch, draws.random(x_batch.shape))
        w, kl, is_term, _ = _loss_and_grad_last_axis(
            sched, times, z, x_batch, oracle.predict_batch(z, times), mode
        )
        per_sample = sum((w * (kl + is_term)).T) / length
        se = float(per_sample.std(ddof=1) / math.sqrt(num_mc)) if num_mc > 1 else 0.0
        assert (est.mean_per_token, est.std_error) == (float(per_sample.mean()), se)
