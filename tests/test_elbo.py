import hashlib
import math

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
    is_divergence_pointwise,
    kl_divergence,
    loss_and_grad,
    make_schedule,
    mdm_loss,
    noise_sequence,
    per_token_loss,
    per_token_loss_grad,
    sequence_nelbo,
    stratified_times,
    table_train,
)
from mixdiff.elbo import DEFAULT_WEIGHT_CLIP, loss_weight
from mixdiff.errors import UnsupportedStateError
from conftest import random_prediction


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


def test_loss_zero_at_truth(mask_sched, hybrid_sched):
    one_hot = np.zeros(5)
    one_hot[2] = 1.0
    for sched in (mask_sched, hybrid_sched):
        for mode in (EXACT, CLAMP, DYNAMIC):
            loss = per_token_loss(sched, 0.3, 4, 2, one_hot, mode)
            assert loss.kl == pytest.approx(0.0, abs=1e-12)
            assert loss.is_term == pytest.approx(0.0, abs=1e-12)
            assert loss.total == pytest.approx(0.0, abs=1e-12)


def test_mask_only_loss_hand_value(mask_sched):
    # masked token, model splits mass evenly between x and one alternative
    x_theta = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
    loss = per_token_loss(mask_sched, 0.5, 4, 0, x_theta, EXACT)
    assert loss.total == pytest.approx(-math.log(0.5) / 0.5, abs=1e-10)
    assert loss.total == pytest.approx(mdm_loss(mask_sched, 0.5, 4, 0, x_theta), abs=1e-10)


def test_dynamic_weight_hand_value(hybrid_sched):
    lam = hybrid_sched.log_snr(0.5)
    expected = (hybrid_sched.uniform_mix_constant / 5) * math.exp(-lam / 2)
    assert expected == pytest.approx(0.1224744871, abs=1e-9)
    w = loss_weight(hybrid_sched, 0.5, 0, 0, DYNAMIC)
    assert w == pytest.approx(expected, abs=1e-12)
    # mask token gets the doubled base weight
    assert loss_weight(hybrid_sched, 0.5, 4, 0, DYNAMIC) == pytest.approx(2.0)


def test_clamp_caps_weight(hybrid_sched):
    w_exact = loss_weight(hybrid_sched, 1e-4, 4, 0, EXACT, weight_clip=None)
    assert w_exact > 100.0
    assert loss_weight(hybrid_sched, 1e-4, 4, 0, CLAMP) == 1.0
    assert loss_weight(hybrid_sched, 1e-4, 4, 0, EXACT, weight_clip=1e4) <= 1e4


def test_mdm_equivalence_random(mask_sched):
    rng = np.random.default_rng(0)
    for _ in range(300):
        t = 1e-4 + (1 - 2e-4) * rng.random()
        x = int(rng.integers(4))
        x_theta = random_prediction(rng, 5, 4)
        z_t = 4 if rng.random() < 0.5 else x
        total = per_token_loss(mask_sched, t, z_t, x, x_theta, EXACT, weight_clip=None).total
        ref = mdm_loss(mask_sched, t, z_t, x, x_theta)
        assert abs(total - ref) <= 1e-8 * max(abs(ref), 1e-12)


def test_mdm_loss_zero_off_mask(mask_sched):
    assert mdm_loss(mask_sched, 0.5, 1, 1, np.full(5, 0.2)) == 0.0


def test_stratified_times_midpoints():
    grid = stratified_times(4, 0.5, 0.0)
    np.testing.assert_allclose(grid, [0.125, 0.375, 0.625, 0.875], atol=1e-15)
    grid = stratified_times(8, 0.25, 1e-4)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 1e-4 and grid[-1] <= 1 - 1e-4


def test_noise_sequence_marginals(hybrid_sched):
    rng = np.random.default_rng(1)
    x = np.zeros(100000, dtype=np.int64)
    z = noise_sequence(hybrid_sched, x, 0.5, rng)
    counts = np.bincount(z, minlength=5) / len(z)
    np.testing.assert_allclose(counts, [0.45, 0.05, 0.05, 0.05, 0.40], atol=0.006)


def test_sequence_nelbo_delta_distribution(vocab3):
    dist = ToyDistribution(vocab3, 2, (((0, 1), 1.0),))
    sched = make_schedule("hybrid", vocab3, p_u=0.2)
    oracle = OracleDenoiser(dist, sched)
    est = sequence_nelbo(sched, np.array([0, 1]), oracle, 64, seed=0)
    assert est.mean_per_token <= 1e-6
    assert est.std_error >= 0.0
    assert est.ppl == pytest.approx(math.exp(est.mean_per_token))


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


def _fd_grad(sched, t, z_t, x, logits, mode, h=1e-5):
    grad = np.zeros_like(logits)
    for i in range(len(logits)):
        for sign, acc in ((1.0, 1.0), (-1.0, -1.0)):
            bumped = logits.copy()
            bumped[i] += sign * h
            x_theta = np.exp(bumped - bumped.max())
            x_theta /= x_theta.sum()
            grad[i] += acc * per_token_loss(sched, t, z_t, x, x_theta, mode).total
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
                g = per_token_loss_grad(sched, t, z_t, x, logits, mode)
                fd = _fd_grad(sched, t, z_t, x, logits, mode)
                scale = max(np.abs(fd).max(), 1e-6)
                assert np.abs(g - fd).max() / scale < 1e-4


def test_gradient_shift_invariance(hybrid_sched):
    logits = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
    g1 = per_token_loss_grad(hybrid_sched, 0.4, 4, 1, logits)
    g2 = per_token_loss_grad(hybrid_sched, 0.4, 4, 1, logits + 3.7)
    np.testing.assert_allclose(g1, g2, atol=1e-10)


def test_gradient_vanishes_near_optimum(hybrid_sched):
    logits = np.full(5, -30.0)
    logits[1] = 10.0
    g = per_token_loss_grad(hybrid_sched, 0.5, 4, 1, logits)
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
    sched = make_schedule(kind, vocab, p_u=0.2)
    rng = np.random.default_rng(seed)
    x = rng.integers(4, size=length)
    z = np.array([rng.choice(np.flatnonzero(sched.marginal(t, xi) > 0)) for xi in x])
    probs = np.stack([random_prediction(rng, 5, 4) for _ in range(length)])
    w, kl, is_term, grad = loss_and_grad(sched, t, z, x, probs, mode)
    assert grad.shape == (length, 5)
    for i in range(length):
        if mode.kind == "dynamic":
            lam = sched.log_snr(t)
            w_ref = 1.0 + (z[i] == 4)
            if z[i] == x[i]:
                w_ref += (sched.uniform_mix_constant / 5) * math.exp(-lam / 2) - 1.0
            w_ref *= mode.w_max
        else:
            w_ref = min(sched.elbo_weight(t, z[i], x[i]), DEFAULT_WEIGHT_CLIP)
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
        per_token_loss(mask_sched, 0.5, 1, 0, probs[0], CLAMP)



def test_per_token_views_reject_bad_tokens(hybrid_sched):
    probs = np.full(5, 0.25)
    probs[4] = 0.0
    for z_t, x in ((-1, 0), (0, 5)):
        with pytest.raises(ValueError):
            per_token_loss(hybrid_sched, 0.5, z_t, x, probs, DYNAMIC)
        with pytest.raises(ValueError):
            per_token_loss_grad(hybrid_sched, 0.5, z_t, x, np.zeros(5), DYNAMIC)
        with pytest.raises(ValueError):
            loss_weight(hybrid_sched, 0.5, z_t, x, DYNAMIC)


# Outputs of the two-outcome runs below; any change to the loss arithmetic
# that moves a bit shows up here. Per (schedule, mode): sha256 of the saved
# table, loss trajectory, and sequence_nelbo of the table and of the oracle.
PINNED = {
    ("mask", "exact"): (
        "6af59bbc629bc14ab54b602a5b18e7d8e213d36364edf5144bfb24fbb98a0de1",
        (0.6430822530906339, 0.5225272224949159, 0.6621156509715375),
        (10.966026436648114, 0.36881912403720707),
    ),
    ("mask", "clamp"): (
        "a7cac43143d621c7ffc5074c3fad33528e2592c497d91b3db169924b79d2dfd2",
        (0.09286307593844671, 0.08540827387522812, 0.1097216959919627),
        (0.45885851981245457, 0.06732539176191532),
    ),
    ("mask", "dynamic"): (
        "2dd0994620e4fb330f36cf88fca949771df1e7fbef3333e032e6b45f43a17767",
        (0.18914115583982558, 0.1656754756385077, 0.20969334822604924),
        (1.1683671847484929, 0.13465078352383064),
    ),
    ("hybrid", "exact"): (
        "9be93f8df5c8807dc9bc8e604a0f69e7240bb74dd5c37b3f9562e89a01015ea5",
        (0.7072503641414161, 0.6696143907097034, 0.5630990193521909),
        (3.4351804690764314, 0.16511754589275968),
    ),
    ("hybrid", "clamp"): (
        "0005b719a1f8e523a44c6ff174eade90ab061b65af569d40d4f77368bd8db7a8",
        (0.1702751400567133, 0.17695699350250338, 0.14993581239165274),
        (0.24424750189076216, 0.06250041838261078),
    ),
    ("hybrid", "dynamic"): (
        "995db2f44aaf99bb1d1e48e3640b1cf375644c55be420b2c0deff856d7651139",
        (0.1453191493022379, 0.15693222586545105, 0.18040492793472127),
        (0.4891214487710114, 0.06723261291667891),
    ),
}


@pytest.mark.parametrize("mode", [EXACT, CLAMP, DYNAMIC], ids=lambda m: m.kind)
@pytest.mark.parametrize("kind", ["mask", "hybrid"])
def test_same_seed_same_output(tmp_path, two_outcome, kind, mode):
    sched = make_schedule(kind, two_outcome.vocab, p_u=0.2)
    table = LogitTable(two_outcome.vocab, 2)
    report = table_train(two_outcome, sched, table, 20, mode=mode, seed=3, trajectory_every=10)
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
