"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (bypassing
capture so the verdicts are visible in plain `pytest -v` output) and then
asserts, so the suite fails loudly if any criterion regresses.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from mixdiff import (
    CLAMP,
    DYNAMIC,
    EXACT,
    LogitTable,
    OracleDenoiser,
    SamplerConfig,
    SelfCorrectConfig,
    ToyDistribution,
    Vocab,
    ancestral_sample_batch,
    generative_nll,
    loss_and_grad,
    make_schedule,
    mdm_loss,
    noise_sequence,
    self_accuracy,
    self_correct,
    sequence_nelbo,
    table_train,
    tv_distance,
)
from mixdiff.cli import main as cli_main
from mixdiff.denoiser import posterior_kl_to_oracle
from mixdiff.elbo import softmax
from mixdiff.errors import DegenerateEvidenceError

EPS = 1e-4


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_reporting(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(num, name, ok, detail):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})\n"
    with _CAPTURE.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, line


def _random_pred(rng, n, mask_id):
    p = rng.random(n)
    p[mask_id] = 0.0
    return p / p.sum()


def _times(rng, size):
    return EPS + (1 - 2 * EPS) * rng.random(size)


FIVE_OUTCOME = ToyDistribution(
    Vocab(5, 4),
    3,
    (
        ((0, 1, 2), 0.3),
        ((1, 2, 3), 0.25),
        ((2, 3, 0), 0.2),
        ((3, 0, 1), 0.15),
        ((0, 0, 0), 0.1),
    ),
)


def test_criterion_01_mdm_equivalence():
    sched = make_schedule("mask", Vocab(6, 5))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        t = float(_times(rng, 1)[0])
        x = int(rng.integers(5))
        x_theta = _random_pred(rng, 6, 5)
        z_t = 5 if rng.random() < 0.5 else x
        w, kl, is_term, _ = loss_and_grad(sched, t, [z_t], [x], [x_theta], EXACT, None)
        total = (w * (kl + is_term))[0]
        ref = mdm_loss(sched, t, z_t, x, x_theta)
        worst = max(worst, abs(total - ref) / max(abs(ref), 1e-12))
    report(1, "mdm_equivalence", worst <= 1e-8, f"max rel err {worst:.2e}")


def test_criterion_02_markov_chain_algebra():
    rng = np.random.default_rng(102)
    worst = 0.0
    start = time.time()
    for n in (3, 8, 16):
        vocab = Vocab(n, n - 1)
        for sched in (make_schedule("mask", vocab), make_schedule("hybrid", vocab, p_u=0.2)):
            for _ in range(1000 // 6 + 1):
                r, s, t = np.sort(_times(rng, 3))
                q_sr = sched.terms(r).to(sched.terms(s)).matrix()
                q_ts = sched.terms(s).to(sched.terms(t)).matrix()
                q_tr = sched.terms(r).to(sched.terms(t)).matrix()
                worst = max(worst, float(np.abs(q_ts @ q_sr - q_tr).max()))
                one_hot = np.eye(n)[int(rng.integers(n))]
                q_r, q_t = sched.marginal_mix(r, one_hot), sched.marginal_mix(t, one_hot)
                worst = max(worst, float(np.abs(q_tr @ q_r - q_t).max()))
    elapsed = time.time() - start
    report(
        2,
        "markov_chain_algebra",
        worst <= 1e-12 and elapsed < 5,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_rate_checks():
    rng = np.random.default_rng(103)
    delta = 1e-6
    worst_fd = 0.0
    worst_row = 0.0
    worst_bwd = 0.0
    start = time.time()
    vocab = Vocab(5, 4)
    for sched in (make_schedule("mask", vocab), make_schedule("hybrid", vocab, p_u=0.2)):
        for _ in range(60):
            t = 0.01 + 0.98 * rng.random()
            fd = (sched.terms(t).to(sched.terms(t + delta)).matrix() - np.eye(5)) / delta
            rates = sched.generator(t)
            for z_from in range(5):
                row = rates[z_from]
                worst_row = max(worst_row, abs(row.sum()))
                for z_to in range(5):
                    r = row[z_to]
                    worst_fd = max(worst_fd, abs(fd[z_to, z_from] - r) / max(abs(r), 1.0))
            x_theta = _random_pred(rng, 5, 4)
            q_t = sched.marginal_mix(t, x_theta)
            q_s = sched.marginal_mix(t - delta, x_theta)
            trans = sched.terms(t - delta).to(sched.terms(t))
            back = sched.backward_generator(t, x_theta)
            for z_t in range(5):
                if q_t[z_t] <= 0:
                    continue
                for z_s in range(5):
                    kernel = trans.matrix()[z_t, z_s] * q_s[z_s] / q_t[z_t]
                    rate = back[z_t, z_s]
                    pred = (1.0 if z_s == z_t else 0.0) + rate * delta
                    worst_bwd = max(
                        worst_bwd, abs(kernel - pred) / max(abs(rate) * delta, delta)
                    )
    elapsed = time.time() - start
    ok = worst_fd <= 1e-4 and worst_bwd <= 1e-4 and worst_row <= 1e-10 and elapsed < 5
    report(
        3,
        "rate_checks",
        ok,
        f"fwd {worst_fd:.2e}, bwd {worst_bwd:.2e}, rows {worst_row:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_weight_identities():
    vocab = Vocab(5, 4)
    worst = 0.0
    for sched in (make_schedule("mask", vocab), make_schedule("hybrid", vocab, p_u=0.2)):
        for t in np.linspace(EPS, 1 - EPS, 100):
            q, w = sched.marginal_mix(t, np.eye(5)[0]), sched.elbo_weights(t, 0)
            terms = sched.terms(t)
            mean_w = sum(q[z] * w[z] for z in range(5) if q[z] > 0)
            target = -terms.alpha_prime / terms.alpha
            worst = max(worst, abs(mean_w - target) / max(abs(target), 1.0))
    hyb_w = make_schedule("hybrid", vocab, p_u=0.2).elbo_weights(0.5, 0)
    hands = (
        abs(hyb_w[4] - 4.0),
        abs(hyb_w[1] - 2.0),
        abs(hyb_w[0] - 0.2222),
    )
    ok = worst <= 1e-10 and all(h <= 1e-4 for h in hands)
    report(4, "weight_identities", ok, f"E[w] err {worst:.2e}, hand errs {max(hands):.2e}")


def test_criterion_05_uniform_calibration():
    # The uniform component has total mass c/C = p_u at t = 1/2, but a draw
    # from it lands back on x with probability 1/(N-1), so only a
    # (N-2)/(N-1) share of it is observable as a non-{x, m} token. Scale the
    # observed fraction back up to get an unbiased estimate of the mass.
    start = time.time()
    n_tokens = 100000
    details = []
    ok = True
    for p_u in (0.1, 0.2):
        sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u)
        assert abs(sched.terms(0.5).uniform_mass - p_u) < 1e-15  # analytic peak
        rng = np.random.default_rng(105)
        x = np.zeros(n_tokens, dtype=np.int64)
        z = noise_sequence(sched, x, 0.5, rng)
        visible = p_u * 3 / 4
        frac = float(np.mean((z != 0) & (z != 4)))
        estimate = frac * 4 / 3
        sigma = math.sqrt(visible * (1 - visible) / n_tokens) * 4 / 3
        ok = ok and abs(estimate - p_u) <= 3 * sigma
        details.append(f"p_u={p_u}: estimate {estimate:.4f}")
    elapsed = time.time() - start
    report(5, "uniform_calibration", ok and elapsed < 2, "; ".join(details))


def test_criterion_06_global_minimum():
    vocab = Vocab(5, 4)
    delta = ToyDistribution(vocab, 3, (((2, 0, 3), 1.0),))
    sched = make_schedule("hybrid", vocab, p_u=0.2)
    oracle = OracleDenoiser(delta, sched)
    est = sequence_nelbo(sched, np.array([2, 0, 3]), oracle, 64, seed=6)
    rng = np.random.default_rng(106)
    nonneg = True
    schedules = (make_schedule("mask", vocab), sched)
    for _ in range(100000 // 6):
        s = schedules[int(rng.integers(2))]
        mode = (EXACT, CLAMP, DYNAMIC)[int(rng.integers(3))]
        t = float(_times(rng, 1)[0])
        x = int(rng.integers(4))
        x_theta = _random_pred(rng, 5, 4)
        q = s.marginal_mix(t, np.eye(5)[x])
        z_t = int(rng.choice(np.flatnonzero(q > 0)))
        w, kl, is_term, _ = loss_and_grad(s, t, [z_t], [x], [x_theta], mode)
        nonneg = nonneg and (w * (kl + is_term))[0] >= 0.0
    ok = est.mean_per_token <= 1e-6 and nonneg
    report(6, "global_minimum", ok, f"delta NELBO {est.mean_per_token:.2e}, nonneg {nonneg}")


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(107)
    vocab = Vocab(5, 4)
    schedules = (make_schedule("mask", vocab), make_schedule("hybrid", vocab, p_u=0.2))
    modes = (EXACT, CLAMP, DYNAMIC)
    h = 1e-5
    worst = 0.0
    start = time.time()
    for i in range(500):
        sched = schedules[i % 2]
        mode = modes[i % 3]
        t = 0.02 + 0.96 * rng.random()
        x = int(rng.integers(4))
        q = sched.marginal_mix(t, np.eye(5)[x])
        z_t = int(rng.choice(np.flatnonzero(q > 0)))
        logits = rng.normal(size=5)
        probs = softmax(np.array(logits, dtype=float))
        grad = loss_and_grad(sched, t, [z_t], [x], [probs], mode)[3][0]
        fd = np.zeros(5)
        for j in range(5):
            for sign in (1.0, -1.0):
                bumped = logits.copy()
                bumped[j] += sign * h
                soft = np.exp(bumped - bumped.max())
                soft /= soft.sum()
                w, kl, is_term, _ = loss_and_grad(sched, t, [z_t], [x], [soft], mode)
                fd[j] += sign * (w * (kl + is_term))[0]
        fd /= 2 * h
        scale = max(np.abs(fd).max(), 1e-8)
        worst = max(worst, float(np.abs(grad - fd).max() / scale))
    elapsed = time.time() - start
    report(7, "gradient_correctness", worst <= 1e-4 and elapsed < 5, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_training_sanity():
    vocab = Vocab(3, 2)
    dist = ToyDistribution(vocab, 2, (((0, 0), 0.5), ((1, 1), 0.5)))
    sched = make_schedule("hybrid", vocab, p_u=0.2)
    oracle = OracleDenoiser(dist, sched)
    table = LogitTable(vocab, 2)
    start = time.time()
    steps = 2000
    table_train(dist, sched, table, steps=steps, batch=64, mode=CLAMP, seed=0)
    elapsed = time.time() - start

    def stream_loss(denoiser):
        total = 0.0
        for i, (seq, p) in enumerate(dist.outcomes):
            est = sequence_nelbo(sched, np.array(seq), denoiser, 300, seed=800 + i)
            total += p * est.mean_per_token
        return total

    oracle_loss = stream_loss(oracle)
    table_loss = stream_loss(table)
    kl = posterior_kl_to_oracle(dist, sched, oracle, table, num_samples=500)
    ok = table_loss <= 1.1 * oracle_loss and kl <= 0.05 and steps <= 20000 and elapsed < 60
    report(
        8,
        "training_sanity",
        ok,
        f"loss {table_loss:.4f} vs oracle {oracle_loss:.4f}, KL {kl:.4f}, {elapsed:.0f}s",
    )


def test_criterion_09_reverse_process_recovery():
    sched = make_schedule("hybrid", FIVE_OUTCOME.vocab, p_u=0.01)
    oracle = OracleDenoiser(FIVE_OUTCOME, sched)
    start = time.time()
    tvs = {}
    for steps in (2, 8, 32, 128):
        samples = ancestral_sample_batch(
            sched, 3, oracle, SamplerConfig(num_steps=steps, seed=7), 20000
        )
        tvs[steps] = tv_distance(samples, FIVE_OUTCOME)
    elapsed = time.time() - start
    slack = 2 * math.sqrt(1.0 / 20000)  # 2 sigma of the empirical TV noise
    monotone = all(
        tvs[b] <= tvs[a] + slack for a, b in zip((2, 8, 32), (8, 32, 128))
    )
    ok = tvs[128] <= 0.05 and monotone and elapsed < 120
    detail = ", ".join(f"T={k}: {v:.3f}" for k, v in tvs.items())
    report(9, "reverse_process_recovery", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_10_self_correction():
    vocab = Vocab(5, 4)
    dist = ToyDistribution(
        vocab, 6, (((0,) * 6, 0.3), ((1,) * 6, 0.25), ((2,) * 6, 0.25), ((3,) * 6, 0.2))
    )
    rng = np.random.default_rng(110)
    clean = dist.sample(rng, 1000)
    corrupted = clean.copy()
    hit = rng.random(clean.shape) < 0.2
    for b, l in zip(*np.where(hit)):
        while True:
            c = int(rng.integers(4))
            if c != clean[b, l]:
                corrupted[b, l] = c
                break
    n_corrupted = int(hit.sum())

    sched = make_schedule("hybrid", vocab, p_u=0.2)
    oracle = OracleDenoiser(dist, sched)
    start = time.time()
    repaired = 0
    outputs = []
    for i in range(1000):
        res = self_correct(
            corrupted[i], oracle, SelfCorrectConfig(temperature=0.1, seed=i), vocab.mask_id
        )
        outputs.append(res.sequence)
        repaired += int(np.sum(hit[i] & (res.sequence == clean[i])))
    acc_before = float(
        np.mean([self_accuracy(corrupted[i], oracle, EPS, vocab.mask_id) for i in range(1000)])
    )
    acc_after = float(
        np.mean([self_accuracy(outputs[i], oracle, EPS, vocab.mask_id) for i in range(1000)])
    )
    nll_before, _ = generative_nll(corrupted, dist, floor=1e-30)
    nll_after, _ = generative_nll(outputs, dist, floor=1e-30)

    mask_sched = make_schedule("mask", vocab)
    mask_oracle = OracleDenoiser(dist, mask_sched)
    mask_errors = 0
    mask_repairs = 0
    for i in range(1000):
        try:
            res = self_correct(
                corrupted[i],
                mask_oracle,
                SelfCorrectConfig(temperature=0.1, seed=i),
                vocab.mask_id,
            )
            mask_repairs += int(np.sum(hit[i] & (res.sequence == clean[i])))
        except DegenerateEvidenceError:
            mask_errors += 1
    elapsed = time.time() - start

    rate = repaired / n_corrupted
    ok = (
        rate >= 0.9
        and acc_after > acc_before
        and nll_after < nll_before
        and mask_repairs == 0
        and mask_errors > 0
        and elapsed < 120
    )
    report(
        10,
        "self_correction",
        ok,
        f"repaired {rate:.3f}, acc {acc_before:.3f}->{acc_after:.3f}, "
        f"nll {nll_before:.1f}->{nll_after:.2f}, mask-only errors {mask_errors}, "
        f"repairs {mask_repairs}, {elapsed:.0f}s",
    )


def test_criterion_11_weight_curve_export(capsys):
    code = cli_main(["weights-csv", "--schedule", "hybrid", "--p-u", "0.2", "--grid-size", "101"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    w_mask = {float(r[0]): float(r[1]) for r in rows}
    ratio = w_mask[min(w_mask)] / w_mask[0.5]
    sched = make_schedule("hybrid", Vocab(5, 4), p_u=0.2)
    capped = all(
        loss_and_grad(sched, t, [4], [0], [np.zeros(5)], CLAMP)[0][0] <= 1.0 + 1e-12
        for t in w_mask
    )
    ok = ratio > 100.0 and capped
    report(11, "weight_curve_export", ok, f"w_mask(eps)/w_mask(0.5) = {ratio:.0f}, clamp capped {capped}")


def test_criterion_12_nelbo_lower_bounds_nll():
    sched = make_schedule("hybrid", FIVE_OUTCOME.vocab, p_u=0.2)
    table = LogitTable(FIVE_OUTCOME.vocab, 3)
    table_train(FIVE_OUTCOME, sched, table, steps=300, batch=64, mode=CLAMP, seed=12)
    total = 0.0
    se_sq = 0.0
    for i, (seq, p) in enumerate(FIVE_OUTCOME.outcomes):
        est = sequence_nelbo(sched, np.array(seq), table, 200, seed=900 + i)
        total += p * est.mean_per_token * FIVE_OUTCOME.length
        se_sq += (p * est.std_error * FIVE_OUTCOME.length) ** 2
    se = math.sqrt(se_sq)
    exact = FIVE_OUTCOME.entropy()
    ok = total >= exact - 3 * se
    report(
        12,
        "nelbo_lower_bounds_nll",
        ok,
        f"NELBO {total:.3f} vs exact NLL {exact:.3f} (se {se:.3f})",
    )
