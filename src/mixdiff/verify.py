"""Structural invariant suites, runnable as a batch (CLI `verify` command).

Each check returns (name, passed, detail). They cover the Markov-chain
algebra, rate consistency, weight identities, schedule calibration, and loss
shape properties at tight tolerances.
"""

from __future__ import annotations

import numpy as np

from .elbo import CLAMP, DYNAMIC, EXACT, mdm_loss, per_token_loss
from .schedule import (
    HybridSchedule,
    MaskOnlySchedule,
    ScheduleParams,
    Vocab,
    make_schedule,
)


def _schedules(n: int, p_u: float = 0.2):
    vocab = Vocab(n, n - 1)
    yield "mask", MaskOnlySchedule(vocab)
    yield "hybrid", HybridSchedule(vocab, ScheduleParams(p_u=p_u))


def _rand_times(schedule, rng, size):
    lo, hi = schedule.eps_t, 1.0 - schedule.eps_t
    return lo + (hi - lo) * rng.random(size)


def check_chapman_kolmogorov(seed=0, triples=1000, sizes=(3, 8, 16), tol=1e-12):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in sizes:
        for _, sched in _schedules(n):
            times = np.sort(_rand_times(sched, rng, (triples // len(sizes), 3)), axis=1)
            for r, s, t in times:
                q_sr = sched.conditional_transition(r, s).matrix()
                q_ts = sched.conditional_transition(s, t).matrix()
                q_tr = sched.conditional_transition(r, t).matrix()
                worst = max(worst, float(np.abs(q_ts @ q_sr - q_tr).max()))
    return "chapman_kolmogorov", worst <= tol, f"max abs error {worst:.3e}"


def check_marginal_consistency(seed=1, cases=500, n=8, tol=1e-12):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, sched in _schedules(n):
        for _ in range(cases):
            s, t = np.sort(_rand_times(sched, rng, 2))
            x = int(rng.integers(n))
            q = sched.conditional_transition(s, t).matrix()
            err = np.abs(q @ sched.marginal(s, x) - sched.marginal(t, x)).max()
            worst = max(worst, float(err))
    return "marginal_consistency", worst <= tol, f"max abs error {worst:.3e}"


def check_column_stochasticity(seed=2, cases=200, n=6, tol=1e-12):
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _, sched in _schedules(n):
        for _ in range(cases):
            s, t = np.sort(_rand_times(sched, rng, 2))
            q = sched.conditional_transition(s, t).matrix()
            worst = max(worst, float(np.abs(q.sum(axis=0) - 1.0).max()))
            ok = ok and bool(np.all(q >= -tol))
    return "column_stochasticity", ok and worst <= tol, f"max column-sum error {worst:.3e}"


def check_forward_rate_fd(seed=3, cases=200, n=6, delta=1e-6, rtol=1e-4):
    """Central finite differences of q_{t+d|t} match the generator."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, sched in _schedules(n):
        lo, hi = 0.01, 0.99
        for _ in range(cases):
            t = lo + (hi - lo) * rng.random()
            q_plus = sched.conditional_transition(t, t + delta).matrix()
            fd = (q_plus - np.eye(n)) / delta
            for z_from in range(n):
                for z_to in range(n):
                    r = sched.forward_rate(t, z_from, z_to)
                    scale = max(abs(r), 1.0)
                    worst = max(worst, abs(fd[z_to, z_from] - r) / scale)
    return "forward_rate_fd", worst <= rtol, f"max rel error {worst:.3e}"


def check_generator_rows(seed=4, cases=300, n=8, tol=1e-10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, sched in _schedules(n):
        for t in _rand_times(sched, rng, cases):
            for z_from in range(n):
                worst = max(worst, abs(sched.forward_rate_row(t, z_from).sum()))
    return "generator_rows_sum_zero", worst <= tol, f"max abs row sum {worst:.3e}"


def check_backward_rows(seed=5, cases=100, n=6, tol=1e-10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, sched in _schedules(n):
        for t in _rand_times(sched, rng, cases):
            x_theta = rng.random(n)
            x_theta[sched.vocab.mask_id] = 0.0
            x_theta /= x_theta.sum()
            for z_t in range(n):
                row = sum(
                    sched.backward_rate(t, z_t, z_s, x_theta) for z_s in range(n)
                )
                worst = max(worst, abs(row))
    return "backward_rows_sum_zero", worst <= tol, f"max abs row sum {worst:.3e}"


def check_backward_rate_fd(seed=6, cases=50, n=5, delta=1e-6, rtol=1e-4):
    """Normalized one-step backward kernel = identity + rate * delta + O(delta^2).

    Times stay away from the clamp boundary: rates grow like 1/t there, so the
    first-order Taylor error rate*delta alone would exceed the tolerance.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, sched in _schedules(n):
        lo, hi = 0.01, 0.99
        for _ in range(cases):
            t = lo + (hi - lo) * rng.random()
            s = t - delta
            x_theta = rng.random(n)
            x_theta[sched.vocab.mask_id] = 0.0
            x_theta /= x_theta.sum()
            q_t = sched.marginal_mix(t, x_theta)
            q_s = sched.marginal_mix(s, x_theta)
            trans = sched.conditional_transition(s, t)
            for z_t in range(n):
                if q_t[z_t] <= 0:
                    continue
                kernel = np.array(
                    [trans.prob(z_t, z_s) * q_s[z_s] / q_t[z_t] for z_s in range(n)]
                )
                for z_s in range(n):
                    rate = sched.backward_rate(t, z_t, z_s, x_theta)
                    pred = (1.0 if z_s == z_t else 0.0) + rate * delta
                    scale = max(abs(rate) * delta, delta)
                    worst = max(worst, abs(kernel[z_s] - pred) / scale)
    return "backward_rate_fd", worst <= rtol, f"max scaled error {worst:.3e}"


def check_weight_expectation(grid=100, n=5, tol=1e-10):
    """Enumerated E_{z_t ~ q_t(.|x)}[w_t(z_t, x)] = -alpha'/alpha."""
    worst = 0.0
    for _, sched in _schedules(n):
        x = 0
        times = np.linspace(sched.eps_t, 1.0 - sched.eps_t, grid)
        for t in times:
            q = sched.marginal(t, x)
            mean_w = sum(
                q[z] * sched.elbo_weight(t, z, x) for z in range(n) if q[z] > 0
            )
            target = -sched.alpha_prime(t) / sched.alpha(t)
            worst = max(worst, abs(mean_w - target) / max(abs(target), 1.0))
    return "weight_expectation", worst <= tol, f"max rel error {worst:.3e}"


def check_uniform_calibration(grid=200, tol=1e-12):
    """Hybrid uniform mass peaks at t = 1/2 with value exactly p_u."""
    ok = True
    detail = []
    for p_u in (0.1, 0.2):
        sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u)
        peak = sched.uniform_mass(0.5)
        ok = ok and abs(peak - p_u) <= tol
        ts = np.linspace(sched.eps_t, 1.0 - sched.eps_t, grid)
        masses = np.array([sched.uniform_mass(t) for t in ts])
        ok = ok and bool(np.all(masses <= peak + tol))
        detail.append(f"p_u={p_u}: peak {peak!r}")
    return "uniform_calibration", ok, "; ".join(detail)


def check_pu_zero_collapse(seed=7, cases=200, n=6, tol=1e-14):
    """Hybrid with p_u = 0 equals mask-only in every queried quantity."""
    rng = np.random.default_rng(seed)
    vocab = Vocab(n, n - 1)
    mask = MaskOnlySchedule(vocab)
    hyb = HybridSchedule(vocab, ScheduleParams(p_u=0.0))
    worst = 0.0
    for _ in range(cases):
        s, t = np.sort(_rand_times(mask, rng, 2))
        x = int(rng.integers(n))
        worst = max(worst, float(np.abs(mask.marginal(t, x) - hyb.marginal(t, x)).max()))
        tm = mask.conditional_transition(s, t).matrix()
        th = hyb.conditional_transition(s, t).matrix()
        worst = max(worst, float(np.abs(tm - th).max()))
        worst = max(worst, float(np.abs(mask.rate_vector(t) - hyb.rate_vector(t)).max()))
        z = int(rng.integers(n))
        qm = mask.marginal(t, x)
        if qm[z] > 0:
            worst = max(
                worst, abs(mask.elbo_weight(t, z, x) - hyb.elbo_weight(t, z, x))
            )
    return "pu_zero_collapse", worst <= tol, f"max abs difference {worst:.3e}"


def check_mdm_equivalence(seed=8, cases=1000, n=6, rtol=1e-8):
    """Exact-weight loss under mask-only noise equals the reference MDM loss."""
    rng = np.random.default_rng(seed)
    sched = MaskOnlySchedule(Vocab(n, n - 1))
    worst = 0.0
    for _ in range(cases):
        t = float(_rand_times(sched, rng, 1)[0])
        x = int(rng.integers(n - 1))
        x_theta = rng.random(n)
        x_theta[n - 1] = 0.0
        x_theta /= x_theta.sum()
        z_t = n - 1 if rng.random() < 0.5 else x
        full = per_token_loss(sched, t, z_t, x, x_theta, EXACT, weight_clip=None).total
        ref = mdm_loss(sched, t, z_t, x, x_theta)
        worst = max(worst, abs(full - ref) / max(abs(ref), 1e-12))
    return "mdm_equivalence", worst <= rtol, f"max rel error {worst:.3e}"


def check_loss_nonnegative(seed=9, cases=2000, n=5):
    rng = np.random.default_rng(seed)
    ok = True
    for _, sched in _schedules(n):
        for mode in (EXACT, CLAMP, DYNAMIC):
            for _ in range(cases // 6):
                t = float(_rand_times(sched, rng, 1)[0])
                x = int(rng.integers(n - 1))
                x_theta = rng.random(n)
                x_theta[n - 1] = 0.0
                x_theta /= x_theta.sum()
                q = sched.marginal(t, x)
                support = np.flatnonzero(q > 0)
                z_t = int(rng.choice(support))
                loss = per_token_loss(sched, t, z_t, x, x_theta, mode)
                ok = ok and loss.total >= 0.0 and loss.kl >= 0.0 and loss.is_term >= 0.0
    return "loss_nonnegative", ok, "all sampled losses nonnegative"


def check_global_minimum(seed=10, cases=200, n=5, tol=1e-12):
    """Loss vanishes when the prediction is the one-hot truth."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, sched in _schedules(n):
        for _ in range(cases):
            t = float(_rand_times(sched, rng, 1)[0])
            x = int(rng.integers(n - 1))
            x_theta = np.zeros(n)
            x_theta[x] = 1.0
            q = sched.marginal(t, x)
            z_t = int(rng.choice(np.flatnonzero(q > 0)))
            worst = max(worst, per_token_loss(sched, t, z_t, x, x_theta).total)
    return "global_minimum_zero", worst <= tol, f"max loss {worst:.3e}"


def check_weight_blowup(n=5):
    """Mask-token weight at the clamp boundary dwarfs its midpoint value."""
    sched = make_schedule("hybrid", Vocab(n, n - 1), p_u=0.2)
    w_eps = sched.elbo_weight(sched.eps_t, n - 1, 0)
    w_mid = sched.elbo_weight(0.5, n - 1, 0)
    ratio = w_eps / w_mid
    return "weight_blowup", ratio > 100.0, f"w_mask(eps)/w_mask(0.5) = {ratio:.1f}"


def check_log_snr_monotone(grid=1000, n=5):
    ok = True
    for _, sched in _schedules(n):
        ts = np.linspace(sched.eps_t, 1.0 - sched.eps_t, grid)
        lam = np.array([sched.log_snr(t) for t in ts])
        ok = ok and bool(np.all(np.diff(lam) < 0))
    return "log_snr_monotone", ok, "strictly decreasing on the grid"


ALL_CHECKS = (
    check_chapman_kolmogorov,
    check_marginal_consistency,
    check_column_stochasticity,
    check_forward_rate_fd,
    check_generator_rows,
    check_backward_rows,
    check_backward_rate_fd,
    check_weight_expectation,
    check_uniform_calibration,
    check_pu_zero_collapse,
    check_mdm_equivalence,
    check_loss_nonnegative,
    check_global_minimum,
    check_weight_blowup,
    check_log_snr_monotone,
)


def run_all():
    """Run every suite; returns a list of {name, passed, detail} dicts."""
    results = []
    for check in ALL_CHECKS:
        name, passed, detail = check()
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return results
