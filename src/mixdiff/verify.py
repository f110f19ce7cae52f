"""Structural invariant suites, runnable as a batch (CLI `verify` command).

Each check returns (name, passed, detail). They cover the Markov-chain
algebra, rate consistency, weight identities, schedule calibration, and loss
shape properties at tight tolerances.
"""

from __future__ import annotations

import numpy as np

from .elbo import CLAMP, DYNAMIC, EXACT, loss_and_grad, mdm_loss
from .schedule import Vocab, make_schedule


def _schedules(n: int):
    vocab = Vocab(n, n - 1)
    return make_schedule("mask", vocab), make_schedule("hybrid", vocab, p_u=0.2)


def _rand_times(schedule, rng, size):
    lo, hi = schedule.eps_t, 1.0 - schedule.eps_t
    return lo + (hi - lo) * rng.random(size)


def _rand_prediction(rng, n):
    """A random distribution over tokens 0..n-2; the mask, n - 1, gets 0."""
    x_theta = rng.random(n)
    x_theta[n - 1] = 0.0
    return x_theta / x_theta.sum()


def _columns(draws):
    """Per-case draws, one tuple per case in turn, as one array per quantity."""
    return [np.array(v) for v in zip(*draws)]


def _loss_cases(sched, rng, cases, n, random_prediction=True):
    """Per case, drawn in turn: a time t, a clean non-mask token x, a random prediction (else
    one_hot(x)) and z from the support of q_t(. | x), the same at every t in [eps_t, 1 - eps_t]."""
    support = sched.marginal_mix(0.5, np.eye(n)) > 0.0
    return _columns(
        (_rand_times(sched, rng, 1)[0], x := rng.integers(n - 1),
         _rand_prediction(rng, n) if random_prediction else np.eye(n)[x],
         rng.choice(np.flatnonzero(support[x])))
        for _ in range(cases)
    )


def _losses(sched, t, x, x_theta, z, *options):
    """Per row, the loss w * (kl + is_term), kl and is_term that loss_and_grad
    gives token z; options are its mode and weight_clip."""
    w, kl, is_term, _ = loss_and_grad(sched, t, z[:, None], x[:, None], x_theta[:, None], *options)
    return (w * (kl + is_term))[:, 0], kl[:, 0], is_term[:, 0]


def check_chapman_kolmogorov(seed=0, triples=1000, sizes=(3, 8, 16), tol=1e-12):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in sizes:
        for sched in _schedules(n):
            r, s, t = np.sort(_rand_times(sched, rng, (triples // len(sizes), 3)), axis=1).T
            trans = sched.conditional_transition
            q_sr, q_ts, q_tr = trans(r, s).matrix(), trans(s, t).matrix(), trans(r, t).matrix()
            worst = max(worst, float(np.abs(q_ts @ q_sr - q_tr).max()))
    return "chapman_kolmogorov", worst <= tol, f"max abs error {worst:.3e}"


def check_marginal_consistency(seed=1, cases=500, n=8, tol=1e-12):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sched in _schedules(n):
        st, x = _columns(
            (np.sort(_rand_times(sched, rng, 2)), rng.integers(n)) for _ in range(cases)
        )
        (s, t), one_hot = st.T, np.eye(n)[x]
        q = sched.conditional_transition(s, t).matrix() @ sched.marginal_mix(s, one_hot)[..., None]
        worst = max(worst, float(np.abs(q[..., 0] - sched.marginal_mix(t, one_hot)).max()))
    return "marginal_consistency", worst <= tol, f"max abs error {worst:.3e}"


def check_column_stochasticity(seed=2, cases=200, n=6, tol=1e-12):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sched in _schedules(n):
        s, t = np.sort(_rand_times(sched, rng, (cases, 2)), axis=1).T
        q = sched.conditional_transition(s, t).matrix()
        worst = max(worst, float(np.abs(q.sum(axis=-2) - 1.0).max()))
    return "column_stochasticity", worst <= tol, f"max column-sum error {worst:.3e}"


def check_forward_kernel_nonnegative(seed=11, cases=1000, n=6):
    """Q_{t|s} >= 0 entrywise at random s <= t and at s one to four ulps
    below t, and the generator R_t is >= 0 off its diagonal."""
    rng = np.random.default_rng(seed)
    kernel, rate, off = np.inf, np.inf, ~np.eye(n, dtype=bool)
    for sched in _schedules(n):
        pairs = [np.sort(_rand_times(sched, rng, (cases, 2)), axis=1).T]
        s = t = _rand_times(sched, rng, cases)
        for _ in range(4):
            t = np.nextafter(t, 1.0)
            pairs.append((s, t))
        s, t = np.concatenate(pairs, axis=1)
        kernel = min(kernel, float(sched.conditional_transition(s, t).matrix().min()))
        rate = min(rate, float(sched.generator(t)[:, off].min()))
    return (
        "forward_kernel_nonnegative",
        kernel >= 0.0 and rate >= 0.0,
        f"min kernel entry {kernel:.3e}; min off-diagonal rate {rate:.3e}",
    )


def check_forward_rate_fd(seed=3, cases=200, n=6, delta=1e-6, rtol=1e-4):
    """Central finite differences of q_{t+d|t} match the generator."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sched in _schedules(n):
        t = 0.01 + (0.99 - 0.01) * rng.random(cases)
        fd = (sched.conditional_transition(t, t + delta).matrix() - np.eye(n)) / delta
        r = sched.generator(t)
        worst = max(worst, float((np.abs(fd.mT - r) / np.maximum(np.abs(r), 1.0)).max()))
    return "forward_rate_fd", worst <= rtol, f"max rel error {worst:.3e}"


def check_generator_rows(seed=4, cases=300, n=8, tol=1e-10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sched in _schedules(n):
        rows = sched.generator(_rand_times(sched, rng, cases)).sum(axis=-1)
        worst = max(worst, float(np.abs(rows).max()))
    return "generator_rows_sum_zero", worst <= tol, f"max abs row sum {worst:.3e}"


def _flow_bound(hybrid, lo):
    """A bound on |d^3/dt^3 q_t(. | x_theta)| over t in [lo, 1 - lo] for a
    hybrid schedule with gamma = 1, derived from c_t, not fitted.

    With g = 1/(1 + c_t), q_t = u + ((1 - t) x_theta + t m - u) g, so the
    third derivative is at most |g'''| + 3 |g''|, which is at most
    |c'''| + 6 |c' c''| + 6 |c'|^3 + 3 |c''| + 6 c'^2. Here c_t = B sqrt(s)
    with s = t (1 - t), and |c'|, |c''| and |c'''| grow towards both ends,
    so their values at t = lo bound them on the range. Mask-only noise
    (c = 0) has bound 0, below any hybrid's.
    """
    if hybrid.params.gamma != 1.0:
        raise ValueError(f"the flow bound is derived for gamma = 1, got {hybrid.params.gamma!r}")
    b, s, ds = hybrid.params.B, lo * (1.0 - lo), 1.0 - 2.0 * lo
    c1 = b * ds / (2.0 * s**0.5)
    c2 = -b * (1.0 / s**0.5 + ds**2 / (4.0 * s**1.5))
    c3 = b * (3.0 * ds / (2.0 * s**1.5) + 3.0 * ds**3 / (8.0 * s**2.5))
    return abs(c3) + 6.0 * abs(c1 * c2) + 6.0 * abs(c1) ** 3 + 3.0 * abs(c2) + 6.0 * c1**2


def check_backward_rows(seed=5, cases=100, n=6, delta=1e-6, lo=0.01, row_tol=1e-10):
    """The backward generator R^_t = backward_generator(t, x_theta) has rows
    summing to zero at times t in [eps_t, 1 - eps_t], and at times in
    [lo, 1 - lo] runs the marginal q_t = q_t(. | x_theta) backwards:
    q_t R^_t = -dq_t/dt. The reference dq_t/dt is the central difference of
    marginal_mix over t +- delta, which reads no rate.

    The flow tolerance is that difference's error bound: truncation below
    delta^2 / 6 times _flow_bound, plus rounding below 16 eps / (2 delta)
    for q evaluated to within 8 ulp.
    """
    rng = np.random.default_rng(seed)
    mask, hybrid = _schedules(n)
    tol = delta**2 / 6.0 * _flow_bound(hybrid, lo) + 16.0 * 2.0**-52 / (2.0 * delta)
    rows, flow = 0.0, 0.0
    for sched in (mask, hybrid):
        t, inner, x_theta = _columns(
            (_rand_times(sched, rng, 1)[0], lo + (1.0 - 2.0 * lo) * rng.random(),
             _rand_prediction(rng, n))
            for _ in range(cases)
        )
        rows = max(rows, float(np.abs(sched.backward_generator(t, x_theta).sum(axis=-1)).max()))
        q = sched.marginal_mix(inner, x_theta)
        dq = sched.marginal_mix(inner + delta, x_theta) - sched.marginal_mix(inner - delta, x_theta)
        dq /= 2.0 * delta
        back = sched.backward_generator(inner, x_theta)
        flow = max(flow, float(np.abs((q[:, None, :] @ back)[:, 0] + dq).max()))
    return (
        "backward_rows_sum_zero",
        rows <= row_tol and flow <= tol,
        f"max abs row sum {rows:.3e}; max flow error {flow:.3e} (bound {tol:.3e})",
    )


def check_backward_rate_fd(seed=6, cases=50, n=5, delta=1e-6, rtol=1e-4):
    """Normalized one-step backward kernel = identity + rate * delta + O(delta^2).

    Times stay away from the clamp boundary: rates grow like 1/t there, so the
    first-order Taylor error rate*delta alone would exceed the tolerance.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sched in _schedules(n):
        t, x_theta = _columns(
            (0.01 + (0.99 - 0.01) * rng.random(), _rand_prediction(rng, n)) for _ in range(cases)
        )
        q_t, q_s = sched.marginal_mix(t, x_theta), sched.marginal_mix(t - delta, x_theta)
        # kernel[z_t, z_s]; every q_t(z_t | x_theta) > 0, as x_theta > 0 off the mask
        trans = sched.conditional_transition(t - delta, t).matrix()
        kernel = trans * q_s[:, None] / q_t[..., None]
        rate = sched.backward_generator(t, x_theta)
        scale = np.maximum(np.abs(rate) * delta, delta)
        worst = max(worst, float((np.abs(kernel - (np.eye(n) + rate * delta)) / scale).max()))
    return "backward_rate_fd", worst <= rtol, f"max scaled error {worst:.3e}"


def check_weight_expectation(grid=100, n=5, tol=1e-10):
    """Enumerated E_{z_t ~ q_t(.|x)}[w_t(z_t, x)] = -alpha'/alpha."""
    worst = 0.0
    for sched in _schedules(n):
        times = np.linspace(sched.eps_t, 1.0 - sched.eps_t, grid)
        mean_w = (sched.marginal(times, 0) * sched.elbo_weights(times, 0)).sum(axis=-1)
        terms = sched.terms(times)
        target = -terms.alpha_prime / terms.alpha
        err = np.abs(mean_w - target) / np.maximum(np.abs(target), 1.0)
        worst = max(worst, float(err.max()))
    return "weight_expectation", worst <= tol, f"max rel error {worst:.3e}"


def check_uniform_calibration(grid=200, tol=1e-12):
    """Hybrid uniform mass peaks at t = 1/2 with value exactly p_u."""
    ok = True
    detail = []
    for p_u in (0.1, 0.2):
        sched = make_schedule("hybrid", Vocab(5, 4), p_u=p_u)
        peak = float(sched.terms(0.5).uniform_mass)
        ok = ok and abs(peak - p_u) <= tol
        masses = sched.terms(np.linspace(sched.eps_t, 1.0 - sched.eps_t, grid)).uniform_mass
        ok = ok and bool(np.all(masses <= peak + tol))
        detail.append(f"p_u={p_u}: peak {peak!r}")
    return "uniform_calibration", ok, "; ".join(detail)


def check_pu_zero_collapse(seed=7, cases=200, n=6, tol=1e-14):
    """Hybrid with p_u = 0 equals the mask-only closed forms in every queried
    quantity: alpha = 1-t, alpha' = -1, beta_pi = t m, pi = m, rate = m/(1-t),
    the marginal, alpha_ts = (1-t)/(1-s) and the weight rate[z] / q_t(z | x), which
    loss_and_grad gives whatever the prediction, here one_hot(x)."""
    rng = np.random.default_rng(seed)
    hyb = make_schedule("hybrid", Vocab(n, n - 1), p_u=0.0)
    m = hyb.vocab.spread(1.0, 0.0)
    st, x, z = _columns(
        (np.sort(_rand_times(hyb, rng, 2)), rng.integers(n), rng.integers(n)) for _ in range(cases)
    )
    (s, t), rows = st.T, np.arange(cases)
    q = t[:, None] * m
    q[rows, x] += 1.0 - t
    on = q[rows, z] > 0
    w = loss_and_grad(hyb, t[on], z[on, None], x[on, None], np.eye(n)[x[on, None]], EXACT, None)[0]
    terms = hyb.terms(t)
    pairs = [
        (terms.alpha, 1.0 - t),
        (terms.alpha_prime, -1.0),
        (terms.beta_pi, t[:, None] * m),
        (terms.beta_pi / terms.beta_pi.sum(axis=-1, keepdims=True), m),
        (terms.rate, m / (1.0 - t[:, None])),
        (hyb.marginal_mix(t, np.eye(n)[x]), q),
        (hyb.conditional_transition(s, t).alpha_ts, (1.0 - t) / (1.0 - s)),
        (w[:, 0], m[z[on]] / (1.0 - t[on]) / q[rows, z][on]),
    ]
    worst = max(float(np.abs(np.subtract(got, ref)).max()) for got, ref in pairs)
    return "pu_zero_collapse", worst <= tol, f"max abs difference {worst:.3e}"


def check_mdm_equivalence(seed=8, cases=1000, n=6, rtol=1e-8):
    """Exact-weight loss under mask-only noise equals the reference MDM loss."""
    rng = np.random.default_rng(seed)
    sched = make_schedule("mask", Vocab(n, n - 1))
    t, x, x_theta, coin = _columns(
        (_rand_times(sched, rng, 1)[0], rng.integers(n - 1), _rand_prediction(rng, n),
         rng.random())
        for _ in range(cases)
    )
    z_t = np.where(coin < 0.5, n - 1, x)
    total = _losses(sched, t, x, x_theta, z_t, EXACT, None)[0]
    ref = mdm_loss(sched, t, z_t, x, x_theta)
    worst = float((np.abs(total - ref) / np.maximum(np.abs(ref), 1e-12)).max())
    return "mdm_equivalence", worst <= rtol, f"max rel error {worst:.3e}"


def check_loss_nonnegative(seed=9, cases=2000, n=5):
    rng = np.random.default_rng(seed)
    ok = True
    for sched in _schedules(n):
        for mode in (EXACT, CLAMP, DYNAMIC):
            losses = _losses(sched, *_loss_cases(sched, rng, cases // 6, n), mode)
            ok = ok and bool(np.all(np.array(losses) >= 0.0))
    return "loss_nonnegative", ok, "all sampled losses nonnegative"


def check_global_minimum(seed=10, cases=200, n=5, tol=1e-12):
    """Loss vanishes when the prediction is the one-hot truth."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sched in _schedules(n):
        total = _losses(sched, *_loss_cases(sched, rng, cases, n, random_prediction=False))[0]
        worst = max(worst, float(total.max()))
    return "global_minimum_zero", worst <= tol, f"max loss {worst:.3e}"


def check_weight_blowup(n=5):
    """Mask-token weight at the clamp boundary dwarfs its midpoint value."""
    sched = make_schedule("hybrid", Vocab(n, n - 1), p_u=0.2)
    ratio = sched.elbo_weights(sched.eps_t, 0)[n - 1] / sched.elbo_weights(0.5, 0)[n - 1]
    return "weight_blowup", ratio > 100.0, f"w_mask(eps)/w_mask(0.5) = {ratio:.1f}"


def check_log_snr_monotone(grid=1000, n=5):
    ok = True
    for sched in _schedules(n):
        lam = sched.terms(np.linspace(sched.eps_t, 1.0 - sched.eps_t, grid)).log_snr
        ok = ok and bool(np.all(np.diff(lam) < 0))
    return "log_snr_monotone", ok, "strictly decreasing on the grid"


ALL_CHECKS = (
    check_chapman_kolmogorov,
    check_marginal_consistency,
    check_column_stochasticity,
    check_forward_kernel_nonnegative,
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
