"""Plot-free tour of the per-token loss weights across diffusion time.

The exact weight is the ratio of the backward rate mass at the observed
noisy token to its marginal probability.  Near t = 0 that ratio blows up
like 1/t for uniform-noise tokens, which is why the clamped and dynamic
variants exist.  This script prints the three weightings side by side for
a masked token and for a uniformly resampled token.
"""

import numpy as np

from mixdiff import CLAMP, DYNAMIC, EXACT, Vocab, loss_and_grad, make_schedule


def main():
    vocab = Vocab(5, 4)
    sched = make_schedule("hybrid", vocab, p_u=0.2)
    x = 0  # clean token
    print("hybrid schedule, p_u = 0.2, N = 5")
    print(f"{'t':>8} {'exact(mask)':>12} {'exact(unif)':>12} "
          f"{'clamp(unif)':>12} {'dynamic(clean)':>15}")
    # one row per time, one column per noisy token: the mask, a uniformly
    # resampled token and the clean token itself; the weights ignore probs
    times = np.array([0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    z = np.tile([vocab.mask_id, 1, x], (len(times), 1))
    clean, probs = np.full(z.shape, x), np.zeros(z.shape + (vocab.size,))
    exact = loss_and_grad(sched, times, z, clean, probs, EXACT, None)[0]
    clamp = loss_and_grad(sched, times, z, clean, probs, CLAMP)[0]
    # the dynamic mode reshapes the weight on tokens left unnoised
    dynamic = loss_and_grad(sched, times, z, clean, probs, DYNAMIC)[0]
    for t, (w_mask, w_unif, _), w_clamp, w_dyn in zip(times, exact, clamp[:, 1], dynamic[:, 2]):
        print(f"{t:8.3f} {w_mask:12.4f} {w_unif:12.4f} {w_clamp:12.4f} {w_dyn:15.6f}")

    print()
    print("Sanity check: averaging the exact weight over the forward marginal")
    print("recovers -alpha'(t)/alpha(t) at every t (here a 5-point spot check).")
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.05, 0.95, size=5):
        q, w = sched.marginal_mix(t, np.eye(vocab.size)[x]), sched.elbo_weights(t, x)
        terms = sched.terms(t)
        ew = sum(q[z] * w[z] for z in range(vocab.size))
        ref = -terms.alpha_prime / terms.alpha
        print(f"  t={t:.4f}  E[w]={ew:.10f}  -a'/a={ref:.10f}")


if __name__ == "__main__":
    main()
