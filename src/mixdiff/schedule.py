"""Mixing schedules and all forward-process quantities.

A mixing schedule is the pair (alpha_t, pi_t): a decreasing mixing rate and a
time-varying mixing distribution. Everything else follows from them: marginals
q_t(. | x) = alpha_t x + beta_t pi_t, conditional transitions between two
times, the forward/backward CTMC rates, the per-token loss weights, and the
log-SNR. Two concrete schedules are provided: mask-only interpolation and a
hybrid schedule that mixes in a configurable amount of uniform noise while
keeping the all-mask prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateStateError,
    OrderingError,
    TimeRangeError,
    UnsupportedStateError,
)

DEFAULT_EPS_T = 1e-4
LOG_FLOOR = 1e-30


@dataclass(frozen=True)
class Vocab:
    """Vocabulary of `size` token ids with a distinguished mask token."""

    size: int
    mask_id: int

    def __post_init__(self):
        if self.size < 3:
            raise ValueError("vocab needs at least 3 tokens (data, alternative, mask)")
        if not 0 <= self.mask_id < self.size:
            raise ValueError(f"mask_id {self.mask_id} outside [0, {self.size})")

    def mask_one_hot(self) -> np.ndarray:
        m = np.zeros(self.size)
        m[self.mask_id] = 1.0
        return m

    def uniform_non_mask(self) -> np.ndarray:
        """Uniform distribution over all non-mask tokens."""
        u = np.full(self.size, 1.0 / (self.size - 1))
        u[self.mask_id] = 0.0
        return u

    def check_token(self, z: int) -> int:
        if not 0 <= z < self.size:
            raise ValueError(f"token id {z} outside [0, {self.size})")
        return int(z)


def check_prob_vector(p: np.ndarray, size: int | None = None, atol: float = 1e-9) -> np.ndarray:
    """Validate a dense categorical distribution; returns it as float64."""
    p = np.asarray(p, dtype=float)
    if size is not None and p.shape != (size,):
        raise ValueError(f"expected length-{size} vector, got shape {p.shape}")
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if np.any(p < 0):
        raise ValueError("probability vector has negative entries")
    if abs(p.sum() - 1.0) > atol:
        raise ValueError(f"probability vector sums to {p.sum()!r}, not 1")
    return p


@dataclass(frozen=True)
class ScheduleParams:
    """Hybrid-schedule parameters.

    p_u is the peak expected fraction of uniform-noise tokens, attained at
    t = 1/2. The derived constant B = 2^gamma * p_u / (1 - p_u) calibrates the
    bump c_t = B t^(gamma/2) (1-t)^(gamma/2) so that exactly p_u is reached.
    """

    p_u: float
    gamma: float = 1.0
    eps_t: float = DEFAULT_EPS_T

    def __post_init__(self):
        if not 0.0 <= self.p_u < 1.0:
            raise ValueError("p_u must lie in [0, 1)")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0.0 < self.eps_t < 0.5:
            raise ValueError("eps_t must lie in (0, 0.5)")

    @property
    def B(self) -> float:
        return 2.0**self.gamma * self.p_u / (1.0 - self.p_u)


@dataclass(frozen=True)
class ConditionalTransition:
    """Markov kernel from time s to t: Q_{t|s} = alpha_ts I + beta_pi_ts 1^T."""

    alpha_ts: float
    beta_pi_ts: np.ndarray

    def matrix(self) -> np.ndarray:
        n = self.beta_pi_ts.shape[0]
        return self.alpha_ts * np.eye(n) + np.outer(self.beta_pi_ts, np.ones(n))

    def prob(self, z_t: int, z_s: int) -> float:
        """q_{t|s}(z_t | z_s)."""
        p = self.beta_pi_ts[z_t]
        if z_t == z_s:
            p += self.alpha_ts
        return float(p)


class MixingSchedule:
    """Base class; concrete schedules define the closed-form quantities.

    All time arguments are validated against [eps_t, 1 - eps_t]; exact
    endpoints are rejected because some derived quantities are singular there.
    """

    def __init__(self, vocab: Vocab, eps_t: float = DEFAULT_EPS_T):
        self.vocab = vocab
        self.eps_t = float(eps_t)
        self._mask = vocab.mask_one_hot()
        self._uniform = vocab.uniform_non_mask()

    # -- quantities each concrete schedule provides ---------------------------

    def alpha(self, t: float) -> float:
        raise NotImplementedError

    def alpha_prime(self, t: float) -> float:
        raise NotImplementedError

    def beta_pi(self, t: float) -> np.ndarray:
        """The noise component beta_t * pi_t of the marginal."""
        raise NotImplementedError

    def rate_vector(self, t: float) -> np.ndarray:
        """beta_t pi_t' - (alpha_t'/alpha_t) pi_t, the off-diagonal rate profile."""
        raise NotImplementedError

    # The hybrid-schedule constant; zero for mask-only. Used by the dynamic
    # loss weighting.
    uniform_mix_constant: float = 0.0

    # -- derived quantities ----------------------------------------------------

    def check_time(self, t: float) -> float:
        t = float(t)
        if not self.eps_t <= t <= 1.0 - self.eps_t:
            raise TimeRangeError(
                f"t={t!r} outside [{self.eps_t}, {1.0 - self.eps_t}]"
            )
        return t

    def beta(self, t: float) -> float:
        return 1.0 - self.alpha(t)

    def pi(self, t: float) -> np.ndarray:
        bp = self.beta_pi(t)
        return bp / bp.sum()

    def log_snr(self, t: float) -> float:
        """lambda_t = log(alpha_t / (1 - alpha_t))."""
        t = self.check_time(t)
        a = self.alpha(t)
        return math.log(a) - math.log1p(-a)

    def marginal(self, t: float, x: int) -> np.ndarray:
        """q_t(. | x) = alpha_t one_hot(x) + beta_t pi_t."""
        t = self.check_time(t)
        x = self.vocab.check_token(x)
        q = self.beta_pi(t).copy()
        q[x] += self.alpha(t)
        return q

    def marginal_mix(self, t: float, x_theta: np.ndarray) -> np.ndarray:
        """q_t(. | x_theta): marginal with the one-hot replaced by a distribution."""
        t = self.check_time(t)
        return self.alpha(t) * np.asarray(x_theta, dtype=float) + self.beta_pi(t)

    def conditional_transition(self, s: float, t: float) -> ConditionalTransition:
        s = self.check_time(s)
        t = self.check_time(t)
        if s > t:
            raise OrderingError(f"need s <= t, got s={s!r} > t={t!r}")
        a_ts = self.alpha(t) / self.alpha(s)
        bp_ts = self.beta_pi(t) - a_ts * self.beta_pi(s)
        return ConditionalTransition(alpha_ts=a_ts, beta_pi_ts=bp_ts)

    def forward_rate(self, t: float, z_from: int, z_to: int) -> float:
        """CTMC generator entry R_t(z_from, z_to)."""
        t = self.check_time(t)
        z_from = self.vocab.check_token(z_from)
        z_to = self.vocab.check_token(z_to)
        r = self.rate_vector(t)[z_to]
        if z_from == z_to:
            r += self.alpha_prime(t) / self.alpha(t)
        return float(r)

    def forward_rate_row(self, t: float, z_from: int) -> np.ndarray:
        t = self.check_time(t)
        row = self.rate_vector(t).copy()
        row[self.vocab.check_token(z_from)] += self.alpha_prime(t) / self.alpha(t)
        return row

    def backward_rate(self, t: float, z_t: int, z_s: int, x_theta: np.ndarray) -> float:
        """Denoising-chain generator entry, conditioned on the model prediction."""
        t = self.check_time(t)
        z_t = self.vocab.check_token(z_t)
        z_s = self.vocab.check_token(z_s)
        q = self.marginal_mix(t, x_theta)
        if q[z_t] <= 0.0:
            raise DegenerateStateError(f"q_t({z_t} | x_theta) is zero")
        if z_s != z_t:
            return self.forward_rate(t, z_s, z_t) * float(q[z_s] / q[z_t])
        rates_in = np.array(
            [self.forward_rate(t, z, z_t) for z in range(self.vocab.size)]
        )
        return self.forward_rate(t, z_t, z_t) - float(rates_in @ q / q[z_t])

    def elbo_weight(self, t: float, z_t: int, x: int) -> float:
        """w_t(z_t, x) = rate_vector(t)[z_t] / q_t(z_t | x)."""
        t = self.check_time(t)
        z_t = self.vocab.check_token(z_t)
        q = self.marginal(t, x)
        if q[z_t] <= 0.0:
            raise UnsupportedStateError(
                f"token {z_t} outside forward support of {x} at t={t!r}"
            )
        return float(self.rate_vector(t)[z_t] / q[z_t])


class MaskOnlySchedule(MixingSchedule):
    """Linear interpolation between data and the mask token: alpha_t = 1 - t."""

    uniform_mix_constant = 0.0

    def alpha(self, t: float) -> float:
        return 1.0 - self.check_time(t)

    def alpha_prime(self, t: float) -> float:
        self.check_time(t)
        return -1.0

    def beta_pi(self, t: float) -> np.ndarray:
        return self.check_time(t) * self._mask

    def pi(self, t: float) -> np.ndarray:
        self.check_time(t)
        return self._mask.copy()

    def rate_vector(self, t: float) -> np.ndarray:
        # pi is constant, so the rate profile is -(alpha'/alpha) pi = pi/(1-t).
        t = self.check_time(t)
        return self._mask / (1.0 - t)


class HybridSchedule(MixingSchedule):
    """Mask prior with a mid-trajectory bump of uniform noise.

    alpha_t = (1-t)/C_t and beta_t pi_t = (t m + c_t u)/C_t with
    c_t = B t^(gamma/2) (1-t)^(gamma/2) and C_t = 1 + c_t. The total mass on
    the uniform component, c_t/C_t, peaks at t = 1/2 with value exactly p_u.
    p_u = 0 is an exact analytic branch (c identically zero) that collapses to
    the mask-only schedule.
    """

    def __init__(self, vocab: Vocab, params: ScheduleParams):
        super().__init__(vocab, eps_t=params.eps_t)
        self.params = params
        self.uniform_mix_constant = params.B

    def _c(self, t: float) -> float:
        b = self.params.B
        if b == 0.0:
            return 0.0
        g = self.params.gamma
        return b * t ** (g / 2.0) * (1.0 - t) ** (g / 2.0)

    def _c_prime(self, t: float) -> float:
        if self.params.B == 0.0:
            return 0.0
        g = self.params.gamma
        return (g / 2.0) * (1.0 - 2.0 * t) / (t * (1.0 - t)) * self._c(t)

    def alpha(self, t: float) -> float:
        t = self.check_time(t)
        return (1.0 - t) / (1.0 + self._c(t))

    def alpha_prime(self, t: float) -> float:
        # closed form: alpha'/alpha = -1/(1-t) - c'/(1+c)
        t = self.check_time(t)
        ratio = -1.0 / (1.0 - t) - self._c_prime(t) / (1.0 + self._c(t))
        return ratio * self.alpha(t)

    def beta_pi(self, t: float) -> np.ndarray:
        t = self.check_time(t)
        c = self._c(t)
        return (t * self._mask + c * self._uniform) / (1.0 + c)

    def rate_vector(self, t: float) -> np.ndarray:
        # closed form: (m + (c + (1-t) c') u) / (C (1-t))
        t = self.check_time(t)
        c = self._c(t)
        cp = self._c_prime(t)
        return (self._mask + (c + (1.0 - t) * cp) * self._uniform) / (
            (1.0 + c) * (1.0 - t)
        )

    def uniform_mass(self, t: float) -> float:
        """Total probability of the uniform component at time t: c_t / C_t."""
        t = self.check_time(t)
        c = self._c(t)
        return c / (1.0 + c)


def make_schedule(
    kind: str,
    vocab: Vocab,
    p_u: float = 0.0,
    gamma: float = 1.0,
    eps_t: float = DEFAULT_EPS_T,
) -> MixingSchedule:
    """Factory used by the CLI and tests."""
    if kind == "mask":
        return MaskOnlySchedule(vocab, eps_t=eps_t)
    if kind == "hybrid":
        return HybridSchedule(vocab, ScheduleParams(p_u=p_u, gamma=gamma, eps_t=eps_t))
    raise ValueError(f"unknown schedule kind {kind!r}")
