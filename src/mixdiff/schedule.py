"""Mixing schedules and all forward-process quantities.

A mixing schedule is the pair (alpha_t, pi_t): a decreasing mixing rate and a
time-varying mixing distribution. Everything else follows from them: marginals
q_t(. | x) = alpha_t x + beta_t pi_t, conditional transitions between two
times, the forward/backward CTMC rates, the per-token loss weights, and the
log-SNR. One schedule class covers the family: a hybrid schedule that mixes
in a configurable amount of uniform noise while keeping the all-mask prior.
With no uniform noise (p_u = 0) it is mask-only interpolation;
`MaskOnlySchedule` and `HybridSchedule` are factories for the two cases.
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


def _entrywise(fn, x):
    """fn(x) for a float x, fn at each entry of an array x. fn uses libm's pow,
    exp and log: numpy's vectorised ones differ in the last bit on some inputs."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.tolist()])
    return fn(x)


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
    """Mask prior with a mid-trajectory bump of uniform noise.

    alpha_t = (1-t)/C_t and beta_t pi_t = (t m + c_t u)/C_t with
    c_t = B t^(gamma/2) (1-t)^(gamma/2) and C_t = 1 + c_t. The total mass on
    the uniform component, c_t/C_t, peaks at t = 1/2 with value exactly p_u.
    p_u = 0 is an exact analytic branch (c identically zero): mask-only
    interpolation, alpha_t = 1 - t.

    All time arguments are validated against [eps_t, 1 - eps_t]; exact
    endpoints are rejected because some derived quantities are singular there.
    `check_time`, `terms`, `alpha`, `alpha_prime`, `beta_pi`, `rate_vector`,
    `uniform_mass` and `log_snr` also take a (B,) array of times and return
    (B,) or (B, N) arrays whose rows have the bits of each time alone.
    """

    def __init__(self, vocab: Vocab, params: ScheduleParams):
        self.vocab = vocab
        self.params = params
        self.eps_t = float(params.eps_t)
        # The constant B; zero for mask-only. Used by the dynamic loss weighting.
        self.uniform_mix_constant = params.B
        self._u = 1.0 / (vocab.size - 1)

    def _spread(self, at_mask, elsewhere) -> np.ndarray:
        """`at_mask` at the mask id, `elsewhere` at the rest, on a new last axis."""
        # empty + fill costs less than half of np.full on a few entries
        v = np.empty(getattr(at_mask, "shape", ()) + (self.vocab.size,))
        v.T[...] = elsewhere
        v[..., self.vocab.mask_id] = at_mask
        return v

    def _c(self, t):
        b = self.uniform_mix_constant
        if b == 0.0:
            return 0.0 * t
        h = self.params.gamma / 2.0
        return _entrywise(lambda v: b * v**h * (1.0 - v) ** h, t)

    def _c_prime(self, t, c):
        """dc/dt given c = _c(t)."""
        if self.uniform_mix_constant == 0.0:
            return 0.0
        return (self.params.gamma / 2.0) * (1.0 - 2.0 * t) / (t * (1.0 - t)) * c

    def check_time(self, t):
        if isinstance(t, np.ndarray) and t.ndim:
            t = np.asarray(t, dtype=float)
            bad = ~((self.eps_t <= t) & (t <= 1.0 - self.eps_t))
            if bad.any():
                self.check_time(t[bad][0])
            return t
        t = float(t)
        if not self.eps_t <= t <= 1.0 - self.eps_t:
            raise TimeRangeError(
                f"t={t!r} outside [{self.eps_t}, {1.0 - self.eps_t}]"
            )
        return t

    def terms(self, t) -> Terms:
        """alpha_t, beta_t pi_t, the rate vector and log_snr at t, all from
        one evaluation of c_t: the other closed forms at t are views of it."""
        return Terms(self, t)

    def alpha(self, t: float) -> float:
        return self.terms(t).alpha

    def alpha_prime(self, t: float) -> float:
        # d/dt of (1-t)/C: exactly -1 when c is identically zero
        t = self.check_time(t)
        c = self._c(t)
        return -((1.0 + c) + (1.0 - t) * self._c_prime(t, c)) / (1.0 + c) ** 2

    def beta_pi(self, t: float) -> np.ndarray:
        """The noise component beta_t * pi_t of the marginal."""
        return self.terms(t).beta_pi

    def rate_vector(self, t: float) -> np.ndarray:
        """beta_t pi_t' - (alpha_t'/alpha_t) pi_t, the off-diagonal rate profile."""
        return self.terms(t).rate

    def uniform_mass(self, t: float) -> float:
        """Total probability of the uniform component at time t: c_t / C_t."""
        t = self.check_time(t)
        c = self._c(t)
        return c / (1.0 + c)

    def pi(self, t: float) -> np.ndarray:
        bp = self.beta_pi(t)
        return bp / bp.sum()

    def log_snr(self, t: float) -> float:
        """lambda_t = log(alpha_t / (1 - alpha_t))."""
        return self.terms(t).log_snr

    def marginal(self, t: float, x: int) -> np.ndarray:
        """q_t(. | x) = alpha_t one_hot(x) + beta_t pi_t."""
        terms = self.terms(t)
        q = terms.beta_pi
        q[self.vocab.check_token(x)] += terms.alpha
        return q

    def marginal_mix(self, t: float, x_theta: np.ndarray) -> np.ndarray:
        """q_t(. | x_theta): marginal with the one-hot replaced by a distribution."""
        terms = self.terms(t)
        return terms.alpha * np.asarray(x_theta, dtype=float) + terms.beta_pi

    def conditional_transition(self, s: float, t: float) -> ConditionalTransition:
        s = self.check_time(s)
        t = self.check_time(t)
        if s > t:
            raise OrderingError(f"need s <= t, got s={s!r} > t={t!r}")
        at_s, at_t = self.terms(s), self.terms(t)
        a_ts = at_t.alpha / at_s.alpha
        bp_ts = at_t.beta_pi - a_ts * at_s.beta_pi
        return ConditionalTransition(alpha_ts=a_ts, beta_pi_ts=bp_ts)

    def forward_rate(self, t: float, z_from: int, z_to: int) -> float:
        """CTMC generator entry R_t(z_from, z_to)."""
        return float(self.forward_rate_row(t, z_from)[self.vocab.check_token(z_to)])

    def forward_rate_row(self, t: float, z_from: int) -> np.ndarray:
        terms = self.terms(t)
        row = terms.rate
        row[self.vocab.check_token(z_from)] += self.alpha_prime(t) / terms.alpha
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


class Terms:
    """The closed forms at one time, or at (B,) times along a leading axis,
    from one evaluation of c_t: alpha_t = (1-t)/C and the noise component
    beta_t pi_t of the marginal; the rate vector and log_snr are computed
    from them when read."""

    def __init__(self, schedule: MixingSchedule, t):
        self._schedule, self._t = schedule, schedule.check_time(t)
        c = self._c = schedule._c(self._t)
        self.alpha = (1.0 - self._t) / (1.0 + c)
        self.beta_pi = schedule._spread(self._t / (1.0 + c), c * schedule._u / (1.0 + c))

    @property
    def rate(self) -> np.ndarray:
        """beta_t pi_t' - (alpha_t'/alpha_t) pi_t, the off-diagonal rate
        profile: (m + (c + (1-t) c') u) / (C (1-t))."""
        s, t, c = self._schedule, self._t, self._c
        d = (1.0 + c) * (1.0 - t)
        return s._spread(1.0 / d, (c + (1.0 - t) * s._c_prime(t, c)) * s._u / d)

    @property
    def log_snr(self) -> float | np.ndarray:
        """lambda_t = log(alpha_t / (1 - alpha_t))."""
        return _entrywise(lambda a: math.log(a) - math.log1p(-a), self.alpha)


def MaskOnlySchedule(vocab: Vocab, eps_t: float = DEFAULT_EPS_T) -> MixingSchedule:
    """Linear interpolation between data and the mask token: p_u = 0."""
    return MixingSchedule(vocab, ScheduleParams(p_u=0.0, eps_t=eps_t))


def HybridSchedule(vocab: Vocab, params: ScheduleParams) -> MixingSchedule:
    """The mixing schedule of `params`."""
    return MixingSchedule(vocab, params)


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
