"""Mixing schedules and all forward-process quantities.

A mixing schedule is the pair (alpha_t, pi_t): a decreasing mixing rate and a
time-varying mixing distribution. Everything else follows from them: marginals
q_t(. | x) = alpha_t x + beta_t pi_t, conditional transitions between two
times, the forward/backward CTMC rates, the per-token loss weights, and the
log-SNR. One schedule class covers the family: a hybrid schedule that mixes
in a configurable amount of uniform noise while keeping the all-mask prior.
With no uniform noise (p_u = 0) it is mask-only interpolation;
`make_schedule` builds either case by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaskedInputError, OrderingError, TimeRangeError

DEFAULT_EPS_T = 1e-4
LOG_FLOOR = 1e-30


@dataclass(frozen=True)
class Vocab:
    """Vocabulary of `size` token ids with a distinguished mask token."""

    size: int
    mask_id: int

    def __post_init__(self):
        # at least a data token, an alternative and the mask; ints, as _distinct_rows needs
        object.__setattr__(self, "size", check_count("vocab size", self.size, least=3))
        object.__setattr__(self, "mask_id", check_count("mask_id", self.mask_id, least=0))
        if not self.mask_id < self.size:
            raise ValueError(f"mask_id {self.mask_id} outside [0, {self.size})")

    def spread(self, at_mask, elsewhere) -> np.ndarray:
        """`at_mask` at the mask id, `elsewhere` at the rest, on a new last axis."""
        # empty + fill costs less than half of np.full on a few entries
        v = np.empty(getattr(at_mask, "shape", ()) + (self.size,))
        v.T[...] = elsewhere
        v[..., self.mask_id] = at_mask
        return v

    def check_tokens(self, z) -> np.ndarray:
        """token_ids(z); a ValueError naming its first id outside [0, size)."""
        z = token_ids(z)
        if z.size and not 0 <= np.minimum.reduce(z, None) <= np.maximum.reduce(z, None) < self.size:
            bad = z[~((0 <= z) & (z < self.size))].flat[0]
            raise ValueError(f"token id {bad} outside [0, {self.size})")
        return z


def token_ids(z) -> np.ndarray:
    """z as an int64 array; a ValueError for ids of a non-integer dtype."""
    z = np.asarray(z)
    if z.size and z.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got dtype {z.dtype}")
    return z.astype(np.int64, copy=False)


def check_count(name: str, value, least: int = 1) -> int:
    """value as an int; a ValueError unless it is a Python or numpy integer >= least."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")
    return int(value)


def check_fits(what: str, a, other: str, b) -> None:
    """A ValueError unless a (the `what`) and b share vocab and, if both have one, length."""
    has_length = hasattr(a, "length") and hasattr(b, "length")
    if (a.vocab, has_length and a.length) != (b.vocab, has_length and b.length):
        shape = "of length {0.length} over {0.vocab}" if has_length else "over {0.vocab}"
        raise ValueError(f"{what} {shape.format(a)} does not fit the {other} {shape.format(b)}")


def check_denoised(z: np.ndarray, denoiser, mask_id: int, what: str) -> None:
    """A ValueError unless mask_id is the denoiser's; a MaskedInputError if z holds it."""
    if mask_id != denoiser.vocab.mask_id:
        raise ValueError(f"mask id {mask_id} does not fit the denoiser over {denoiser.vocab}")
    if np.logical_or.reduce(z == mask_id, axis=None):
        raise MaskedInputError(f"{what} requires a fully denoised sequence")


def check_seed(seed: int) -> int:
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ValueError(f"seed must lie in [0, 2**64) and be an integer, got {seed!r}")
    return int(seed)


def check_seeds(seeds, count: int) -> None:
    """A ValueError unless `seeds` holds one check_seed seed for each of `count` sequences."""
    if len(seeds) != count:
        raise ValueError(f"{len(seeds)} seeds for {count} sequences")
    for seed in seeds:
        check_seed(seed)


def check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def check_eps_t(eps_t: float) -> None:
    """A ValueError unless 0 < eps_t < 0.5 and 1 - eps_t < 1, so that t = 1,
    where alpha_t = 0 and the rates are singular, is no time of [eps_t, 1 - eps_t]."""
    if not 0.0 < eps_t < 0.5:
        raise ValueError(f"eps_t must lie in (0, 0.5), got {eps_t!r}")
    if 1.0 - eps_t == 1.0:
        raise ValueError(f"eps_t={eps_t!r} is at most 2**-54, so 1 - eps_t rounds to 1")


@dataclass(frozen=True)
class ConditionalTransition:
    """Markov kernel from time s to t: Q_{t|s} = alpha_ts I + beta_pi_ts 1^T, one per (B,) time."""

    alpha_ts: float | np.ndarray
    beta_pi_ts: np.ndarray

    def matrix(self) -> np.ndarray:
        """Q_{t|s}[z_t, z_s], (N, N) or (B, N, N); its columns sum to one."""
        eye = np.eye(self.beta_pi_ts.shape[-1])
        return np.multiply.outer(self.alpha_ts, eye) + self.beta_pi_ts[..., None]


@dataclass(frozen=True)
class MixingSchedule:
    """Mask prior with a mid-trajectory bump of uniform noise.

    alpha_t = (1-t)/C_t and beta_t pi_t = (t m + c_t u)/C_t with
    c_t = B t^(gamma/2) (1-t)^(gamma/2) and C_t = 1 + c_t. p_u is the peak
    expected fraction of uniform-noise tokens: B = 2^gamma p_u / (1 - p_u)
    calibrates the bump so that the total mass on the uniform component,
    c_t/C_t, peaks at t = 1/2 with value exactly p_u. p_u = 0 gives B = 0,
    so c_t is exactly 0: mask-only interpolation, alpha_t = 1 - t, with the
    same code. gamma lies in (0, 2]: the off-mask rate is
    c_t (1 + (gamma/2) (1-2t)/t) over a positive factor, which goes negative
    near t = 1 for any gamma > 2, and B <= 4 p_u / (1 - p_u) is finite for
    every p_u < 1. Schedules compare by these four values.

    All time arguments are validated against [eps_t, 1 - eps_t]; exact
    endpoints are rejected because some derived quantities are singular there.
    Every method takes one time or a (B,) array of times, and (B,) times give
    arrays with a leading (B,) axis. Each row has the bits of its time alone:
    every closed form is numpy ufunc calls, whose loops give a float, a 0-d
    array and each entry of an array the same bits. One time gives np.float64
    where (B,) times give a (B,) array.
    """

    vocab: Vocab
    p_u: float = 0.0
    gamma: float = 1.0
    eps_t: float = DEFAULT_EPS_T

    def __post_init__(self):
        if not 0.0 <= self.p_u < 1.0:
            raise ValueError("p_u must lie in [0, 1)")
        check_positive("gamma", self.gamma)
        if self.gamma > 2.0:
            raise ValueError(f"gamma={self.gamma!r} above 2 makes the off-mask rate negative")
        check_eps_t(self.eps_t)
        object.__setattr__(self, "eps_t", float(self.eps_t))
        object.__setattr__(self, "B", 2.0**self.gamma * self.p_u / (1.0 - self.p_u))
        object.__setattr__(self, "_u", 1.0 / (self.vocab.size - 1))
        object.__setattr__(self, "_last", None)

    def _c(self, t):
        """c_t; exactly 0 when B is, as t^(gamma/2) (1-t)^(gamma/2) is finite."""
        h = self.gamma / 2.0
        return self.B * np.power(t, h) * np.power(1.0 - t, h)

    def _c_prime(self, t, c):
        """dc/dt given c = _c(t)."""
        return (self.gamma / 2.0) * (1.0 - 2.0 * t) / (t * (1.0 - t)) * c

    def check_time(self, t) -> np.float64 | np.ndarray:
        """t as an np.float64 (its arithmetic is 10x cheaper than a 0-d array's) or a new
        float array; a TimeRangeError names its first time outside [eps_t, 1 - eps_t] or NaN,
        and a ValueError names times of more than one axis."""
        t = np.array(t, dtype=float)[()]
        if t.ndim > 1:
            raise ValueError(f"times of shape {t.shape}: need one time or a (B,) array")
        bad = ~((self.eps_t <= t) & (t <= 1.0 - self.eps_t))
        if np.logical_or.reduce(bad, axis=None):
            raise TimeRangeError(
                f"t={float(t[bad].flat[0])!r} outside [{self.eps_t}, {1.0 - self.eps_t}]"
            )
        return t

    def terms(self, t) -> Terms:
        """The closed forms at t: alpha_t, alpha_t', beta_t pi_t, the rate vector,
        log_snr and the uniform mass, all from one evaluation of c_t.
        The last evaluation is kept, keyed by the times' shape and bytes, so
        a call at equal times returns it; its arrays are read-only."""
        t = np.array(t, dtype=float)
        key, last = (t.shape, t.tobytes()), self._last
        if last is None or last[0] != key:
            last = key, Terms(self, t)
            object.__setattr__(self, "_last", last)
        return last[1]

    def marginal_mix(self, t: float, x_theta: np.ndarray) -> np.ndarray:
        """q_t(. | x_theta) = alpha_t x_theta + beta_t pi_t; x_theta = one_hot(x) gives
        the marginal q_t(. | x) of a clean token x."""
        terms = self.terms(t)
        return np.expand_dims(terms.alpha, -1) * np.asarray(x_theta, dtype=float) + terms.beta_pi

    def generator(self, t) -> np.ndarray:
        """The CTMC generator R_t, (N, N) or (B, N, N): row z_from is
        terms(t).rate + (alpha_t'/alpha_t) one_hot(z_from), and sums to zero."""
        terms = self.terms(t)
        ratio = terms.alpha_prime / terms.alpha
        return terms.rate[..., None, :] + np.multiply.outer(ratio, np.eye(self.vocab.size))

    def backward_generator(self, t, x_theta: np.ndarray) -> np.ndarray:
        """The denoising-chain generator given the prediction x_theta, (N, N) or (B, N, N):
        R_t(z_s, z_t) q_t(z_s | x_theta) / q_t(z_t | x_theta) at [z_t, z_s] off the diagonal,
        rows summing to zero; rows where q_t(z_t | x_theta) = 0 are not finite."""
        q = self.marginal_mix(t, x_theta)
        # R_t(z, z_t) at [z_t, z]; contiguous, so each row's dot product has its bits alone
        rates_in = np.ascontiguousarray(self.generator(t).mT)
        with np.errstate(divide="ignore", invalid="ignore"):
            flow_in = (rates_in[..., None, :] @ q[..., None, :, None])[..., 0, 0]
            back = rates_in * (q[..., None, :] / q[..., :, None])
            return back - (flow_in / q)[..., None] * np.eye(self.vocab.size)

    def elbo_weights(self, t, x: int) -> np.ndarray:
        """w_t(z, x) = terms(t).rate[z] / q_t(z | x) at each token z; 0.0 where q_t(z | x) = 0."""
        q = self.marginal_mix(t, np.eye(self.vocab.size)[self.vocab.check_tokens(x)])
        return np.divide(self.terms(t).rate, q, out=np.zeros_like(q), where=q > 0.0)


class Terms:
    """The closed forms of `schedule` at one time `t`, or at (B,) times along a leading
    axis, from one evaluation of c_t: alpha_t = (1-t)/C and the noise component
    beta_t pi_t of the marginal; alpha_t', the rate vector, log_snr and the uniform
    mass are computed from them when read, and `to` pairs them with a later time's."""

    def __init__(self, schedule: MixingSchedule, t):
        self.schedule, self.t = schedule, schedule.check_time(t)
        c = self._c = schedule._c(self.t)
        big_c = 1.0 + c
        self.alpha = (1.0 - self.t) / big_c
        self.beta_pi = schedule.vocab.spread(self.t / big_c, c * schedule._u / big_c)
        for v in (self.t, self.alpha, self.beta_pi):
            if isinstance(v, np.ndarray):
                v.flags.writeable = False

    def to(self, later: Terms) -> ConditionalTransition:
        """The kernel Q_{t|s} from these times s to the times t of `later`. Its beta_pi_ts
        is clamped at 0: at times a few ulps apart it can round to -1e-17 under hybrid noise."""
        after = self.t > later.t
        if np.logical_or.reduce(after, axis=None):
            s, t = (np.broadcast_to(v.t, np.shape(after))[after].item(0) for v in (self, later))
            raise OrderingError(f"need s <= t, got s={s!r} > t={t!r}")
        a_ts = later.alpha / self.alpha
        beta_pi_ts = later.beta_pi - (a_ts * self.beta_pi.T).T
        return ConditionalTransition(a_ts, np.maximum(beta_pi_ts, 0.0))

    @property
    def alpha_prime(self) -> float | np.ndarray:
        """d alpha_t/dt = -(C + (1-t) c') / C^2, exactly -1 when c is 0."""
        s, t, c = self.schedule, self.t, self._c
        return -((1.0 + c) + (1.0 - t) * s._c_prime(t, c)) / np.square(1.0 + c)

    @property
    def rate(self) -> np.ndarray:
        """beta_t pi_t' - (alpha_t'/alpha_t) pi_t, the off-diagonal rate
        profile: (m + (c + (1-t) c') u) / (C (1-t))."""
        s, t, c = self.schedule, self.t, self._c
        d = (1.0 + c) * (1.0 - t)
        return s.vocab.spread(1.0 / d, (c + (1.0 - t) * s._c_prime(t, c)) * s._u / d)

    @property
    def log_snr(self) -> float | np.ndarray:
        """lambda_t = log(alpha_t / (1 - alpha_t))."""
        return np.log(self.alpha) - np.log1p(-self.alpha)

    @property
    def uniform_mass(self) -> float | np.ndarray:
        """c_t / C_t, the total probability of the uniform component; p_u at t = 1/2."""
        return self._c / (1.0 + self._c)


def make_schedule(
    kind: str,
    vocab: Vocab,
    p_u: float = 0.0,
    gamma: float = 1.0,
    eps_t: float = DEFAULT_EPS_T,
) -> MixingSchedule:
    """Factory used by the CLI and tests. The mask schedule has no uniform
    noise, so a p_u or gamma other than the defaults is a ValueError for it."""
    if kind == "mask":
        for key, value, default in (("p_u", p_u, 0.0), ("gamma", gamma, 1.0)):
            if value != default:
                raise ValueError(f"{key}={value!r} needs the hybrid schedule, not 'mask'")
        return MixingSchedule(vocab, eps_t=eps_t)
    if kind == "hybrid":
        return MixingSchedule(vocab, p_u, gamma, eps_t)
    raise ValueError(f"unknown schedule kind {kind!r}")
