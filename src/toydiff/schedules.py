"""Variance schedules and derived per-step quantities.

A Schedule holds beta_t for t = 1..T together with alpha_t = 1 - beta_t,
the running product alpha_bar_t (with alpha_bar_0 = 1 stored explicitly)
and the posterior variance beta_tilde_t.  Arrays are stored padded so
that index t means step t; index 0 of beta/alpha/beta_tilde is unused
(set to NaN) to keep the 1-based convention honest.

Schedules are immutable after construction; consumers only read.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Schedule:
    T: int
    beta: np.ndarray        # [0..T], index 0 = NaN
    alpha: np.ndarray       # [0..T], index 0 = NaN
    alpha_bar: np.ndarray   # [0..T], alpha_bar[0] = 1
    beta_tilde: np.ndarray  # [0..T], index 0 = NaN, beta_tilde[1] = 0
    kind: str = "custom"
    args: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.beta, self.alpha, self.alpha_bar, self.beta_tilde):
            arr.setflags(write=False)


def _build(T, beta, kind, args):
    beta = np.asarray(beta, dtype=np.float64)
    if not np.all((beta > 0.0) & (beta < 1.0)):  # NaN fails too
        raise ValueError("beta: every beta_t must lie in (0, 1)")
    alpha = 1.0 - beta
    alpha_bar = np.empty(T + 1)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(alpha)
    if not (alpha_bar[1:] < alpha_bar[:-1]).all():  # else beta_tilde or x0 turns NaN or inf
        raise ValueError("alpha_bar: must strictly decrease (1 - beta_t is 1 or it underflows)")
    beta_tilde = np.empty(T)
    beta_tilde[:] = (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]) * beta
    beta_tilde[0] = 0.0  # alpha_bar[0] = 1 makes the first posterior a point mass

    pad = lambda a: np.concatenate(([np.nan], a))
    return Schedule(T=T, beta=pad(beta), alpha=pad(alpha), alpha_bar=alpha_bar,
                    beta_tilde=pad(beta_tilde), kind=kind, args=dict(args))


def make_linear_schedule(T, beta_start=1e-4, beta_end=0.02):
    """Linearly spaced beta_t from beta_start (t=1) to beta_end (t=T)."""
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError("T: step count must be an integer >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("beta_start/beta_end: need 0 < beta_start <= beta_end < 1")
    beta = np.linspace(beta_start, beta_end, T)
    return _build(T, beta, "linear", {"beta_start": beta_start, "beta_end": beta_end})


def make_cosine_schedule(T, offset=0.008):
    """Cosine-shaped alpha_bar schedule.

    alpha_bar_t follows f(t)/f(0) with f(t) = cos^2(((t/T + offset)/(1 + offset)) * pi/2),
    and beta_t = 1 - alpha_bar_t / alpha_bar_{t-1} clipped to at most 0.999.
    After clipping, alpha_bar is rebuilt from the clipped betas so the product
    identity alpha_bar_t = alpha_bar_{t-1} * alpha_t holds exactly.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError("T: step count must be an integer >= 1")
    if not offset > 0.0:
        raise ValueError("offset: must be > 0")
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + offset) / (1.0 + offset)) * (np.pi / 2.0)) ** 2
    abar = f / f[0]
    beta = 1.0 - abar[1:] / abar[:-1]
    beta = np.clip(beta, 1e-12, 0.999)
    return _build(T, beta, "cosine", {"offset": offset})


def check_t(t, sched, lo=1):
    """The step index t: an int for a scalar t, an int64 array for an array t.

    Raises ValueError unless every entry is an integer in [lo, sched.T]; NaN
    and inf fail the range test before any cast."""
    if not isinstance(t, (int, float, np.number)):  # a 0-d array compares ~20x slower
        t = np.asarray(t)
        if np.all((lo <= t) & (t <= sched.T)) and not np.any(t % 1):
            return t.astype(np.int64, copy=False) if t.ndim else int(t)
    elif lo <= t <= sched.T and t == int(t):
        return int(t)
    raise ValueError(f"t={t} out of range [{lo}, {sched.T}] or not integer-valued")
