"""Variance schedules and derived per-step quantities.

A Schedule holds beta_t for t = 1..T together with alpha_t = 1 - beta_t,
the running product alpha_bar_t (with alpha_bar_0 = 1 stored explicitly)
and the posterior variance beta_tilde_t.  Arrays are stored padded so
that index t means step t; index 0 of beta/alpha/beta_tilde is unused
(set to NaN) to keep the 1-based convention honest.

Schedules are immutable after construction; consumers only read.
check_index and check_count below are the package's one judge of integer inputs.
"""

import inspect
from dataclasses import dataclass, field

import numpy as np

NO_MAX = 2**63 - 1  # the finite "no upper bound" of check_index: inf must fail
KINDS = ("linear", "cosine")  # the schedule kinds; make_<kind>_schedule builds each


@dataclass(frozen=True)
class Schedule:
    """The arrays of make_<kind>_schedule(T, **args); == compares T, kind and args."""
    T: int
    beta: np.ndarray = field(compare=False)        # [0..T], index 0 = NaN
    alpha: np.ndarray = field(compare=False)       # [0..T], index 0 = NaN
    alpha_bar: np.ndarray = field(compare=False)   # [0..T], alpha_bar[0] = 1
    beta_tilde: np.ndarray = field(compare=False)  # [0..T], index 0 = NaN, beta_tilde[1] = 0
    kind: str
    args: dict

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
    T = check_count(T, 1, "T")
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
    T = check_count(T, 1, "T")
    if not 0.0 < offset < np.inf:  # NaN fails too; inf would turn every beta_t NaN
        raise ValueError("offset: must be finite and > 0")
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + offset) / (1.0 + offset)) * (np.pi / 2.0)) ** 2
    abar = f / f[0]
    beta = 1.0 - abar[1:] / abar[:-1]
    beta = np.clip(beta, 1e-12, 0.999)
    return _build(T, beta, "cosine", {"offset": offset})


def constructor(kind):
    """make_<kind>_schedule as bound now (a tracer may rebind it) and its arguments after T."""
    if kind not in KINDS:
        raise ValueError(f"unknown schedule kind: {kind}")
    make = globals()[f"make_{kind}_schedule"]
    return make, tuple(inspect.signature(make).parameters)[1:]


def check_index(v, lo, hi, name):
    """The index v as an int (scalar v) or an int64 array; ValueError unless every entry
    is an integer value in [lo, hi], where hi is finite so that NaN and inf fail.

    An integer or bool array is in range when its min and max are (an empty one always
    is); only a float array pays for the per-entry range and integer-value tests.  A float
    must lie below hi + 1: as a float, NO_MAX rounds up to 2**63 = NO_MAX + 1.
    """
    if not isinstance(v, (int, float, np.number)):  # a 0-d array compares ~20x slower
        v = np.asarray(v)
        kind = v.dtype.kind
        if (kind in "biu" and (not v.size or lo <= v.min() and v.max() <= hi)
                or kind == "f" and np.all((lo <= v) & (v < hi + 1)) and not np.any(v % 1)):
            return v.astype(np.int64, copy=False) if v.ndim else int(v)
    elif lo <= v < hi + 1 and v == int(v):
        return int(v)
    raise ValueError(f"{name} {v} out of range [{lo}, {hi}] or not integer-valued")


def check_t(t, sched, lo=1):
    """The step index t in [lo, sched.T], as check_index returns it."""
    return check_index(t, lo, sched.T, "t")


def check_count(n, lo, name):
    """The count n as an int: an int or a numpy integer >= lo; 2.0 and True fail."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= lo:
        return int(n)
    raise ValueError(f"{name} {n!r} must be an int or a numpy integer >= {lo}")
