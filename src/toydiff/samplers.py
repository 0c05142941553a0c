"""Reverse processes: one Gaussian kernel per step, DDIM's sigma family.

Each step runs a noise predictor m, any object with ``data_dim`` and
``predict(x, t, y, sched)``, and draws x_{t-1} ~ N(mean, sigma_t^2 I), the
mean from losses.mu_tilde_from_eps.  DDPM is the member sigma_t^2 =
beta_tilde_t (beta_tilde_1 = 0 gates its noise off at t = 1), and DDIM's
DDPM sigma policy runs the DDPM step; sigma = 0 is deterministic DDIM.

States may carry a leading batch axis; one chain is strictly sequential,
but a batch of chains advances in lock-step from a single stream.
sample_reverse is the one reverse-chain loop: guidance runs on it as a
guided noise predictor m, so every sampler takes every guidance mode.  It
builds one losses.reverse_plan per call, which checks every sigma_t^2 of the
chain once, and each step reads its row: predict, then the mean and the draw
of ddpm_step (or ddim_step at sigma = 0), byte for byte, with no per-step
check of t or sigma_t^2 beyond the network's own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .losses import mu_tilde_from_eps, reverse_plan
from .schedules import check_count, check_t


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "ddpm"             # "ddpm" | "ddim"
    sigma_policy: str = "zero"     # ddim only: "zero" | "ddpm"
    n_chains: int = 1
    record: bool = False

    def __post_init__(self):
        if self.kind not in ("ddpm", "ddim"):
            raise ValueError("kind must be 'ddpm' or 'ddim'")
        if self.sigma_policy not in ("zero", "ddpm"):
            raise ValueError("sigma_policy must be 'zero' or 'ddpm'")
        check_count(self.n_chains, 1, "n_chains")


def _step(m, x_t, t, var, sched, y, rng):
    """x_t -> x_{t-1} ~ N(mu_tilde_from_eps(var), var I), with no draw when var = 0."""
    mean = mu_tilde_from_eps(x_t, m.predict(x_t, t, y, sched), t, sched, var)
    return mean + math.sqrt(var) * rng.standard_normal(mean.shape) if var > 0.0 else mean


def ddpm_step(m, x_t, t, sched, y=None, rng=None):
    """One DDPM step x_t -> x_{t-1}: the sigma family at sigma_t^2 = beta_tilde_t.

    beta_tilde_1 = 0 gates the noise off at t = 1.  DDIM's DDPM sigma policy
    runs this step, so it reproduces DDPM byte for byte.
    """
    t = check_t(t, sched)
    return _step(m, x_t, t, sched.beta_tilde[t], sched, y, rng)


def ddim_sigma_ddpm_equiv(t, sched):
    """DDPM's sigma_t = sqrt(beta_tilde_t); the "ddpm" policy reproduces DDPM byte for byte."""
    return math.sqrt(sched.beta_tilde[check_t(t, sched)])


def ddim_step(m, x_t, t, sigma_t, sched, y=None, rng=None):
    """One step of the sigma family, N(mu_tilde_from_eps(var=sigma_t^2), sigma_t^2 I).

    sigma_t = 0 draws nothing.  DDPM is the member sigma_t^2 = beta_tilde_t;
    the DDPM sigma policy runs ddpm_step, so it reproduces DDPM byte for byte.
    """
    if not sigma_t >= 0.0:  # NaN fails too; mu_tilde_from_eps checks sigma_t^2
        raise ValueError("sigma_t must be >= 0")
    return _step(m, x_t, t, sigma_t ** 2, sched, y, rng)


def sample_reverse(m, cfg, sched, y=None, *, rng):
    """Run n = cfg.n_chains reverse chains from x_T ~ N(0, I) down to x_0, drawing from rng.

    Returns the states as one (L, n, d) array.  With cfg.record on they
    are the states at times T, T-1, ..., 0 (L = T + 1); with it off only
    the endpoints at times T and 0 are kept (L = 2).
    """
    ddpm = cfg.kind == "ddpm" or cfg.sigma_policy == "ddpm"
    plan = reverse_plan(sched, None if ddpm else 0.0).tolist()  # checks every sigma_t^2
    x = rng.standard_normal((cfg.n_chains, m.data_dim))
    recorded = [x]  # the steps never write x in place, so no state needs a copy
    for t in range(sched.T, 0, -1):
        c, sqrt_a, sigma = plan[t]
        x = (x - c * m.predict(x, t, y, sched)) / sqrt_a
        if sigma > 0.0:  # sigma_1 = 0 at beta_tilde: the last DDPM step draws nothing
            x = x + sigma * rng.standard_normal(x.shape)
        if cfg.record or t == 1:
            recorded.append(x)
    return np.stack(recorded)


def final_states(states):
    """The x_0 endpoints, (n, d), of the (L, n, d) states from sample_reverse."""
    return states[-1]
