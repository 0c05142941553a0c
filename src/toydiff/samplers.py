"""Reverse processes: the stochastic DDPM step and the sigma-family DDIM step.

Both run on a noise predictor m, any object with ``data_dim`` and
``predict(x, t, y, sched)``.  DDIM with the DDPM-equivalent sigma
reproduces the DDPM step distribution; sigma = 0 gives fully
deterministic generation.  The noise term is gated off at t = 1 in both.

States may carry a leading batch axis; one chain is strictly sequential,
but a batch of chains advances in lock-step from a single stream.
sample_reverse is the one reverse-chain loop: guidance runs on it as a
guided noise predictor m, so every sampler takes every guidance mode.
"""

from dataclasses import dataclass

import numpy as np

from .losses import mu_tilde_from_eps
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


def ddpm_step(m, x_t, t, sched, y=None, rng=None):
    """One stochastic denoising step x_t -> x_{t-1}.

    Mean is the eps-form posterior mean; noise sqrt(beta_tilde_t) z is
    added for t > 1 and gated off at t = 1.
    """
    t = check_t(t, sched)
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = m.predict(x_t, t, y, sched)
    mean = mu_tilde_from_eps(x_t, eps_hat, t, sched)
    if t == 1:
        return mean
    z = rng.standard_normal(x_t.shape)
    return mean + np.sqrt(sched.beta_tilde[t]) * z


def ddim_sigma_ddpm_equiv(t, sched):
    """The sigma_t that makes the DDIM family coincide with DDPM.

    Equals sqrt((1-abar_{t-1})/(1-abar_t)) * sqrt(1 - abar_t/abar_{t-1}),
    whose square is beta_tilde_t; at t = 1, abar_0 = 1 makes it exactly 0.0.
    """
    t = check_t(t, sched)
    ab_prev, ab = sched.alpha_bar[t - 1], sched.alpha_bar[t]
    return float(np.sqrt((1.0 - ab_prev) / (1.0 - ab)) * np.sqrt(1.0 - ab / ab_prev))


def ddim_step(m, x_t, t, sigma_t, sched, y=None, rng=None):
    """One step of the sigma-parameterised family.

    x_{t-1} = predicted-x0 term + direction term + sigma_t z, with the
    noise drawn only when sigma_t > 0 and t > 1.
    """
    t = check_t(t, sched)
    ab_prev = sched.alpha_bar[t - 1]
    if not (sigma_t >= 0.0 and sigma_t ** 2 <= 1.0 - ab_prev):  # NaN fails too
        raise ValueError("sigma_t^2 must lie in [0, 1 - abar_{t-1}]")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = m.predict(x_t, t, y, sched)
    ab = sched.alpha_bar[t]
    out = ((x_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(sched.alpha[t])
           + np.sqrt(1.0 - ab_prev - sigma_t ** 2) * eps_hat)
    if sigma_t > 0.0 and t > 1:
        out = out + sigma_t * rng.standard_normal(x_t.shape)
    return out


def sample_reverse(m, cfg, sched, y=None, *, rng):
    """Run n = cfg.n_chains reverse chains from x_T ~ N(0, I) down to x_0, drawing from rng.

    Returns the states as one (L, n, d) array.  With cfg.record on they
    are the states at times T, T-1, ..., 0 (L = T + 1); with it off only
    the endpoints at times T and 0 are kept (L = 2).
    """
    x = rng.standard_normal((cfg.n_chains, m.data_dim))
    recorded = [x]  # the steps never write x in place, so no state needs a copy
    for t in range(sched.T, 0, -1):
        if cfg.kind == "ddpm":
            x = ddpm_step(m, x, t, sched, y=y, rng=rng)
        else:
            sigma_t = ddim_sigma_ddpm_equiv(t, sched) if cfg.sigma_policy == "ddpm" else 0.0
            x = ddim_step(m, x, t, sigma_t, sched, y=y, rng=rng)
        if cfg.record or t == 1:
            recorded.append(x)
    return np.stack(recorded)


def final_states(states):
    """The x_0 endpoints, (n, d), of the (L, n, d) states from sample_reverse."""
    return states[-1]
