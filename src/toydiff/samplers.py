"""Reverse processes: one Gaussian kernel per step, DDIM's sigma family.

Each step runs a noise predictor m, any object with ``data_dim`` and
``predict(x, t, y, sched)``, and then losses.reverse_step, the one update
x_{t-1} = (x_t - c_t eps) / sqrt(alpha_t) + sigma_t z, on the coefficients of
losses.reverse_coefficients.  DDPM is the member sigma_t^2 = beta_tilde_t
(beta_tilde_1 = 0 gates its noise off at t = 1), and DDIM's DDPM sigma policy
runs the DDPM step; sigma = 0 is deterministic DDIM.

States may carry a leading batch axis; one chain is strictly sequential,
but a batch of chains advances in lock-step from a single stream.
sample_reverse is the one reverse-chain loop: guidance runs on it as a
guided noise predictor m, so every sampler takes every guidance mode.  It
builds the coefficients of all T steps in one reverse_coefficients call,
which checks every sigma_t^2 of the chain once, and each step is predict and
reverse_step on its row: ddpm_step (or ddim_step at sigma = 0) byte for byte,
with no per-step check of t or sigma_t^2 beyond the network's own.
"""

from dataclasses import dataclass

import numpy as np

from .losses import reverse_coefficients, reverse_step
from .schedules import check_count


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


def _one_step(sched, t, var, rng):
    """The step index of t and its coefficients, checked before m.predict runs (m may be any
    predictor, so it gets the int check_t would return: 3.0 and True must not index);
    ValueError unless t is one step, and for sigma_t > 0 without an rng."""
    coefficients = reverse_coefficients(sched, t, var)  # checks t
    if np.ndim(coefficients[0]):  # an array t gives columns
        raise ValueError("t must be one step: every chain of a batch moves at one t")
    if coefficients[2] > 0.0 and rng is None:
        raise ValueError("rng is required when sigma_t > 0")
    return int(t), coefficients


def ddpm_step(m, x_t, t, sched, y=None, rng=None):
    """One DDPM step x_t -> x_{t-1}: the sigma family at sigma_t^2 = beta_tilde_t.

    beta_tilde_1 = 0 gates the noise off at t = 1.  DDIM's DDPM sigma policy
    runs this step, so it reproduces DDPM byte for byte.
    """
    t, coefficients = _one_step(sched, t, None, rng)
    return reverse_step(x_t, m.predict(x_t, t, y, sched), coefficients, rng)


def ddim_sigma_ddpm_equiv(t, sched):
    """DDPM's sigma_t = sqrt(beta_tilde_t); the "ddpm" policy reproduces DDPM byte for byte."""
    return reverse_coefficients(sched, t)[2]


def ddim_step(m, x_t, t, sigma_t, sched, y=None, rng=None):
    """One step of the sigma family at sigma_t, reverse_step on reverse_coefficients(sched, t,
    sigma_t^2).

    sigma_t = 0 draws nothing.  DDPM is the member sigma_t^2 = beta_tilde_t;
    the DDPM sigma policy runs ddpm_step, so it reproduces DDPM byte for byte.
    """
    if not 0.0 <= sigma_t <= 1.0:  # NaN fails too; the square of a larger one could overflow
        raise ValueError("sigma_t must lie in [0, 1]")  # reverse_coefficients checks sigma_t^2
    t, coefficients = _one_step(sched, t, sigma_t ** 2, rng)
    return reverse_step(x_t, m.predict(x_t, t, y, sched), coefficients, rng)


def sample_reverse(m, cfg, sched, y=None, *, rng):
    """Run n = cfg.n_chains reverse chains from x_T ~ N(0, I) down to x_0, drawing from rng.

    Returns the states as one (L, n, d) array.  With cfg.record on they
    are the states at times T, T-1, ..., 0 (L = T + 1); with it off only
    the endpoints at times T and 0 are kept (L = 2).
    """
    ddpm = cfg.kind == "ddpm" or cfg.sigma_policy == "ddpm"
    ts = range(sched.T, 0, -1)
    rows = np.hstack(reverse_coefficients(sched, np.array(ts), None if ddpm else 0.0)).tolist()
    x = rng.standard_normal((cfg.n_chains, m.data_dim))
    recorded = [x]  # the steps never write x in place, so no state needs a copy
    for t, coefficients in zip(ts, rows):
        x = reverse_step(x, m.predict(x, t, y, sched), coefficients, rng)
        if cfg.record or t == 1:
            recorded.append(x)
    return np.stack(recorded)


def final_states(states):
    """The x_0 endpoints, (n, d), of the (L, n, d) states from sample_reverse."""
    return states[-1]
