"""Class-conditional steering of the reverse process.

Both guidance modes are noise predictors that either sampler takes in
place of the model, so both run on samplers.sample_reverse with DDPM or
DDIM.  Classifier guidance is the eps form of Dhariwal & Nichol
(arXiv 2105.05233, Alg. 2):
eps_tilde = eps(x_t) - s * sqrt(1 - abar_t) * grad_x log p(y | x_t, t),
with the gradient taken at x_t; on a DDPM step it moves the mean by
s * (beta_t / sqrt(alpha_t)) * grad_x log p(y | x_t, t) and leaves the
covariance untouched.  Classifier-free guidance combines the conditional
and null-label noise predictions into eps_tilde = eps(y) + s * (eps(y) - eps(null)).
"""

from dataclasses import dataclass

import numpy as np

from . import samplers
from .schedules import NO_MAX, check_index


@dataclass(frozen=True)
class GuidanceConfig:
    mode: str = "none"        # "none" | "classifier" | "classifier-free"
    scale: float = 0.0
    target: int | None = None
    classifier: object = None  # classifier mode only

    def __post_init__(self):
        if self.mode not in ("none", "classifier", "classifier-free"):
            raise ValueError("mode must be 'none', 'classifier' or 'classifier-free'")
        if not 0.0 <= self.scale < np.inf:  # NaN fails too
            raise ValueError("scale must be finite and >= 0")
        if self.target is None and self.mode != "none":
            raise ValueError("guided modes need a target class")
        if self.target is not None:
            check_index(self.target, -1, NO_MAX, "target")  # -1: the null label
        if self.mode == "classifier" and self.classifier is None:
            raise ValueError("classifier mode needs a classifier")


def cfg_eps(m, x, t, y, s, sched):
    """Classifier-free combination of conditional and null predictions."""
    if m.conditioning is None:
        raise ValueError("classifier-free guidance needs a conditional model")
    e_y = m.predict(x, t, y, sched)
    e_null = m.predict(x, t, None, sched)
    return e_y + s * (e_y - e_null)


class _Guided:
    """The noise predictor x, t -> eps_tilde of a guided GuidanceConfig g (see the module doc)."""

    def __init__(self, m, g):
        self.m, self.g, self.data_dim = m, g, m.data_dim

    def predict(self, x, t, y, sched):
        m, g = self.m, self.g
        if g.mode == "classifier-free":
            return cfg_eps(m, x, t, g.target, g.scale, sched)
        grad = g.classifier.grad_x(x, t, g.target, sched)
        return m.predict(x, t, None, sched) - g.scale * np.sqrt(1.0 - sched.alpha_bar[t]) * grad


def guided_sample(m, cfg, g, sched, rng):
    """Reverse sampling under a GuidanceConfig; returns the (L, n, d) states.

    mode "none" is samplers.sample_reverse with y = g.target (unguided,
    conditional when a target is given); a guided mode runs the sampler of
    cfg on its guided noise predictor.  States are laid out as in sample_reverse.
    """
    lo, k = (0, g.classifier.n_classes) if g.mode == "classifier" else (-1, m.conditioning)
    if g.target is not None and k is None:  # these checks run before x_T is drawn
        raise ValueError(f"target {g.target} given, but the model is not a conditional model")
    if g.target is not None:  # -1: null label
        check_index(g.target, lo, k - 1, "target")
    if g.mode == "none":
        return samplers.sample_reverse(m, cfg, sched, y=g.target, rng=rng)
    return samplers.sample_reverse(_Guided(m, g), cfg, sched, rng=rng)
