"""Class-conditional steering of the reverse process.

Classifier guidance is a mean-shift hook on the DDPM step: the step mean
mu moves to mu + s * beta_tilde_t * grad_x log p(y | x, t), with the
gradient taken at the unguided mean (the Taylor expansion point), and
the covariance is untouched.  Classifier-free guidance combines the
conditional and null-label noise predictions into
eps_tilde = eps(y) + s * (eps(y) - eps(null)), itself a noise predictor
that either sampler takes in place of the model.  Both run on
samplers.sample_reverse.  Classifier guidance is DDPM-only; no DDIM
mean-shift variant is defined here.
"""

from dataclasses import dataclass

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
        if not self.scale >= 0.0:  # NaN fails too
            raise ValueError("scale must be >= 0")
        if self.target is None and self.mode != "none":
            raise ValueError("guided modes need a target class")
        if self.target is not None:
            check_index(self.target, -1, NO_MAX, "target")  # -1: the null label
        if self.mode == "classifier" and self.classifier is None:
            raise ValueError("classifier mode needs a classifier")


def classifier_shift(c, y, s, sched):
    """The DDPM mean-shift hook mu, t -> s * beta_tilde_t * grad_x log p(y | mu, t).

    The classifier-guided step is samplers.ddpm_step(..., shift=classifier_shift(...)).
    """
    if not s >= 0.0:  # NaN fails too
        raise ValueError("s must be >= 0")
    return lambda mu, t: s * sched.beta_tilde[t] * c.grad_x(mu, t, y, sched)


def cfg_eps(m, x, t, y, s, sched):
    """Classifier-free combination of conditional and null predictions."""
    if m.conditioning is None:
        raise ValueError("classifier-free guidance needs a conditional model")
    e_y = m.predict(x, t, y, sched)
    e_null = m.predict(x, t, None, sched)
    return e_y + s * (e_y - e_null)


class _FreeGuided:
    """The classifier-free noise predictor x, t -> cfg_eps(m, x, t, target, scale)."""

    def __init__(self, m, target, scale):
        self.m, self.target, self.scale, self.data_dim = m, target, scale, m.data_dim

    def predict(self, x, t, y, sched):
        return cfg_eps(self.m, x, t, self.target, self.scale, sched)


def guided_sample(m, cfg, g, sched, rng):
    """Reverse sampling under a GuidanceConfig; returns the (L, n, d) states.

    mode "none" is samplers.sample_reverse with y = g.target (unguided,
    conditional when a target is given).  Classifier mode passes the
    classifier shift as the DDPM step's mean-shift hook and raises
    ValueError for DDIM before any draw; classifier-free mode runs either
    sampler on the cfg_eps predictor.  States are laid out as in sample_reverse.
    """
    lo, k = (0, g.classifier.n_classes) if g.mode == "classifier" else (-1, m.conditioning)
    if g.target is not None and k is None:  # these checks run before x_T is drawn
        raise ValueError(f"target {g.target} given, but the model is not a conditional model")
    if g.target is not None:  # -1: null label
        check_index(g.target, lo, k - 1, "target")
    if g.mode == "none":
        return samplers.sample_reverse(m, cfg, sched, y=g.target, rng=rng)
    if g.mode == "classifier-free":
        return samplers.sample_reverse(_FreeGuided(m, g.target, g.scale), cfg, sched, rng=rng)
    shift = classifier_shift(g.classifier, g.target, g.scale, sched)
    return samplers.sample_reverse(m, cfg, sched, rng=rng, shift=shift)
