"""Plain-SGD training of the noise predictor and of the classifier.

Both run one shared loop.  Each step draws a batch x0 from the data
mixture, a uniform t per sample, forms (x_t, eps) by direct sampling,
and takes one gradient step on the noise-prediction loss, simple or
weighted (or on the classifier NLL).  Conditional training routes the
true component label in, replacing it with the null label with
probability p_drop so the same network also learns the unconditional
prediction.
"""

from dataclasses import dataclass

import numpy as np

from . import forward, losses
from .schedules import check_count


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch_size: int = 64
    eta: float = 1e-2
    p_drop: float = 0.1
    eval_interval: int = 100
    loss_variant: str = "simple"   # "simple" | "weighted"

    def __post_init__(self):
        check_count(self.steps, 0, "steps")
        check_count(self.batch_size, 1, "batch_size")
        check_count(self.eval_interval, 1, "eval_interval")
        if not 0.0 <= self.eta < np.inf:  # NaN fails too
            raise ValueError("eta must be finite and >= 0")
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError("p_drop must lie in [0, 1]")
        if self.loss_variant not in ("simple", "weighted"):
            raise ValueError("loss_variant must be 'simple' or 'weighted'")


@dataclass(frozen=True)
class TrainReport:
    loss_curve: list          # (step, running mean loss) pairs; [] after 0 steps


def train(m, data, sched, cfg, rng):
    """One-sample-per-line SGD on the noise-prediction loss (batched mean).

    cfg.loss_variant "weighted" weights each sample's squared residual by
    its eps-form KL coefficient.  Mutates m in place and returns a
    TrainReport.  Conditional models require a labelled GmmSpec.
    """
    conditional = m.conditioning is not None
    if conditional and data.labels is None:
        raise ValueError("conditional training needs labelled data")
    # row t holds the weight of step t, built once; t = 1 (beta_tilde = 0) gets the
    # t = 2 weight, so every uniform draw is defined
    weights = (losses.eps_kl_weight(np.maximum(np.arange(sched.T + 1), 2), sched)
               if cfg.loss_variant == "weighted" else None)

    def objective(x_t, t_arr, labels, eps):
        if conditional:
            labels = labels.copy()
            labels[rng.uniform(size=cfg.batch_size) < cfg.p_drop] = -1  # null label
        w = None if weights is None else weights[t_arr]
        return m.loss_and_grad(x_t, t_arr, labels if conditional else None, eps, sched, w)

    return _sgd(m, objective, data, sched, cfg, rng)


def train_classifier(c, data, sched, cfg, rng):
    """SGD on -log p(y | x_t, t) with (x_t, t) drawn exactly as in train()."""
    if data.labels is None:
        raise ValueError("classifier training needs labelled data")
    objective = lambda x_t, t_arr, labels, eps: c.nll_and_grad(x_t, t_arr, labels, sched)
    return _sgd(c, objective, data, sched, cfg, rng)


def _sgd(net, objective, data, sched, cfg, rng):
    """The training loop shared by train and train_classifier.

    Each step draws, in this order, a data batch x0 with its labels, a
    uniform t per sample and the noise eps.  ``objective(x_t, t, labels,
    eps)`` may draw further (train's conditional label drop) and returns
    (loss, parameter gradient); the step is net.params -= eta * gradient.
    A diverging run overflows without a warning and stops at the first
    nonfinite loss with a FloatingPointError.
    """
    curve, acc = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # entered once, not once per step
        for step in range(1, cfg.steps + 1):
            x0, labels = forward.gmm_sample(data, rng, size=cfg.batch_size)
            t_arr = rng.integers(1, sched.T + 1, size=cfg.batch_size)
            x_t, eps = forward.sample_xt(x0, t_arr, sched, rng)
            loss, grad = objective(x_t, t_arr, labels, eps)
            if not np.isfinite(loss):
                raise FloatingPointError(f"nonfinite loss at step {step}: {loss}")
            net.params -= cfg.eta * grad  # in place: keeps the net's cached layer views
            acc.append(loss)
            if step % cfg.eval_interval == 0 or step == cfg.steps:
                curve.append((step, float(np.mean(acc))))
                acc = []
    return TrainReport(loss_curve=curve)
