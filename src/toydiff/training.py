"""Plain-SGD training loops for the noise predictor and the classifier.

Each step draws a batch x0 from the data mixture, a uniform t per sample,
forms (x_t, eps) by direct sampling, and takes one gradient step on the
simple noise-prediction loss (or the classifier NLL).  Conditional
training routes the true component label in, replacing it with the null
label with probability p_drop so the same network also learns the
unconditional prediction.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import forward


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch_size: int = 64
    eta: float = 1e-2
    p_drop: float = 0.1
    eval_interval: int = 100
    loss_variant: str = "simple"   # "simple" | "weighted"

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError("p_drop must lie in [0, 1]")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.loss_variant not in ("simple", "weighted"):
            raise ValueError("loss_variant must be 'simple' or 'weighted'")


@dataclass(frozen=True)
class TrainReport:
    loss_curve: list          # (step, running mean loss) pairs
    final_checksum: float     # sum of final parameters
    seconds: float


def _weighted_scale(t_arr, sched):
    # per-sample weight of the eps-form KL loss; t=1 entries get the t=2 weight
    # so the weighted variant stays defined on the full uniform-t draw
    t_safe = np.maximum(t_arr, 2)
    bt = sched.beta_tilde[t_safe]
    a = sched.alpha[t_safe]
    ab = sched.alpha_bar[t_safe]
    return (1.0 - a) ** 2 / (2.0 * bt * a * (1.0 - ab))


def train(m, data, sched, cfg, rng):
    """One-sample-per-line SGD on the noise-prediction loss (batched mean).

    Mutates m in place and returns a TrainReport.  Conditional models
    require a labelled GmmSpec.
    """
    conditional = m.conditioning is not None
    if conditional and data.labels is None:
        raise ValueError("conditional training needs labelled data")
    curve, acc, t0 = [], [], time.perf_counter()
    for step in range(1, cfg.steps + 1):
        x0, labels = forward.gmm_sample(data, rng, size=cfg.batch_size)
        t_arr = rng.integers(1, sched.T + 1, size=cfg.batch_size)
        eps = rng.standard_normal(x0.shape)
        ab = sched.alpha_bar[t_arr][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        y = None
        if conditional:
            y = labels.copy()
            drop = rng.uniform(size=cfg.batch_size) < cfg.p_drop
            y[drop] = -1  # null label
        loss, grad = m.loss_and_grad(x_t, t_arr, y, eps, sched)
        if cfg.loss_variant == "weighted":
            # reweight per-sample contributions by recomputing with scaled residuals
            w = _weighted_scale(t_arr, sched)
            eps_hat = m.predict(x_t, t_arr, y, sched)
            resid = eps_hat - eps
            loss = float(np.mean(w * np.sum(resid ** 2, axis=1)))
            _, grad = _scaled_grad(m, x_t, t_arr, y, resid, w, sched)
        if not np.isfinite(loss):
            raise FloatingPointError(f"nonfinite loss at step {step}: {loss}")
        m.params = m.params - cfg.eta * grad
        acc.append(loss)
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            curve.append((step, float(np.mean(acc))))
            acc = []
    if not curve:
        curve = [(0, float("nan"))]
    return TrainReport(loss_curve=curve, final_checksum=float(np.sum(m.params)),
                       seconds=time.perf_counter() - t0)


def _scaled_grad(m, x_t, t_arr, y, resid, w, sched):
    feats, _ = m._features(x_t, t_arr, y, sched)
    _, acts = m._forward(feats)
    return None, m._backward(acts, 2.0 * w[:, None] * resid / resid.shape[0])[0]


def train_classifier(c, data, sched, cfg, rng):
    """SGD on -log p(y | x_t, t) with (x_t, t) drawn exactly as in train()."""
    if data.labels is None:
        raise ValueError("classifier training needs labelled data")
    curve, acc, t0 = [], [], time.perf_counter()
    for step in range(1, cfg.steps + 1):
        x0, labels = forward.gmm_sample(data, rng, size=cfg.batch_size)
        t_arr = rng.integers(1, sched.T + 1, size=cfg.batch_size)
        eps = rng.standard_normal(x0.shape)
        ab = sched.alpha_bar[t_arr][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        loss, grad = c.nll_and_grad(x_t, t_arr, labels, sched)
        if not np.isfinite(loss):
            raise FloatingPointError(f"nonfinite loss at step {step}: {loss}")
        c.params = c.params - cfg.eta * grad
        acc.append(loss)
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            curve.append((step, float(np.mean(acc))))
            acc = []
    if not curve:
        curve = [(0, float("nan"))]
    return TrainReport(loss_curve=curve, final_checksum=float(np.sum(c.params)),
                       seconds=time.perf_counter() - t0)
