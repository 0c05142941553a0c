"""Loss family: eps/x0 conversions, the reverse mean, weighted losses and the variational bound.

mu_tilde_from_eps is the one reverse mean, DDIM's sigma family in eps form;
the samplers and vlb_estimate share it.  The weighted losses carry the exact
per-step KL coefficients (training's weighted variant reads eps_kl_weight)
and reject t = 1, where beta_tilde_1 = 0 leaves the weight undefined;
training gives t = 1 the t = 2 weight.  vlb_estimate runs on any noise
predictor (see samplers): a trained model or an exact oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import forward
from .gaussian import DiagGaussian, kl_closed_form, log_pdf
from .schedules import check_count, check_t


def x0_from_eps(x_t, eps, t, sched):
    """Invert the direct-sampling identity: x0 = (x_t - sqrt(1-abar) eps) / sqrt(abar)."""
    t = check_t(t, sched)
    ab = sched.alpha_bar[t]
    return (np.asarray(x_t, dtype=np.float64)
            - np.sqrt(1.0 - ab) * np.asarray(eps)) / np.sqrt(ab)


def mu_tilde_from_eps(x_t, eps, t, sched, var=None):
    """The reverse mean at a scalar t: the eps form of the mean of q_sigma(x_{t-1} | x_t, x0).

    sigma_t^2 = var.  The sqrt(alpha) term of c is exactly 0.0 at the default var = beta_tilde_t,
    which leaves the posterior mean (x_t - (1-alpha)/sqrt(1-abar) eps) / sqrt(alpha).
    """
    t = check_t(t, sched)
    a, ab, bt = sched.alpha.item(t), sched.alpha_bar.item(t), sched.beta_tilde.item(t)
    v_max = 1.0 - sched.alpha_bar.item(t - 1)  # 1 - abar_{t-1}, the largest sigma_t^2
    var = bt if var is None else var
    if not 0.0 <= var <= v_max:  # NaN fails too
        raise ValueError("sigma_t^2 must lie in [0, 1 - abar_{t-1}]")
    c = ((1.0 - a) / math.sqrt(1.0 - ab)
         + math.sqrt(a) * (math.sqrt(v_max - bt) - math.sqrt(v_max - var)))
    return (np.asarray(x_t, dtype=np.float64) - c * np.asarray(eps)) / math.sqrt(a)


def loss_x0_weighted(x0_hat, x0, t, sched):
    """KL-derived loss on the x0 prediction, weight abar_{t-1} beta^2 / (2 bt (1-abar)^2)."""
    t = check_t(t, sched, lo=2)  # beta_tilde_1 = 0 leaves the weight undefined at t = 1
    bt, b, ab, ab_prev = (sched.beta_tilde[t], sched.beta[t],
                          sched.alpha_bar[t], sched.alpha_bar[t - 1])
    w = (1.0 / (2.0 * bt)) * (ab_prev * b ** 2) / (1.0 - ab) ** 2
    return float(w * np.sum((np.asarray(x0_hat) - np.asarray(x0)) ** 2))


def eps_kl_weight(t, sched):
    """The eps-form KL weight (1-alpha)^2 / (2 bt alpha (1-abar)) at a scalar or array t >= 2."""
    t = check_t(t, sched, lo=2)  # beta_tilde_1 = 0 leaves the weight undefined at t = 1
    bt, a, ab = sched.beta_tilde[t], sched.alpha[t], sched.alpha_bar[t]
    return (1.0 - a) ** 2 / (2.0 * bt * a * (1.0 - ab))


def loss_eps_weighted(eps_hat, eps, t, sched):
    """KL-derived loss on the noise prediction, weighted by eps_kl_weight."""
    w = eps_kl_weight(t, sched)
    return float(w * np.sum((np.asarray(eps_hat) - np.asarray(eps)) ** 2))


@dataclass(frozen=True)
class VlbReport:
    """Per-term variational bound in nats: total = L0 + sum(Lt) + LT."""
    L0: float
    Lt: np.ndarray  # terms for t = 2..T, index 0 <-> t=2
    LT: float

    def __post_init__(self):
        if not (abs(self.L0) < np.inf and 0.0 <= self.LT < np.inf
                and np.all((self.Lt >= 0.0) & (self.Lt < np.inf))):  # NaN fails too
            raise ValueError("every term must be finite and every KL term >= 0")

    @property
    def total(self):
        return self.L0 + float(np.sum(self.Lt)) + self.LT


def vlb_estimate(m, x0, sched, M, rng):
    """Monte-Carlo estimate of the variational bound for one data point.

    For each t in 2..T averages, over M draws x_t ~ q(x_t | x0), the KL
    between the true posterior and the model's Gaussian reverse kernel
    (mean from the eps prediction, variance beta_tilde_t).  L0 uses a
    Gaussian decoder N(predicted x0 at t=1, beta_1 I).  LT is the exact
    prior-matching KL.  The noise predictor m sees the M draws as one
    (M, d) batch and a scalar t, so the network still runs once per t.

    The noise of t = 2..T is one (T - 1, M * d) normal draw, one row per t:
    the same stream as one (M * d,) draw per t, or M draws of size d.  The
    posteriors and KLs of those t are one call each over the rows.  The M
    per-draw Gaussians are independent, so their KLs (and log densities)
    sum into the KL of the flattened (M * d,) Gaussians.
    """
    check_count(M, 1, "M")
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if not np.all(np.isfinite(x0)):  # before any draw
        raise ValueError("x0 must be finite")
    x0s = np.tile(x0, M)  # the M draws side by side, flattened in C order

    def mu_p(x_t, t):
        eps = np.reshape(m.predict(x_t.reshape(M, -1), t, None, sched), -1)
        return mu_tilde_from_eps(x_t, eps, t, sched)

    ts = np.arange(2, sched.T + 1)
    rows = np.broadcast_to(x0s, (ts.size, x0s.size))  # row t - 2 holds the draws at t
    x_t, _ = forward.sample_xt(rows, ts, sched, rng)
    post = forward.posterior_q(x_t, rows, ts, sched)
    mu = np.reshape([mu_p(x, t) for t, x in enumerate(x_t, start=2)], x_t.shape)  # T = 1: no rows
    Lt = kl_closed_form(post, DiagGaussian(mu, post.var)) / M  # the kernel shares post's variance

    x1, _ = forward.sample_xt(x0s, 1, sched, rng)
    x0_hat = mu_p(x1, 1)
    dec = DiagGaussian(x0_hat, np.full_like(x0_hat, sched.beta[1]))
    L0 = -float(log_pdf(dec, x0s)) / M

    LT = kl_closed_form(forward.marginal_q(x0, sched.T, sched),
                        DiagGaussian(np.zeros_like(x0), np.ones_like(x0)))
    return VlbReport(L0=L0, Lt=Lt, LT=LT)
