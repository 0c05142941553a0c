"""Loss family: eps/x0 conversions, weighted losses, and the variational bound.

The weighted losses carry the exact per-step coefficients from the KL
reduction; training's weighted variant reads eps_kl_weight.  t = 1 is
rejected by the weighted forms because beta_tilde_1 = 0 makes the weight
undefined; training gives t = 1 the t = 2 weight.  vlb_estimate runs on
any noise predictor (see samplers): a trained model or an exact oracle.
"""

from dataclasses import dataclass

import numpy as np

from . import forward
from .gaussian import DiagGaussian, kl_closed_form, log_pdf
from .schedules import check_t


def x0_from_eps(x_t, eps, t, sched):
    """Invert the direct-sampling identity: x0 = (x_t - sqrt(1-abar) eps) / sqrt(abar)."""
    t = check_t(t, sched)
    ab = sched.alpha_bar[t]
    return (np.asarray(x_t, dtype=np.float64)
            - np.sqrt(1.0 - ab) * np.asarray(eps)) / np.sqrt(ab)


def mu_tilde_from_eps(x_t, eps, t, sched):
    """Posterior mean in eps form: (x_t - (1-alpha)/sqrt(1-abar) eps) / sqrt(alpha)."""
    t = check_t(t, sched)
    a, ab = sched.alpha[t], sched.alpha_bar[t]
    return (np.asarray(x_t, dtype=np.float64)
            - (1.0 - a) / np.sqrt(1.0 - ab) * np.asarray(eps)) / np.sqrt(a)


def loss_x0_weighted(x0_hat, x0, t, sched):
    """KL-derived loss on the x0 prediction, weight abar_{t-1} beta^2 / (2 bt (1-abar)^2)."""
    t = check_t(t, sched, lo=2)  # beta_tilde_1 = 0 leaves the weight undefined at t = 1
    bt, b, ab, ab_prev = (sched.beta_tilde[t], sched.beta[t],
                          sched.alpha_bar[t], sched.alpha_bar[t - 1])
    w = (1.0 / (2.0 * bt)) * (ab_prev * b ** 2) / (1.0 - ab) ** 2
    return float(w * np.sum((np.asarray(x0_hat) - np.asarray(x0)) ** 2))


def eps_kl_weight(t, sched):
    """The eps-form KL weight (1-alpha)^2 / (2 bt alpha (1-abar)) at a scalar or array t >= 2."""
    bt, a, ab = sched.beta_tilde[t], sched.alpha[t], sched.alpha_bar[t]
    return (1.0 - a) ** 2 / (2.0 * bt * a * (1.0 - ab))


def loss_eps_weighted(eps_hat, eps, t, sched):
    """KL-derived loss on the noise prediction, weighted by eps_kl_weight."""
    t = check_t(t, sched, lo=2)  # beta_tilde_1 = 0 leaves the weight undefined at t = 1
    w = eps_kl_weight(t, sched)
    return float(w * np.sum((np.asarray(eps_hat) - np.asarray(eps)) ** 2))


@dataclass(frozen=True)
class VlbReport:
    """Per-term variational bound in nats: total = L0 + sum(Lt) + LT."""
    L0: float
    Lt: np.ndarray  # terms for t = 2..T, index 0 <-> t=2
    LT: float
    total: float

    def __post_init__(self):
        if abs(self.total - (self.L0 + float(np.sum(self.Lt)) + self.LT)) > 1e-12:
            raise ValueError("total must equal the sum of the terms")
        if self.LT < 0 or np.any(self.Lt < 0):
            raise ValueError("KL terms must be nonnegative")


def vlb_estimate(m, x0, sched, M, rng):
    """Monte-Carlo estimate of the variational bound for one data point.

    For each t in 2..T averages, over M draws x_t ~ q(x_t | x0), the KL
    between the true posterior and the model's Gaussian reverse kernel
    (mean from the eps prediction, variance beta_tilde_t).  L0 uses a
    Gaussian decoder N(predicted x0 at t=1, beta_1 I).  LT is the exact
    prior-matching KL.  The noise predictor m sees the M draws as one
    (M, d) batch and a scalar t.

    Each t takes its M draws as one (M * d,) normal draw, which is the
    same stream as M successive draws of size d.  The M per-draw Gaussians
    are independent, so their KLs (and log densities) sum into the KL of
    the flattened (M * d,) Gaussians.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    x0s = np.tile(x0, M)  # the M draws side by side, flattened in C order

    def mu_p(x_t, t):
        eps = np.reshape(m.predict(x_t.reshape(M, -1), t, None, sched), -1)
        return mu_tilde_from_eps(x_t, eps, t, sched)

    Lt = np.zeros(max(sched.T - 1, 0))
    for t in range(2, sched.T + 1):
        x_t, _ = forward.sample_xt(x0s, t, sched, rng)
        post = forward.posterior_q(x_t, x0s, t, sched)
        mu = mu_p(x_t, t)
        p = DiagGaussian(mu, np.full_like(mu, sched.beta_tilde[t]))
        Lt[t - 2] = kl_closed_form(post, p) / M

    x1, _ = forward.sample_xt(x0s, 1, sched, rng)
    x0_hat = mu_p(x1, 1)
    dec = DiagGaussian(x0_hat, np.full_like(x0_hat, sched.beta[1]))
    L0 = -float(log_pdf(dec, x0s)) / M

    LT = kl_closed_form(forward.marginal_q(x0, sched.T, sched),
                        DiagGaussian(np.zeros_like(x0), np.ones_like(x0)))
    return VlbReport(L0=L0, Lt=Lt, LT=LT, total=L0 + float(np.sum(Lt)) + LT)
