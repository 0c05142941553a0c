"""Loss family: eps/x0 conversions, the reverse mean, weighted losses and the variational bound.

mu_tilde_from_eps is the one reverse mean, DDIM's sigma family in eps form at
one t; reverse_plan holds its coefficients for every t of a chain, built once
per call of sample_reverse or vlb_estimate, which read it.  The weighted
losses carry the exact per-step KL coefficients (training's weighted variant
reads eps_kl_weight) and reject t = 1, where beta_tilde_1 = 0 leaves the
weight undefined; training gives t = 1 the t = 2 weight.  vlb_estimate runs on any noise
predictor (see samplers): a trained model or an exact oracle.
"""

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


def _coefficients(sched, t, var):
    """c_t, sqrt(alpha_t) and sigma_t of x_{t-1} = (x_t - c_t eps) / sqrt(alpha_t) + sigma_t z
    at checked steps t (an int or an index array), sigma_t^2 = var (beta_tilde_t when None,
    where c's sqrt(alpha) term is exactly 0.0 and the mean is the posterior mean).
    ValueError unless every sigma_t^2 lies in [0, 1 - abar_{t-1}]."""
    a, ab, bt = sched.alpha[t], sched.alpha_bar[t], sched.beta_tilde[t]
    v_max = 1.0 - sched.alpha_bar[t - 1]  # 1 - abar_{t-1}, the largest sigma_t^2
    var = bt if var is None else var
    if not np.all((0.0 <= var) & (var <= v_max)):  # NaN fails too
        raise ValueError("sigma_t^2 must lie in [0, 1 - abar_{t-1}]")
    c = (1.0 - a) / np.sqrt(1.0 - ab) + np.sqrt(a) * (np.sqrt(v_max - bt) - np.sqrt(v_max - var))
    return c, np.sqrt(a), np.sqrt(var)


def mu_tilde_from_eps(x_t, eps, t, sched, var=None):
    """The reverse mean at a scalar t: the eps form of the mean of q_sigma(x_{t-1} | x_t, x0),
    sigma_t^2 = var (beta_tilde_t when None, which gives the posterior mean)."""
    c, sqrt_a, _ = _coefficients(sched, check_t(t, sched), var)
    return (np.asarray(x_t, dtype=np.float64) - c * np.asarray(eps)) / sqrt_a


def reverse_plan(sched, var=None):
    """The chain's (T + 1, 3) plan: row t is (c_t, sqrt(alpha_t), sigma_t) at sigma_t^2 = var
    (beta_tilde_t when None; 0.0 for deterministic DDIM), and row 0 is NaN.  The sigma_t^2
    range check runs once over all rows; each row gives mu_tilde_from_eps's bytes at its t."""
    plan = np.full((sched.T + 1, 3), np.nan)
    plan[1:, 0], plan[1:, 1], plan[1:, 2] = _coefficients(sched, np.arange(1, sched.T + 1), var)
    return plan


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
    posteriors and KLs of those t are one call each over the rows, and the
    reverse means of every t are one array operation on reverse_plan's rows.
    The M per-draw Gaussians are independent, so their KLs (and log densities)
    sum into the KL of the flattened (M * d,) Gaussians.
    """
    check_count(M, 1, "M")
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if not np.all(np.isfinite(x0)):  # before any draw
        raise ValueError("x0 must be finite")
    x0s = np.tile(x0, M)  # the M draws side by side, flattened in C order
    plan = reverse_plan(sched)

    ts = np.arange(2, sched.T + 1)
    rows = np.broadcast_to(x0s, (ts.size, x0s.size))  # row t - 2 holds the draws at t
    x_t, _ = forward.sample_xt(rows, ts, sched, rng)
    post = forward.posterior_q(x_t, rows, ts, sched)
    x1, _ = forward.sample_xt(x0s, 1, sched, rng)
    xs = np.vstack((x1, x_t))  # row t - 1 holds the draws at t
    eps = np.empty_like(xs)  # row t - 1 holds the noise predicted at t
    for t, x in enumerate(xs, start=1):
        eps[t - 1] = np.reshape(m.predict(x.reshape(M, -1), t, None, sched), -1)
    mu = (xs - plan[1:, :1] * eps) / plan[1:, 1:2]  # row 0: x0_hat, the decoder's mean
    Lt = kl_closed_form(post, DiagGaussian(mu[1:], post.var)) / M  # shares post's variance

    dec = DiagGaussian(mu[0], np.full_like(mu[0], sched.beta[1]))
    L0 = -float(log_pdf(dec, x0s)) / M

    LT = kl_closed_form(forward.marginal_q(x0, sched.T, sched),
                        DiagGaussian(np.zeros_like(x0), np.ones_like(x0)))
    return VlbReport(L0=L0, Lt=Lt, LT=LT)
