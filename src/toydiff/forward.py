"""The forward (noising) process and the synthetic data distribution.

Implements the single-step kernel q(x_t | x_{t-1}), the closed-form
marginal q(x_t | x_0), direct sampling of x_t together with the noise
that produced it, the Bayes posterior q(x_{t-1} | x_t, x_0), and full
forward-trajectory simulation.  Also houses the Gaussian-mixture data
distribution used as the toy target.

State vectors may carry a leading batch axis (N, d); all kernels
broadcast over it.
"""

from dataclasses import dataclass

import numpy as np

from .gaussian import DiagGaussian, log_pdf
from .schedules import NO_MAX, check_index, check_t


@dataclass(frozen=True)
class Trajectory:
    """Ordered (t, x_t) states of one chain; times strictly monotone."""
    times: np.ndarray    # (L,)
    states: np.ndarray   # (L, d)

    def __post_init__(self):
        d = np.diff(self.times)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("trajectory times must be strictly monotone")


@dataclass(frozen=True)
class GmmSpec:
    """Mixture weights/means/vars, optionally labelled per component."""
    weights: np.ndarray  # (K,)
    means: np.ndarray    # (K, d)
    vars: np.ndarray     # (K, d)
    labels: np.ndarray | None = None  # (K,) class ids

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        v = np.atleast_2d(np.asarray(self.vars, dtype=np.float64))
        if not abs(w.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("weights must sum to 1")
        if not np.all(w >= 0.0):
            raise ValueError("weights must be nonnegative")
        if m.shape != v.shape or m.shape[0] != w.shape[0]:
            raise ValueError("inconsistent mixture shapes")
        if not (np.all(np.isfinite(m)) and np.all((v > 0.0) & (v < np.inf))):
            raise ValueError("component means must be finite, variances positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "vars", v)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != w.shape:
                raise ValueError("labels: one integer class id >= 0 per component")
            labels = [check_index(c, 0, NO_MAX, "labels") for c in labels]  # K scalar checks
            object.__setattr__(self, "labels", np.array(labels, dtype=np.int64))

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.weights.shape[0]


def default_mixture():
    """The default bimodal 1-D target: 0.6 N(-2, 0.25) + 0.4 N(+2, 0.25)."""
    return GmmSpec(weights=[0.6, 0.4], means=[[-2.0], [2.0]],
                   vars=[[0.25], [0.25]], labels=[0, 1])


def forward_step(x_prev, t, sched, rng):
    """One noising step: sqrt(alpha_t) x_{t-1} + sqrt(beta_t) z."""
    t = check_t(t, sched)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    z = rng.standard_normal(x_prev.shape)
    return np.sqrt(sched.alpha[t]) * x_prev + np.sqrt(sched.beta[t]) * z


def marginal_q(x0, t, sched):
    """Closed-form q(x_t | x_0) = N(sqrt(abar_t) x0, (1 - abar_t) I).

    t = 0 returns the point mass at x0.
    """
    t = check_t(t, sched, lo=0)
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    ab = sched.alpha_bar[t]
    return DiagGaussian(np.sqrt(ab) * x0, np.full_like(x0, 1.0 - ab))


def sample_xt(x0, t, sched, rng):
    """Draw x_t directly from x_0 and return both x_t and the eps used.

    The pair satisfies x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps exactly.
    An array t, as the training loop passes, holds one step per row of x0.
    """
    t = check_t(t, sched)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = rng.standard_normal(x0.shape)
    ab = sched.alpha_bar[t]
    ab = ab[:, None] if ab.ndim else ab
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps, eps


def posterior_q(x_t, x0, t, sched):
    """Bayes posterior q(x_{t-1} | x_t, x_0) = N(mu_tilde, beta_tilde_t I).

    At t = 1 this collapses to the point mass at x0.  An array t, as
    vlb_estimate passes, holds one step per row of x_t and x0.
    """
    t = check_t(t, sched)
    t = t[:, None] if np.ndim(t) else t  # a column: every coefficient below is one per row
    x_t = np.atleast_1d(np.asarray(x_t, dtype=np.float64))
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    ab_prev, ab = sched.alpha_bar[t - 1], sched.alpha_bar[t]
    c0 = np.sqrt(ab_prev) * sched.beta[t] / (1.0 - ab)
    ct = np.sqrt(sched.alpha[t]) * (1.0 - ab_prev) / (1.0 - ab)
    mean = c0 * x0 + ct * x_t
    return DiagGaussian(mean, np.full_like(mean, sched.beta_tilde[t]))


def simulate_forward(x0, sched, rng):
    """Run the forward chain from (0, x0) to (T, x_T) by repeated steps."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    states = np.empty((sched.T + 1,) + x0.shape)
    states[0] = x0
    for t in range(1, sched.T + 1):
        states[t] = forward_step(states[t - 1], t, sched, rng)
    return Trajectory(times=np.arange(sched.T + 1), states=states)


def gmm_sample(spec, rng, size):
    """Draw (x, labels), (size, d) and (size,); unlabelled mixtures give component ids."""
    comp = rng.choice(spec.n_components, size=size, p=spec.weights)
    z = rng.standard_normal((size, spec.dim))
    x = spec.means[comp] + np.sqrt(spec.vars[comp]) * z
    return x, spec.labels[comp] if spec.labels is not None else comp


def gmm_log_pdf(spec, x):
    """log sum_k w_k N(x; mu_k, v_k) via a stable log-sum-exp."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    components = DiagGaussian(spec.means, spec.vars)
    comp_lp = log_pdf(components, x[..., None, :]) + np.log(spec.weights)  # (..., K)
    m = np.max(comp_lp, axis=-1, keepdims=True)
    return np.squeeze(m, -1) + np.log(np.sum(np.exp(comp_lp - m), axis=-1))
