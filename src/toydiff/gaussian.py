"""Diagonal-Gaussian primitives: density, sampling, and KL divergence.

Only diagonal covariance is supported; every closed-form distribution in
the pipeline is of the form N(mu, diag(v)).  A zero variance component is
allowed as a degenerate point mass (used by the posterior at t=1), in
which case sampling returns the mean for that component exactly.
"""

from dataclasses import dataclass

import numpy as np

from .schedules import check_count

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class DiagGaussian:
    """N(mean, diag(var)); a (K, d) mean and var stack K Gaussians for log_pdf and the KL."""
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        var = np.atleast_1d(np.asarray(self.var, dtype=np.float64))
        if mean.shape != var.shape:
            raise ValueError("mean and var must have the same dimension")
        if not np.all(var >= 0.0):  # NaN fails too
            raise ValueError("var: negative variance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self):
        return self.mean.shape[-1]


def log_pdf(g, x):
    """Log density of x under g; requires strictly positive variances."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != g.dim:
        raise ValueError("dimension mismatch between x and g")
    if np.any(g.var == 0.0):
        raise ValueError("log_pdf undefined for zero-variance components")
    q = (x - g.mean) ** 2 / g.var
    return -0.5 * np.sum(_LOG_2PI + np.log(g.var) + q, axis=-1)


def sample(g, rng, size):
    """Draw a (size, d) batch via mean + sqrt(var) * z, z ~ N(0, I)."""
    z = rng.standard_normal((size, g.dim))
    return g.mean + np.sqrt(g.var) * z


def kl_closed_form(q, p):
    """KL(q || p) for diagonal Gaussians, in nats; (K, d) stacks give K KLs."""
    if q.mean.shape != p.mean.shape:
        raise ValueError("dimension mismatch between q and p")
    if np.any(q.var <= 0.0) or np.any(p.var <= 0.0):
        raise ValueError("kl_closed_form needs strictly positive variances")
    return 0.5 * (np.sum(np.log(p.var / q.var), axis=-1) - q.dim
                  + np.sum(q.var / p.var, axis=-1)
                  + np.sum((q.mean - p.mean) ** 2 / p.var, axis=-1))


def kl_mc(q, p, M, rng):
    """Monte-Carlo estimate of KL(q || p) from M draws of q."""
    check_count(M, 1, "M")
    x = sample(q, rng, size=M)
    return float(np.mean(log_pdf(q, x) - log_pdf(p, x)))
