"""Closed-form references for the tests: noise predictors, a noisy classifier,
schedule invariants, the DDIM form of the reverse mean, an exact empirical W1,
the variational bound computed one t at a time, the index check that tests
every entry, and the name of the BLAS kernel the golden digests depend on.

A noise predictor is any object with ``data_dim`` and
``predict(x, t, y, sched)``; the samplers and vlb_estimate take these
wherever they take a trained NoisePredictor.
"""

import ctypes
from pathlib import Path

import numpy as np

from toydiff import forward
from toydiff.gaussian import DiagGaussian, kl_closed_form, log_pdf
from toydiff.losses import VlbReport, mu_tilde_from_eps
from toydiff.schedules import check_count


def blas_core():
    """The OpenBLAS kernel that numpy's bundled scipy-openblas picked on this host
    ('SkylakeX' on an AVX-512 one), or None when numpy bundles no scipy-openblas."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def check_index_reference(v, lo, hi, name):
    """schedules.check_index as it tested every entry of every array kind: the
    faster check must return the same int or int64 array, or raise the same error."""
    if not isinstance(v, (int, float, np.number)):
        v = np.asarray(v)
        if v.dtype.kind in "biuf" and np.all((lo <= v) & (v <= hi)) and not np.any(v % 1):
            return v.astype(np.int64, copy=False) if v.ndim else int(v)
    elif lo <= v <= hi and v == int(v):
        return int(v)
    raise ValueError(f"{name} {v} out of range [{lo}, {hi}] or not integer-valued")


def assert_schedule_invariants(s):
    """beta in (0, 1), alpha = 1 - beta, alpha_bar from 1 strictly down, 0 <= beta_tilde <= beta."""
    for arr in (s.beta, s.alpha, s.alpha_bar, s.beta_tilde):
        assert arr.shape == (s.T + 1,)
    assert np.isnan(s.beta[0]) and np.isnan(s.alpha[0]) and np.isnan(s.beta_tilde[0])
    b, a, ab, bt = s.beta[1:], s.alpha[1:], s.alpha_bar, s.beta_tilde[1:]
    assert np.all((b > 0.0) & (b < 1.0))
    assert np.array_equal(a, 1.0 - b)
    assert ab[0] == 1.0 and np.all(np.diff(ab) < 0.0)
    assert bt[0] == 0.0 and np.all(bt >= 0.0) and np.all(bt <= b)


class PointMassOracle:
    """Bayes-exact eps for data that is a point mass at x0.

    With this predictor the eps-form posterior mean equals the true
    posterior mean of q(x_{t-1} | x_t, x0) at every t.
    """

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.data_dim = self.x0.size

    def predict(self, x, t, y, sched):
        ab = sched.alpha_bar[t]
        return (x - np.sqrt(ab) * self.x0) / np.sqrt(1 - ab)


class GaussianOracle:
    """Bayes-exact eps for data N(m, v):
    eps*(x, t) = sqrt(1 - abar_t) (x - sqrt(abar_t) m) / (abar_t v + 1 - abar_t)."""

    def __init__(self, m, v):
        self.m, self.v, self.data_dim = m, v, np.size(m)

    def predict(self, x, t, y, sched):
        ab = sched.alpha_bar[t]
        return np.sqrt(1 - ab) * (x - np.sqrt(ab) * self.m) / (ab * self.v + 1 - ab)


class GaussianTiltClassifier:
    """Exact noisy classifier of the tilt exp(w x0) for data N(m, v), duck-typed as a Classifier.

    log p(y | x_t, t) = log E[exp(w x0) | x_t] + const is linear in x_t, so its
    gradient is the constant sqrt(abar_t) v w / (abar_t v + 1 - abar_t), for every y.
    Guiding GaussianOracle(m, v) at scale s with it is GaussianOracle(m + s v w, v).
    """

    n_classes = 2

    def __init__(self, v, w):
        self.v, self.w = v, w

    def grad_x(self, x, t, y, sched):
        ab = sched.alpha_bar[t]
        return np.full(np.shape(x), np.sqrt(ab) * self.v * self.w / (ab * self.v + 1 - ab))


def ddim_sigma_product(t, sched):
    """The DDPM sigma_t as Song et al. (arXiv 2010.02502, eq. 16) write it:
    sqrt((1 - abar_{t-1}) / (1 - abar_t)) * sqrt(1 - abar_t / abar_{t-1}).
    Its square is beta_tilde_t."""
    ab_prev, ab = sched.alpha_bar[t - 1], sched.alpha_bar[t]
    return float(np.sqrt((1.0 - ab_prev) / (1.0 - ab)) * np.sqrt(1.0 - ab / ab_prev))


def ddim_mean(x_t, eps, t, sigma, sched):
    """The sigma-family mean in DDIM's own form (arXiv 2010.02502, eq. 12): the
    predicted-x0 term plus the direction term,
    (x_t - sqrt(1 - abar_t) eps) / sqrt(alpha_t) + sqrt(1 - abar_{t-1} - sigma^2) eps."""
    ab_prev, ab = sched.alpha_bar[t - 1], sched.alpha_bar[t]
    return ((x_t - np.sqrt(1.0 - ab) * eps) / np.sqrt(sched.alpha[t])
            + np.sqrt(1.0 - ab_prev - sigma ** 2) * eps)


def exact_w1(a, b):
    """W1 of two empirical laws: the integral of |Q_a(u) - Q_b(u)| over u in [0, 1].

    Both quantile functions are constant between the merged breakpoints {i/n} and
    {j/m}; on each piece they take the sorted value at the piece's midpoint.
    """
    a, b = np.sort(np.ravel(a)), np.sort(np.ravel(b))
    u = np.union1d(np.arange(a.size + 1) / a.size, np.arange(b.size + 1) / b.size)
    mid = (u[:-1] + u[1:]) / 2
    qa, qb = (v[(mid * v.size).astype(np.int64)] for v in (a, b))
    return float(np.sum(np.diff(u) * np.abs(qa - qb)))


def vlb_per_t(m, x0, sched, M, rng):
    """losses.vlb_estimate as one draw, one posterior and one KL per t: the same
    stream and the same arithmetic, so a version that hoists them must match it
    byte for byte."""
    check_count(M, 1, "M")
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if not np.all(np.isfinite(x0)):  # before any draw
        raise ValueError("x0 must be finite")
    x0s = np.tile(x0, M)  # the M draws side by side, flattened in C order

    def mu_p(x_t, t):
        eps = np.reshape(m.predict(x_t.reshape(M, -1), t, None, sched), -1)
        return mu_tilde_from_eps(x_t, eps, t, sched)

    Lt = np.zeros(max(sched.T - 1, 0))
    for t in range(2, sched.T + 1):
        x_t, _ = forward.sample_xt(x0s, t, sched, rng)
        post = forward.posterior_q(x_t, x0s, t, sched)  # the model's kernel shares its variance
        Lt[t - 2] = kl_closed_form(post, DiagGaussian(mu_p(x_t, t), post.var)) / M

    x1, _ = forward.sample_xt(x0s, 1, sched, rng)
    x0_hat = mu_p(x1, 1)
    dec = DiagGaussian(x0_hat, np.full_like(x0_hat, sched.beta[1]))
    L0 = -float(log_pdf(dec, x0s)) / M

    LT = kl_closed_form(forward.marginal_q(x0, sched.T, sched),
                        DiagGaussian(np.zeros_like(x0), np.ones_like(x0)))
    return VlbReport(L0=L0, Lt=Lt, LT=LT)
