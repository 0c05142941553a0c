"""Closed-form references for the tests: noise predictors and schedule invariants.

A noise predictor is any object with ``data_dim`` and
``predict(x, t, y, sched)``; the samplers and vlb_estimate take these
wherever they take a trained NoisePredictor.
"""

import numpy as np


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
