"""Closed-form noise predictors for the tests.

A noise predictor is any object with ``data_dim`` and
``predict(x, t, y, sched)``; the samplers and vlb_estimate take these
wherever they take a trained NoisePredictor.
"""

import numpy as np


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
