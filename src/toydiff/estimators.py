"""The reparameterised-gradient estimator.

A standalone verification utility; the training loop does not route
through it.  It targets the mean of f(X) = X^2/2 with
X ~ N(theta1, theta2^2), written as X = theta1 + theta2 * Y with
Y ~ N(0, 1), whose exact gradient is theta itself.
"""

import numpy as np

from .schedules import check_count


def reparam_grad(theta, M, rng):
    """Reparameterised gradient of E[X^2/2] with respect to theta.

    Averages (t1 + t2 y, y (t1 + t2 y)) over y ~ N(0, 1); converges to
    theta as M grows.
    """
    check_count(M, 1, "M")
    t1, t2 = float(theta[0]), float(theta[1])
    y = rng.standard_normal(M)
    g = t1 + t2 * y
    return np.array([g.mean(), (y * g).mean()])
