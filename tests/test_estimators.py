import math

import numpy as np
import pytest

from toydiff.estimators import reparam_grad
from toydiff.rng import RngState

THETA = (0.5, 1.5)


def test_reparam_grad_converges_to_theta():
    g = reparam_grad(THETA, 10**6, RngState(3))
    assert abs(g[0] - 0.5) < 0.01 * 0.5 / 0.5  # 1% absolute scale guard below
    assert abs(g[0] - 0.5) < 0.005
    assert abs(g[1] - 1.5) < 0.015


def test_reparam_grad_single_sample_unbiased():
    base = RngState(4)
    ests = np.stack([reparam_grad(THETA, 1, base.spawn(i)) for i in range(50000)])
    se = ests.std(axis=0, ddof=1) / math.sqrt(ests.shape[0])
    assert np.all(np.abs(ests.mean(axis=0) - np.array(THETA)) < 3.5 * se)


def test_reparam_grad_deterministic_given_seed():
    a = reparam_grad(THETA, 1000, RngState(5))
    b = reparam_grad(THETA, 1000, RngState(5))
    assert np.array_equal(a, b)


def test_reparam_variance_scales_inverse_m():
    slopes = []
    for comp in (0, 1):
        ms = [100, 1000, 10000, 100000]
        variances = []
        base = RngState(6)
        for M in ms:
            reps = np.stack([reparam_grad(THETA, M, base.spawn(1000 * M + r))
                             for r in range(100)])
            variances.append(reps[:, comp].var(ddof=1))
        slope = np.polyfit(np.log10(ms), np.log10(variances), 1)[0]
        slopes.append(slope)
    assert all(abs(s + 1.0) < 0.1 for s in slopes)


def test_reparam_grad_matches_common_random_number_finite_difference():
    # [DERIVED] same-seed finite difference of the MC objective E[X^2/2],
    # X = theta1 + theta2 * Y, with one set of draws Y for both sides
    M, h = 10**6, 1e-4
    g = reparam_grad(THETA, M, RngState(7))
    y = RngState(8).standard_normal(M)
    objective = lambda th: float(np.mean(0.5 * (th[0] + th[1] * y) ** 2))
    fd = np.empty(2)
    for i in range(2):
        tp, tm = list(THETA), list(THETA)
        tp[i] += h
        tm[i] -= h
        fd[i] = (objective(tp) - objective(tm)) / (2 * h)
    # the two estimators share the exact gradient; each has MC error ~1e-3
    assert np.all(np.abs(g - fd) < 0.01)


def test_reparam_grad_rejects_bad_m():
    for bad in (0, 2.0, 2.5, math.nan):  # a count is an int: 2.0 fails too
        with pytest.raises(ValueError, match="M"):
            reparam_grad(THETA, bad, RngState(0))
