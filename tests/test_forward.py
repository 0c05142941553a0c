import math

import numpy as np
import pytest

from toydiff.forward import (GmmSpec, Trajectory, default_mixture, forward_step,
                             gmm_log_pdf, gmm_sample, marginal_q, posterior_q,
                             sample_xt, simulate_forward)
from toydiff.gaussian import log_pdf
from toydiff.rng import RngState
from toydiff.schedules import make_linear_schedule


def test_trajectory_rejects_nonmonotone_times():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0, 2, 1]), states=np.zeros((3, 1)))


def test_gmm_spec_validation():
    with pytest.raises(ValueError, match="sum"):
        GmmSpec(weights=[0.5, 0.4], means=[[0.0], [1.0]], vars=[[1.0], [1.0]])
    with pytest.raises(ValueError):
        GmmSpec(weights=[1.0], means=[[0.0]], vars=[[0.0]])
    nan = float("nan")
    for w, m, v in [([nan, 1.0], [[0.0], [1.0]], [[1.0], [1.0]]),
                    ([1.5, -0.5], [[0.0], [1.0]], [[1.0], [1.0]]),
                    ([0.5, 0.5], [[nan], [1.0]], [[1.0], [1.0]]),
                    ([0.5, 0.5], [[0.0], [float("inf")]], [[1.0], [1.0]]),
                    ([0.5, 0.5], [[0.0], [1.0]], [[nan], [1.0]]),
                    ([0.5, 0.5], [[0.0], [1.0]], [[1.0], [float("inf")]])]:
        with pytest.raises(ValueError):
            GmmSpec(weights=w, means=m, vars=v)
    for labels in ([0], [0, 1, 1], [0, -1], [-2, 1],
                   [0.5, 1], [float("nan"), 1], [float("inf"), 1]):
        with pytest.raises(ValueError, match="labels"):
            GmmSpec(weights=[0.5, 0.5], means=[[0.0], [1.0]], vars=[[1.0], [1.0]],
                    labels=labels)


def test_forward_step_small_beta_stays_close():
    s = make_linear_schedule(10, 1e-4, 1e-4)
    x = np.array([3.0])
    out = forward_step(x, 1, s, RngState(0))
    assert abs(out[0] - 3.0) < 0.1


def test_forward_step_moments():
    s = make_linear_schedule(10, 0.3, 0.3)
    x = np.full((10**6, 1), 2.0)
    out = forward_step(x, 5, s, RngState(1))
    mean_target = math.sqrt(0.7) * 2.0
    assert abs(out.mean() - mean_target) < 4 * math.sqrt(0.3 / 10**6)
    assert abs(out.var(ddof=1) - 0.3) < 4 * 0.3 * math.sqrt(2.0 / 10**6)


def test_two_chained_steps_match_marginal():
    # [DERIVED] var after two steps is 1 - abar_2 for x0 = 0
    s = make_linear_schedule(2, 0.2, 0.3)
    n = 10**6
    x = np.zeros((n, 1))
    rng = RngState(2)
    x = forward_step(forward_step(x, 1, s, rng), 2, s, rng)
    target = 1.0 - s.alpha_bar[2]
    assert abs(x.var(ddof=1) - target) < 4 * target * math.sqrt(2.0 / n)


def test_marginal_q_values_and_t0():
    s = make_linear_schedule(2, 0.1, 0.2)
    g = marginal_q([2.0], 2, s)
    assert np.isclose(g.mean[0], math.sqrt(0.72) * 2.0, rtol=1e-12)
    assert np.isclose(g.var[0], 0.28, rtol=1e-12)
    g0 = marginal_q([2.0], 0, s)
    assert g0.mean[0] == 2.0 and g0.var[0] == 0.0


def test_marginal_q_terminal_approaches_standard_normal():
    s = make_linear_schedule(1000, 1e-4, 0.02)
    g = marginal_q([1.0], 1000, s)
    assert abs(g.mean[0]) < 0.01
    assert abs(g.var[0] - 1.0) < 1e-4


def test_sample_xt_identity_and_determinism():
    s = make_linear_schedule(50, 1e-4, 0.02)
    rng = RngState(3)
    x0 = np.random.default_rng(0).normal(size=(100, 2))
    xt, eps = sample_xt(x0, 17, s, rng)
    recon = np.sqrt(s.alpha_bar[17]) * x0 + np.sqrt(1 - s.alpha_bar[17]) * eps
    assert np.max(np.abs(xt - recon)) < 1e-15
    xt2, eps2 = sample_xt(x0, 17, s, RngState(3))
    assert np.array_equal(xt, xt2) and np.array_equal(eps, eps2)


def test_sample_xt_array_t_equals_row_by_row_scalar_calls():
    s = make_linear_schedule(50, 1e-4, 0.02)
    x0 = np.random.default_rng(1).normal(size=(6, 2))
    t = np.array([1, 50, 17, 17, 3, 29])
    rng_a, rng_b = RngState(5), RngState(5)
    xt, eps = sample_xt(x0, t, s, rng_a)
    rows = [sample_xt(x0[i], int(t[i]), s, rng_b) for i in range(len(t))]
    assert np.array_equal(xt, np.stack([r[0] for r in rows]))
    assert np.array_equal(eps, np.stack([r[1] for r in rows]))
    assert rng_a.normal_draws == rng_b.normal_draws == x0.size
    with pytest.raises(ValueError):
        sample_xt(x0, np.array([1, 2, 3, 51, 4, 5]), s, rng_a)


def test_sample_xt_moments():
    s = make_linear_schedule(50, 1e-4, 0.02)
    n = 10**6
    xt, _ = sample_xt(np.full((n, 1), 1.5), 30, s, RngState(4))
    g = marginal_q([1.5], 30, s)
    assert abs(xt.mean() - g.mean[0]) < 4 * math.sqrt(g.var[0] / n)
    assert abs(xt.var(ddof=1) - g.var[0]) < 4 * g.var[0] * math.sqrt(2.0 / n)


def test_posterior_q_point_mass_at_t1():
    s = make_linear_schedule(5, 0.1, 0.2)
    g = posterior_q([0.9], [1.0], 1, s)
    assert g.mean[0] == pytest.approx(1.0, abs=1e-12)
    assert g.var[0] == 0.0


def test_posterior_q_symmetry_at_zero():
    s = make_linear_schedule(5, 0.1, 0.2)
    g = posterior_q([0.0], [0.0], 3, s)
    assert g.mean[0] == 0.0


def test_posterior_q_matches_bayes_grid_oracle():
    # [DERIVED] log posterior == log q(x1|x0) + log q(x2|x1) - log q(x2|x0)
    # evaluated pointwise with explicit normal densities on a grid
    s = make_linear_schedule(2, 0.1, 0.2)
    x0, x2 = 1.0, 0.3
    g = posterior_q([x2], [x0], 2, s)
    grid = np.linspace(-6, 6, 2001)

    def norm_lp(x, mu, var):
        return -0.5 * (math.log(2 * math.pi * var) + (x - mu) ** 2 / var)

    lp_bayes = (norm_lp(grid, math.sqrt(s.alpha_bar[1]) * x0, 1 - s.alpha_bar[1])
                + norm_lp(x2, np.sqrt(s.alpha[2]) * grid, s.beta[2])
                - norm_lp(x2, math.sqrt(s.alpha_bar[2]) * x0, 1 - s.alpha_bar[2]))
    lp_post = np.array([log_pdf(g, [x]) for x in grid]).ravel()
    assert np.max(np.abs(lp_bayes - lp_post)) < 1e-8


def test_posterior_q_coefficients_sum_near_one_for_equal_args():
    # with x_t = x0 = c the posterior mean is a convex-like combination near c
    s = make_linear_schedule(20, 0.01, 0.1)
    for t in range(2, 21):
        g = posterior_q([1.0], [1.0], t, s)
        assert abs(g.mean[0] - 1.0) < 0.06


def test_simulate_forward_shape_and_start():
    s = make_linear_schedule(10, 1e-3, 0.05)
    traj = simulate_forward([1.0], s, RngState(5))
    assert traj.states.shape == (11, 1)
    assert traj.states[0, 0] == 1.0
    assert np.array_equal(traj.times, np.arange(11))


def test_simulate_forward_terminal_moments_match_marginal():
    # [DERIVED] chained simulation agrees with the closed-form marginal
    s = make_linear_schedule(50, 1e-3, 0.1)
    n = 25000
    rng = RngState(6)
    x = np.full((n, 1), 1.0)
    for t in range(1, 51):
        x = forward_step(x, t, s, rng)
    g = marginal_q([1.0], 50, s)
    assert abs(x.mean() - g.mean[0]) < 4 * math.sqrt(g.var[0] / n)
    assert abs(x.var(ddof=1) - g.var[0]) < 4 * g.var[0] * math.sqrt(2.0 / n)


def test_gmm_sample_component_frequencies_and_labels():
    spec = default_mixture()
    xs, ys = gmm_sample(spec, RngState(7), size=10**5)
    frac1 = np.mean(ys == 1)
    se = math.sqrt(0.4 * 0.6 / 10**5)
    assert abs(frac1 - 0.4) < 4 * se
    # labels track the component the draw came from
    assert abs(xs[ys == 0, 0].mean() + 2.0) < 0.02
    assert abs(xs[ys == 1, 0].mean() - 2.0) < 0.02


def test_gmm_log_pdf_normalizes():
    spec = default_mixture()
    grid = np.linspace(-12, 12, 200001)[:, None]
    mass = np.trapezoid(np.exp(gmm_log_pdf(spec, grid)), grid[:, 0])
    assert abs(mass - 1.0) < 1e-6


def test_gmm_log_pdf_matches_manual_mixture():
    spec = default_mixture()
    x = 0.5
    manual = (0.6 * math.exp(-0.5 * (x + 2) ** 2 / 0.25) / math.sqrt(2 * math.pi * 0.25)
              + 0.4 * math.exp(-0.5 * (x - 2) ** 2 / 0.25) / math.sqrt(2 * math.pi * 0.25))
    assert np.isclose(gmm_log_pdf(spec, [x]), math.log(manual), rtol=1e-12)


def test_t_range_errors():
    s = make_linear_schedule(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        forward_step([0.0], 0, s, RngState(0))
    with pytest.raises(ValueError):
        marginal_q([0.0], 6, s)
    with pytest.raises(ValueError):
        posterior_q([0.0], [0.0], 0, s)
