import math
import re

import numpy as np
import pytest
from oracles import PointMassOracle, sigma_mean, vlb_per_t

from toydiff import forward
from toydiff.forward import posterior_q
from toydiff.gaussian import DiagGaussian, kl_closed_form, log_pdf
from toydiff.losses import (VlbReport, loss_eps_weighted, loss_x0_weighted,
                            mu_tilde_from_eps, reverse_coefficients, vlb_estimate,
                            x0_from_eps)
from toydiff.model import init_noise_predictor
from toydiff.rng import RngState
from toydiff.schedules import make_cosine_schedule, make_linear_schedule


def random_schedule(rng):
    T = int(rng.integers(2, 30))
    b0 = rng.uniform(1e-4, 0.1)
    b1 = rng.uniform(b0, 0.5)
    return make_linear_schedule(T, b0, b1)


def test_x0_from_eps_round_trip():
    s = make_linear_schedule(20, 0.01, 0.2)
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = int(rng.integers(1, 21))
        x0 = rng.normal(size=2)
        eps = rng.normal(size=2)
        xt = np.sqrt(s.alpha_bar[t]) * x0 + np.sqrt(1 - s.alpha_bar[t]) * eps
        assert np.allclose(x0_from_eps(xt, eps, t, s), x0, rtol=1e-12, atol=1e-12)


def test_x0_from_eps_zero_noise():
    s = make_linear_schedule(5, 0.1, 0.2)
    xt = np.array([0.7])
    assert np.allclose(x0_from_eps(xt, np.zeros(1), 3, s),
                       xt / np.sqrt(s.alpha_bar[3]), rtol=1e-15)


def test_x0_from_eps_worked_example():
    # T=2 (0.1, 0.2): x_t = 1.0, eps = 1.0, t = 2
    s = make_linear_schedule(2, 0.1, 0.2)
    val = x0_from_eps(np.array([1.0]), np.array([1.0]), 2, s)[0]
    expect = (1.0 - math.sqrt(0.28)) / math.sqrt(0.72)
    assert np.isclose(val, expect, rtol=1e-12)
    assert abs(val - 0.5549017) < 1e-6


def test_mu_tilde_matches_posterior_mean_randomized():
    # [DERIVED] substitution identity against posterior_q
    rng = np.random.default_rng(1)
    for _ in range(300):
        s = random_schedule(rng)
        t = int(rng.integers(2, s.T + 1))
        x0 = rng.normal(size=1)
        eps = rng.normal(size=1)
        xt = np.sqrt(s.alpha_bar[t]) * x0 + np.sqrt(1 - s.alpha_bar[t]) * eps
        mu = mu_tilde_from_eps(xt, eps, t, s)
        post = posterior_q(xt, x0, t, s)
        assert np.allclose(mu, post.mean, rtol=1e-12, atol=1e-12)


def test_mu_tilde_with_var_is_the_sigma_family_mean_randomized():
    # [DERIVED] with the true eps the eps form equals the x0 form of the mean of
    # q_sigma(x_{t-1} | x_t, x0), with abar' = abar_{t-1}:
    # sqrt(abar') x0 + sqrt(1 - abar' - var) (x_t - sqrt(abar) x0) / sqrt(1 - abar)
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = random_schedule(rng)
        t = int(rng.integers(1, s.T + 1))
        ab, ab_prev = s.alpha_bar[t], s.alpha_bar[t - 1]
        x0, eps = rng.normal(size=2), rng.normal(size=2)
        xt = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        var = rng.uniform(0.0, 1.0 - ab_prev)
        x0_form = (np.sqrt(ab_prev) * x0
                   + np.sqrt(1 - ab_prev - var) * (xt - np.sqrt(ab) * x0) / np.sqrt(1 - ab))
        assert np.allclose(sigma_mean(xt, eps, t, s, var), x0_form, rtol=1e-12, atol=1e-12)
        default = mu_tilde_from_eps(xt, eps, t, s)
        assert sigma_mean(xt, eps, t, s, None).tobytes() == default.tobytes()
        assert sigma_mean(xt, eps, t, s, s.beta_tilde[t]).tobytes() == default.tobytes()


def test_mu_tilde_rejects_a_var_outside_the_family():
    # one range check for sigma_t^2, with its own message rather than a math domain error
    s = make_linear_schedule(10, 0.05, 0.2)
    xt, eps = np.array([0.8]), np.array([-0.4])
    v_max, message = 1 - s.alpha_bar[3], re.escape("sigma_t^2 must lie in [0, 1 - abar_{t-1}]")
    for t, bad in ((4, math.nan), (4, -1e-300), (4, v_max * (1 + 1e-12)), (1, 1e-3)):
        with pytest.raises(ValueError, match=message):
            sigma_mean(xt, eps, t, s, bad)
    # at the top of the range the direction term is gone: sqrt(abar_{t-1}) x0_hat
    assert np.allclose(sigma_mean(xt, eps, 4, s, v_max),
                       np.sqrt(s.alpha_bar[3]) * x0_from_eps(xt, eps, 4, s), rtol=1e-12)


def test_mu_tilde_zero_noise_rescales():
    s = make_linear_schedule(10, 0.05, 0.2)
    xt = np.array([1.4])
    assert np.allclose(mu_tilde_from_eps(xt, np.zeros(1), 4, s),
                       xt / np.sqrt(s.alpha[4]), rtol=1e-15)


def test_mu_tilde_t1_equals_x0_recovery():
    s = make_linear_schedule(10, 0.05, 0.2)
    xt, eps = np.array([0.8]), np.array([-0.4])
    assert np.allclose(mu_tilde_from_eps(xt, eps, 1, s),
                       x0_from_eps(xt, eps, 1, s), rtol=1e-14)


def test_an_array_t_is_one_step_per_row():
    # t = [2, 3] on two (2, 1) rows gives two (1,) rows, each the scalar call bit for bit
    s = make_linear_schedule(10, 0.05, 0.2)
    xt, eps, ts = np.array([[0.8], [-1.3]]), np.array([[-0.4], [0.9]]), np.array([2, 3])
    for f in (x0_from_eps, mu_tilde_from_eps,
              lambda x, e, t, s: sigma_mean(x, e, t, s, 0.0)):
        out = f(xt, eps, ts, s)
        assert out.shape == (2, 1)
        for i, t in enumerate(ts):
            assert out[i].tobytes() == f(xt[i], eps[i], t, s).tobytes()
    for bad in (np.array([0.8, -1.3]), np.array([[[0.8]], [[-1.3]]]), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="one row per step"):
            x0_from_eps(bad, bad, ts, s)


def test_the_public_pairs_and_losses_give_the_package_messages():
    # a mismatched pair is not broadcast, and a weighted loss is one float at one t
    s = make_linear_schedule(10, 0.05, 0.2)
    x, e = np.zeros((3, 1)), np.zeros(3)
    for f in (x0_from_eps, mu_tilde_from_eps, loss_eps_weighted, loss_x0_weighted):
        with pytest.raises(ValueError, match="one shape"):
            f(x, e, 4, s)
    for f in (loss_eps_weighted, loss_x0_weighted):
        with pytest.raises(ValueError, match="one step"):
            f(x, x, np.array([2, 3, 4]), s)


@pytest.mark.parametrize("s", (make_linear_schedule(1000), make_linear_schedule(100, 1e-3, 0.2),
                               make_cosine_schedule(50)), ids=("linear1000", "desk", "cosine50"))
@pytest.mark.parametrize("var", (None, 0.0))
def test_reverse_plan_rows_give_the_mu_tilde_bytes(s, var):
    # a chain's plan, reverse_coefficients over every t in one call, gives one (T, 1) column
    # per coefficient; row t - 1 is the scalar step at t, bit for bit, and its sigma_t
    columns = reverse_coefficients(s, np.arange(1, s.T + 1), var)
    assert [col.shape for col in columns] == [(s.T, 1)] * 3
    rng = np.random.default_rng(8)
    xt, eps = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    for t, (c, sqrt_a, sigma) in enumerate(np.hstack(columns), start=1):
        assert ((xt - c * eps) / sqrt_a).tobytes() == sigma_mean(xt, eps, t, s, var).tobytes()
        if var is None:
            assert ((xt - c * eps) / sqrt_a).tobytes() == mu_tilde_from_eps(xt, eps, t, s).tobytes()
        assert sigma == (math.sqrt(s.beta_tilde[t]) if var is None else 0.0)
        assert [float(v) for v in reverse_coefficients(s, t, var)] == [c, sqrt_a, sigma]


def test_reverse_plan_checks_every_sigma_once():
    # one sigma_t^2 check over every row of a chain's reverse_coefficients
    s = make_linear_schedule(10, 0.05, 0.2)
    ts, v_max = np.arange(1, 11), 1 - s.alpha_bar[:-1]  # the largest sigma_t^2 of t = 1..T
    message = re.escape("sigma_t^2 must lie in [0, 1 - abar_{t-1}]")
    for bad in (math.nan, -1e-300, 1e-3, v_max[:, None] * (1 + 1e-12)):  # 1e-3 > 0 = v_max at t = 1
        with pytest.raises(ValueError, match=message):
            reverse_coefficients(s, ts, bad)
    assert np.array_equal(reverse_coefficients(s, ts, v_max[:, None])[2][:, 0], np.sqrt(v_max))


def test_weighted_losses_zero_and_scaling():
    s = make_linear_schedule(5, 0.1, 0.3)
    z = np.array([0.5])
    assert loss_x0_weighted(z, z, 3, s) == 0.0
    assert loss_eps_weighted(z, z, 3, s) == 0.0
    a = loss_x0_weighted(np.array([1.0]), np.array([0.0]), 3, s)
    b = loss_x0_weighted(np.array([2.0]), np.array([0.0]), 3, s)
    assert np.isclose(b, 4 * a, rtol=1e-12)


def test_weighted_losses_reject_t1():
    s = make_linear_schedule(5, 0.1, 0.3)
    for t in (1, s.T + 1):
        with pytest.raises(ValueError, match="out of range"):
            loss_x0_weighted(np.zeros(1), np.zeros(1), t, s)
        with pytest.raises(ValueError, match="out of range"):
            loss_eps_weighted(np.zeros(1), np.zeros(1), t, s)


def test_weighted_loss_cross_identity():
    # [DERIVED] x0-form and eps-form weighted losses agree under substitution
    rng = np.random.default_rng(2)
    for _ in range(300):
        s = random_schedule(rng)
        t = int(rng.integers(2, s.T + 1))
        x0, eps = rng.normal(size=1), rng.normal(size=1)
        eps_hat = rng.normal(size=1)
        xt = np.sqrt(s.alpha_bar[t]) * x0 + np.sqrt(1 - s.alpha_bar[t]) * eps
        x0_hat = x0_from_eps(xt, eps_hat, t, s)
        la = loss_x0_weighted(x0_hat, x0, t, s)
        lb = loss_eps_weighted(eps_hat, eps, t, s)
        assert np.isclose(la, lb, rtol=1e-10, atol=1e-12)


def test_vlb_report_invariants():
    rep = VlbReport(L0=-1.5, Lt=np.array([0.5, 0.1, 0.3]), LT=0.2)
    assert rep.total == -1.5 + float(np.sum(rep.Lt)) + 0.2  # the sum, bit for bit
    with pytest.raises(TypeError):  # the total is derived, never given
        VlbReport(L0=1.0, Lt=np.array([0.5]), LT=0.2, total=1.7)
    nan, inf = math.nan, math.inf
    for L0, Lt, LT in ((1.0, [-0.5], 0.2), (1.0, [0.5], -0.2),  # a negative KL term
                       (nan, [0.5], 0.2), (1.0, [nan], 0.2), (1.0, [0.5], nan),
                       (inf, [0.5], 0.2), (-inf, [0.5], 0.2), (1.0, [inf], 0.2),
                       (1.0, [0.5], inf)):
        with pytest.raises(ValueError, match="every term must be finite and every KL term >= 0"):
            VlbReport(L0=L0, Lt=np.array(Lt), LT=LT)
    s, rng = make_linear_schedule(6, 0.05, 0.3), RngState(0)
    for x0 in ([math.inf], [math.nan], [0.5, -math.inf]):
        with pytest.raises(ValueError, match="x0 must be finite"):
            vlb_estimate(PointMassOracle(np.array([0.5])), x0, s, 2, rng)
    assert rng.normal_draws == 0


def test_vlb_oracle_predictor_zeroes_kl_terms():
    # eps oracle for a point mass at x0 makes every reverse kernel exact
    s = make_linear_schedule(6, 0.05, 0.3)
    x0 = np.array([0.8])
    rep = vlb_estimate(PointMassOracle(x0), x0, s, 20, RngState(0))
    assert np.max(rep.Lt) < 1e-20
    # decoder mean is exactly x0 -> L0 = 0.5 log(2 pi beta_1)
    assert np.isclose(rep.L0, 0.5 * math.log(2 * math.pi * s.beta[1]), rtol=1e-10)
    assert rep.LT > 0
    rng = RngState(0)
    for bad in (0, 2.0, 2.5, math.nan):  # a count is an int: 2.0 fails too, before any draw
        with pytest.raises(ValueError, match="M"):
            vlb_estimate(PointMassOracle(x0), x0, s, bad, rng)
    assert rng.normal_draws == 0


def per_draw_vlb(m, x0, sched, M, rng):
    """Reference: the bound with one network call per (t, draw), summed draw by draw."""
    predict = lambda x, t: m.predict(x, t, sched=sched)
    Lt = np.zeros(sched.T - 1)
    for t in range(2, sched.T + 1):
        acc = 0.0
        for _ in range(M):
            x_t, _ = forward.sample_xt(x0, t, sched, rng)
            post = forward.posterior_q(x_t, x0, t, sched)
            mu_p = mu_tilde_from_eps(x_t, predict(x_t, t), t, sched)
            p = DiagGaussian(mu_p, np.full_like(mu_p, sched.beta_tilde[t]))
            acc += kl_closed_form(post, p)
        Lt[t - 2] = acc / M
    acc0 = 0.0
    for _ in range(M):
        x1, _ = forward.sample_xt(x0, 1, sched, rng)
        x0_hat = mu_tilde_from_eps(x1, predict(x1, 1), 1, sched)
        dec = DiagGaussian(x0_hat, np.full_like(x0_hat, sched.beta[1]))
        acc0 += -float(log_pdf(dec, x0))
    L0 = acc0 / M
    LT = kl_closed_form(forward.marginal_q(x0, sched.T, sched),
                        DiagGaussian(np.zeros_like(x0), np.ones_like(x0)))
    return L0, Lt, L0 + float(np.sum(Lt)) + LT


@pytest.mark.parametrize("M", [1, 7])
@pytest.mark.parametrize("d", [1, 2])
def test_vlb_batched_matches_per_draw_reference(M, d):
    # one (M, d) draw per t consumes the stream exactly as M draws of size d;
    # only the order of summation differs
    s = make_linear_schedule(50, 1e-3, 0.2)
    m = init_noise_predictor(d, hidden=(8,), rng=RngState(5))
    x0 = np.linspace(-1.5, 1.0, d)
    rng_a, rng_b = RngState(9), RngState(9)
    rep = vlb_estimate(m, x0, s, M, rng_a)
    L0, Lt, total = per_draw_vlb(m, x0, s, M, rng_b)
    assert np.allclose(rep.Lt, Lt, rtol=1e-12, atol=0)
    assert math.isclose(rep.L0, L0, rel_tol=1e-12)
    assert math.isclose(rep.total, total, rel_tol=1e-12)
    assert rng_a.normal_draws == rng_b.normal_draws == s.T * M * d


VLB_SCHEDULES = {"linear1": make_linear_schedule(1), "linear2": make_linear_schedule(2),
                 "linear1000": make_linear_schedule(1000), "cosine100": make_cosine_schedule(100)}


@pytest.mark.parametrize("sched", VLB_SCHEDULES.values(), ids=VLB_SCHEDULES.keys())
@pytest.mark.parametrize("M", [1, 3, 10, 37])  # numpy's pairwise sum changes path at 8 terms
@pytest.mark.parametrize("d", [1, 2])
def test_vlb_matches_the_per_t_loop_byte_for_byte(sched, M, d):
    m = init_noise_predictor(d, hidden=(8,), rng=RngState(5))
    x0 = np.linspace(-1.5, 1.0, d)
    rng_a, rng_b = RngState(9), RngState(9)
    rep, ref = vlb_estimate(m, x0, sched, M, rng_a), vlb_per_t(m, x0, sched, M, rng_b)
    for name in ("L0", "Lt", "LT", "total"):
        a, b = np.asarray(getattr(rep, name)), np.asarray(getattr(ref, name))
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert rng_a.normal_draws == rng_b.normal_draws == sched.T * M * d


def test_vlb_prior_term_small_for_long_schedule():
    s = make_linear_schedule(1000, 1e-4, 0.02)
    x0 = np.array([3.0])
    from toydiff.forward import marginal_q
    from toydiff.gaussian import DiagGaussian, kl_closed_form
    lt = kl_closed_form(marginal_q(x0, 1000, s),
                        DiagGaussian(np.zeros(1), np.ones(1)))
    assert lt < 0.01


def quadrature_log_px0(m, x0, s):
    """[DERIVED] 2-D grid quadrature of the model's exact marginal, T = 2."""
    x2 = np.linspace(-9, 9, 1201)
    x1 = np.linspace(-9, 9, 3001)
    eps2 = m.predict(x2[:, None], 2, None, s)[:, 0]
    mu2 = mu_tilde_from_eps(x2, eps2, 2, s)
    eps1 = m.predict(x1[:, None], 1, None, s)[:, 0]
    m1 = mu_tilde_from_eps(x1, eps1, 1, s)

    def lognorm(x, mu, var):
        return -0.5 * (np.log(2 * np.pi * var) + (x - mu) ** 2 / var)

    # inner: for each x2, integrate over x1
    inner = np.trapezoid(
        np.exp(lognorm(x1[None, :], mu2[:, None], s.beta_tilde[2])
               + lognorm(x0, m1, s.beta[1])[None, :]), x1, axis=1)
    outer = np.trapezoid(np.exp(lognorm(x2, 0.0, 1.0)) * inner, x2)
    return math.log(outer)


def test_vlb_upper_bounds_nll_t2():
    s = make_linear_schedule(2, 0.1, 0.2)
    m = init_noise_predictor(1, hidden=(8,), rng=RngState(3))
    for seed, x0v in [(0, 0.5), (1, -1.2), (2, 2.0)]:
        x0 = np.array([x0v])
        rep = vlb_estimate(m, x0, s, 200, RngState(100 + seed))
        nll = -quadrature_log_px0(m, x0v, s)
        assert rep.total >= nll - 1e-3
