import math

import numpy as np
import pytest
from oracles import PointMassOracle, ddim_mean

from toydiff.guidance import GuidanceConfig, cfg_eps, guided_sample
from toydiff.losses import mu_tilde_from_eps
from toydiff.model import init_classifier, init_noise_predictor
from toydiff.rng import RngState
from toydiff.samplers import (SamplerConfig, ddim_sigma_ddpm_equiv, ddim_step,
                              ddpm_step, final_states, sample_reverse)
from toydiff.schedules import make_cosine_schedule, make_linear_schedule

SCHED = make_linear_schedule(100, 1e-3, 0.2)
MODEL = init_noise_predictor(1, hidden=(8,), rng=RngState(0))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kind="other")
    with pytest.raises(ValueError, match="sigma_policy"):
        SamplerConfig(kind="ddim", sigma_policy="explicit")
    for n in (0, 2.5, 2.0):
        with pytest.raises(ValueError):
            SamplerConfig(n_chains=n)


def test_ddpm_step_t1_is_deterministic():
    x = np.array([[0.4]])
    out1 = ddpm_step(MODEL, x, 1, SCHED)  # rng unused at t=1
    out2 = ddpm_step(MODEL, x, 1, SCHED)
    assert np.array_equal(out1, out2)
    eps = MODEL.predict(x, 1, None, SCHED)
    assert np.array_equal(out1, mu_tilde_from_eps(x, eps, 1, SCHED))


def test_ddpm_step_statistics_match_posterior():
    # [DERIVED] with the Bayes-exact eps stub the step samples the
    # true posterior q(x_{t-1} | x_t, x0)
    x0 = np.array([1.0])
    t = 40
    x_t = np.full((10**5, 1), 0.7)
    out = ddpm_step(PointMassOracle(x0), x_t, t, SCHED, rng=RngState(1))
    from toydiff.forward import posterior_q
    post = posterior_q(np.array([0.7]), x0, t, SCHED)
    n = out.shape[0]
    assert abs(out.mean() - post.mean[0]) < 4 * math.sqrt(post.var[0] / n)
    assert abs(out.var(ddof=1) - post.var[0]) < 4 * post.var[0] * math.sqrt(2.0 / n)


def test_ddim_sigma_ddpm_equiv_squares_to_beta_tilde():
    for t in range(2, SCHED.T + 1):
        assert np.isclose(ddim_sigma_ddpm_equiv(t, SCHED) ** 2,
                          SCHED.beta_tilde[t], rtol=1e-12)
    # the formula itself gives 0.0 at t = 1, where abar_0 = 1
    for s in (SCHED, make_linear_schedule(1, 0.5, 0.5), make_linear_schedule(1000),
              make_cosine_schedule(50)):
        assert ddim_sigma_ddpm_equiv(1, s) == 0.0


def test_ddim_sigma_worked_value():
    s = make_linear_schedule(2, 0.1, 0.2)
    assert abs(ddim_sigma_ddpm_equiv(2, s) - math.sqrt(0.1 / 0.28 * 0.2)) < 1e-12
    assert abs(ddim_sigma_ddpm_equiv(2, s) - 0.267261) < 1e-6


def test_ddim_step_sigma_zero_is_deterministic_and_uses_no_rng():
    x = np.array([[1.3]])
    rng = RngState(2)
    before = rng.normal_draws
    out1 = ddim_step(MODEL, x, 30, 0.0, SCHED, rng=rng)
    assert rng.normal_draws == before
    out2 = ddim_step(MODEL, x, 30, 0.0, SCHED, rng=None)
    assert np.array_equal(out1, out2)


def test_ddim_ddpm_equivalence_mean_and_spread():
    # mean parts must agree to 1e-12; stochastic spread to 3 SE
    x0 = np.array([-0.5])
    t = 25
    xt = np.array([[0.9]])
    oracle = PointMassOracle(x0)
    e = oracle.predict(xt, t, None, SCHED)
    mean_ddpm = mu_tilde_from_eps(xt, e, t, SCHED)
    sig = ddim_sigma_ddpm_equiv(t, SCHED)
    mean_ddim = ddim_mean(xt, e, t, sig, SCHED)
    assert np.allclose(mean_ddim, mean_ddpm, rtol=1e-12, atol=1e-12)

    n = 10**5
    xt_b = np.full((n, 1), 0.9)
    a = ddpm_step(oracle, xt_b, t, SCHED, rng=RngState(3))
    b = ddim_step(oracle, xt_b, t, sig, SCHED, rng=RngState(4))
    sd = math.sqrt(SCHED.beta_tilde[t])
    for out in (a, b):
        assert abs(out.std(ddof=1) - sd) < 4 * sd / math.sqrt(2 * n)
    assert abs(a.mean() - b.mean()) < 8 * sd / math.sqrt(n)


def test_ddim_step_rejects_oversized_sigma():
    t = 10
    too_big = math.sqrt(1 - SCHED.alpha_bar[t - 1]) * 1.01
    for bad in (too_big, -0.1, math.nan, 1e200):  # 1e200 ** 2 would overflow
        with pytest.raises(ValueError):
            ddim_step(MODEL, np.array([[0.0]]), t, bad, SCHED)


def test_the_public_steps_check_t_and_rng_before_the_predictor():
    class Refuses:  # a predictor the checks must stop before
        data_dim = 1

        def predict(self, x, t, y, sched):
            raise AssertionError("predict ran")

    x = np.array([[0.3]])
    for step in (lambda t, rng: ddpm_step(Refuses(), x, t, SCHED, rng=rng),
                 lambda t, rng: ddim_step(Refuses(), x, t, 0.1, SCHED, rng=rng)):
        with pytest.raises(ValueError, match="rng is required"):
            step(5, None)
        with pytest.raises(ValueError, match="one step"):
            step(np.array([5, 6]), RngState(0))
        with pytest.raises(ValueError, match="out of range"):
            step(SCHED.T + 1, RngState(0))
    # sigma_1 = 0 for both, so neither needs an rng at t = 1
    assert np.array_equal(ddpm_step(MODEL, x, 1, SCHED), ddim_step(MODEL, x, 1, 0.0, SCHED))


def test_ddim_zero_noise_oracle_collapses_to_clean_point():
    # sigma = 0 with the Bayes-exact eps walks any start to x0
    x0 = np.array([1.7])
    oracle, x = PointMassOracle(x0), np.array([[4.0]])
    for t in range(SCHED.T, 0, -1):
        x = ddim_step(oracle, x, t, 0.0, SCHED)
    assert abs(x[0, 0] - 1.7) < 1e-8


def test_the_public_steps_hand_any_predictor_the_checked_index():
    # an oracle indexes the schedule with t: 3.0 must not raise and True must not be a mask
    oracle, x = PointMassOracle(np.array([1.7])), np.array([[0.4], [-1.1]])
    for t, index in ((3.0, 3), (np.float64(3.0), 3), (True, 1), (np.int64(7), 7)):
        for step in (lambda t: ddpm_step(oracle, x, t, SCHED, rng=RngState(2)),
                     lambda t: ddim_step(oracle, x, t, 0.0, SCHED)):
            assert step(t).tobytes() == step(index).tobytes()


def test_sample_reverse_runs_on_an_oracle_predictor():
    # the full loop takes any object with data_dim and predict, not only a model
    x0 = np.array([1.7, -0.3])
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=4, record=True)
    states = sample_reverse(PointMassOracle(x0), cfg, SCHED, rng=RngState(11))
    assert states.shape == (SCHED.T + 1, 4, 2)
    assert np.max(np.abs(final_states(states) - x0)) < 1e-8


def test_sample_reverse_deterministic_given_seed():
    cfg = SamplerConfig(kind="ddpm", n_chains=4)
    a = final_states(sample_reverse(MODEL, cfg, SCHED, rng=RngState(5)))
    b = final_states(sample_reverse(MODEL, cfg, SCHED, rng=RngState(5)))
    assert np.array_equal(a, b)
    c = final_states(sample_reverse(MODEL, cfg, SCHED, rng=RngState(6)))
    assert not np.array_equal(a, c)


def test_sample_reverse_ddim_zero_fixed_start_is_reproducible():
    # with sigma = 0 the run is a function of x_T alone: a hand loop of ddim_step
    # without an rng, started from the run's own x_T, ends on the same bits
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=2)
    states = sample_reverse(MODEL, cfg, SCHED, rng=RngState(7))
    x = states[0]
    for t in range(SCHED.T, 0, -1):
        x = ddim_step(MODEL, x, t, 0.0, SCHED)
    assert np.array_equal(final_states(states), x)


def test_sample_reverse_rng_draw_count_sigma_zero():
    # a full sigma=0 DDIM run draws x_T and nothing else: exactly n_chains * d
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=3)
    rng = RngState(9)
    sample_reverse(MODEL, cfg, SCHED, rng=rng)
    assert rng.normal_draws == 3 * MODEL.data_dim


def test_sample_reverse_requires_rng_by_keyword():
    # without it the first draw used to fail on None.standard_normal
    cfg = SamplerConfig(n_chains=2)
    with pytest.raises(TypeError, match="rng"):
        sample_reverse(MODEL, cfg, SCHED)
    with pytest.raises(TypeError):
        sample_reverse(MODEL, cfg, SCHED, None, RngState(0))


def test_sample_reverse_trajectory_recording():
    # states are (L, n, d) at times T..0 with record on, and at [T, 0] with it off
    cfg = SamplerConfig(kind="ddpm", n_chains=2, record=True)
    states = sample_reverse(MODEL, cfg, SCHED, rng=RngState(10))
    assert states.shape == (SCHED.T + 1, 2, 1)
    assert np.array_equal(states[0], RngState(10).standard_normal((2, 1)))  # x_T first
    assert np.array_equal(final_states(states), states[-1])
    cfg2 = SamplerConfig(kind="ddpm", n_chains=1, record=False)
    ends = sample_reverse(MODEL, cfg2, SCHED, rng=RngState(10))
    assert ends.shape == (2, 1, 1)
    one = sample_reverse(MODEL, SamplerConfig(kind="ddpm", n_chains=1, record=True),
                         SCHED, rng=RngState(10))
    assert np.array_equal(ends, one[[0, -1]])  # recording changes no draw


COND = init_noise_predictor(1, hidden=(8,), conditioning=2, rng=RngState(1))
CLS = init_classifier(1, 2, (8,), rng=RngState(2))
CHAIN_SCHEDS = (make_linear_schedule(1000), make_linear_schedule(100, 1e-3, 0.2),
                make_cosine_schedule(50))


class _ClassifierGuided:
    """eps(x) - s sqrt(1 - abar_t) grad_x log p(y | x_t), written out from guidance's doc."""
    data_dim = 1

    def predict(self, x, t, y, sched):
        grad = CLS.grad_x(x, t, 1, sched)
        return MODEL.predict(x, t, None, sched) - 1.5 * np.sqrt(1.0 - sched.alpha_bar[t]) * grad


class _FreeGuided:
    data_dim = 1

    def predict(self, x, t, y, sched):
        return cfg_eps(COND, x, t, 0, 2.0, sched)


CHAIN_CASES = {  # (sampler, guidance, the predictor a public-step loop runs on)
    "ddpm": (dict(kind="ddpm"), dict(mode="none"), MODEL),
    "ddim0": (dict(kind="ddim", sigma_policy="zero"), dict(mode="none"), MODEL),
    "ddimd": (dict(kind="ddim", sigma_policy="ddpm"), dict(mode="none"), MODEL),
    "cfg": (dict(kind="ddpm"), dict(mode="classifier-free", scale=2.0, target=0), _FreeGuided()),
    "classifier": (dict(kind="ddpm"), dict(mode="classifier", scale=1.5, target=1,
                                           classifier=CLS), _ClassifierGuided()),
    "classifier/ddim0": (dict(kind="ddim", sigma_policy="zero"),
                         dict(mode="classifier", scale=1.5, target=1, classifier=CLS),
                         _ClassifierGuided()),
}


@pytest.mark.parametrize("n", (1, 3, 300))
@pytest.mark.parametrize("sched", CHAIN_SCHEDS, ids=("linear1000", "desk", "cosine50"))
@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_sample_reverse_is_a_loop_of_the_public_steps(case, sched, n):
    # every recorded state and the draw count, byte for byte, against the chain
    # written as a loop of ddpm_step / ddim_step on the same stream
    kw, g, predictor = CHAIN_CASES[case]
    cfg = SamplerConfig(n_chains=n, record=True, **kw)
    rng, ref_rng = RngState(3, n), RngState(3, n)
    net = COND if g["mode"] == "classifier-free" else MODEL
    states = guided_sample(net, cfg, GuidanceConfig(**g), sched, rng)
    ddim0 = cfg.kind == "ddim" and cfg.sigma_policy == "zero"
    x = ref_rng.standard_normal((n, 1))
    ref = [x]
    for t in range(sched.T, 0, -1):
        x = (ddim_step(predictor, x, t, 0.0, sched, rng=ref_rng) if ddim0
             else ddpm_step(predictor, x, t, sched, rng=ref_rng))
        ref.append(x)
    assert states.tobytes() == np.stack(ref).tobytes()
    assert rng.normal_draws == ref_rng.normal_draws
