import math

import numpy as np
import pytest

from toydiff.guidance import GuidanceConfig, cfg_eps, classifier_shift, guided_sample
from toydiff.losses import mu_tilde_from_eps
from toydiff.model import init_classifier, init_noise_predictor
from toydiff.rng import RngState
from toydiff.samplers import SamplerConfig, ddpm_step, final_states, sample_reverse
from toydiff.schedules import make_linear_schedule

SCHED = make_linear_schedule(100, 1e-3, 0.2)
UNCOND = init_noise_predictor(1, hidden=(8,), rng=RngState(0))
COND = init_noise_predictor(1, hidden=(8,), conditioning=2, rng=RngState(0))
CLS = init_classifier(1, 2, hidden=(8,), rng=RngState(1))


def test_guidance_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(mode="weird")
    with pytest.raises(ValueError):
        GuidanceConfig(mode="classifier-free", scale=-1.0, target=1)
    with pytest.raises(ValueError):
        GuidanceConfig(mode="classifier-free", scale=float("nan"), target=1)
    with pytest.raises(ValueError):
        GuidanceConfig(mode="classifier-free", scale=1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(mode="classifier", scale=1.0, target=1)
    for mode in ("none", "classifier-free"):
        for bad in (1.5, float("nan"), np.inf):
            with pytest.raises(ValueError):
                GuidanceConfig(mode=mode, scale=1.0, target=bad)


def test_classifier_shift_rejects_negative_or_nan_scale():
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="s must be >= 0"):
            classifier_shift(CLS, 1, bad, SCHED)


def test_scale_zero_matches_unguided_step_bitwise():
    x = np.array([[0.6], [-1.1]])
    t = 40
    a = ddpm_step(UNCOND, x, t, SCHED, rng=RngState(2), shift=classifier_shift(CLS, 1, 0.0, SCHED))
    b = ddpm_step(UNCOND, x, t, SCHED, rng=RngState(2))
    assert np.array_equal(a, b)


def test_constant_logit_classifier_has_no_effect():
    # zero-parameter classifier: log p is constant in x, so grad_x = 0
    from toydiff.model import Classifier
    n_params = 5 * 4 + 4 + 4 * 2 + 2  # widths (1+4, 4, 2)
    n = Classifier(1, (4,), 2, np.zeros(n_params))
    x = np.array([[0.3]])
    a = ddpm_step(UNCOND, x, 30, SCHED, rng=RngState(3), shift=classifier_shift(n, 0, 5.0, SCHED))
    b = ddpm_step(UNCOND, x, 30, SCHED, rng=RngState(3))
    assert np.array_equal(a, b)


class LinearLogLik:
    """Duck-typed stub with a genuinely linear log-likelihood w.x + b."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)

    def grad_x(self, x, t, y, sched):
        return np.broadcast_to(self.w, np.atleast_2d(x).shape)


def test_taylor_shift_exact_for_linear_log_likelihood():
    # [DERIVED] tilting N(mu, bt) by exp(w.x) gives N(mu + bt w, bt); the
    # s=1 mean shift must match a quadrature computation of that tilted mean
    w = 0.7
    t = 35
    x = np.array([[0.4]])
    stub = LinearLogLik([w])
    mu = mu_tilde_from_eps(x, UNCOND.predict(x, t, None, SCHED), t, SCHED)[0, 0]
    bt = SCHED.beta_tilde[t]

    grid = np.linspace(mu - 10 * math.sqrt(bt), mu + 10 * math.sqrt(bt), 20001)
    dens = np.exp(-0.5 * (grid - mu) ** 2 / bt + w * grid)
    tilted_mean = np.trapezoid(grid * dens, grid) / np.trapezoid(dens, grid)

    # compare the deterministic mean part: subtract the shared noise
    seed = RngState(4)
    out = ddpm_step(UNCOND, x, t, SCHED, rng=seed, shift=classifier_shift(stub, 0, 1.0, SCHED))
    noise = math.sqrt(bt) * RngState(4).standard_normal((1, 1))
    mean_guided = (out - noise)[0, 0]
    assert abs(mean_guided - tilted_mean) < 1e-6
    assert abs(mean_guided - (mu + bt * w)) < 1e-12


def test_guided_step_is_unguided_plus_shift_exactly():
    # covariance untouched: with shared draws, guided - unguided == shift
    x = np.array([[0.9], [-0.2]])
    t = 50
    s = 3.0
    a = ddpm_step(UNCOND, x, t, SCHED, rng=RngState(5), shift=classifier_shift(CLS, 1, s, SCHED))
    b = ddpm_step(UNCOND, x, t, SCHED, rng=RngState(5))
    mu = mu_tilde_from_eps(x, UNCOND.predict(x, t, None, SCHED), t, SCHED)
    shift = s * SCHED.beta_tilde[t] * CLS.grad_x(mu, t, 1, SCHED)
    assert np.allclose(a - b, shift, rtol=1e-12, atol=1e-15)


def test_cfg_eps_values_and_guards():
    x = np.array([[0.5]])
    e_y = COND.predict(x, 20, 1, SCHED)
    e_null = COND.predict(x, 20, None, SCHED)
    out = cfg_eps(COND, x, 20, 1, 2.0, SCHED)
    assert np.allclose(out, e_y + 2.0 * (e_y - e_null), rtol=1e-15)
    assert np.array_equal(cfg_eps(COND, x, 20, 1, 0.0, SCHED), e_y)
    with pytest.raises(ValueError):
        cfg_eps(UNCOND, x, 20, 1, 1.0, SCHED)


def test_cfg_null_target_is_fixed_point():
    # steering toward the null label moves nothing: e_y == e_null
    x = np.array([[0.1]])
    out = cfg_eps(COND, x, 15, None, 4.0, SCHED)
    assert np.allclose(out, COND.predict(x, 15, None, SCHED), rtol=1e-15)


def test_guided_sample_mode_none_is_bitwise_plain_sampling():
    cfg = SamplerConfig(kind="ddpm", n_chains=3)
    g = GuidanceConfig(mode="none")
    a = final_states(guided_sample(UNCOND, cfg, g, SCHED, RngState(6)))
    b = final_states(sample_reverse(UNCOND, cfg, SCHED, rng=RngState(6)))
    assert np.array_equal(a, b)


def test_guided_sample_cfg_scale_zero_is_bitwise_conditional_sampling():
    cfg = SamplerConfig(kind="ddpm", n_chains=3)
    g = GuidanceConfig(mode="classifier-free", scale=0.0, target=1)
    a = final_states(guided_sample(COND, cfg, g, SCHED, RngState(7)))
    b = final_states(sample_reverse(COND, cfg, SCHED, y=1, rng=RngState(7)))
    assert np.array_equal(a, b)


def test_classifier_guidance_scale_zero_is_bitwise_unconditional():
    cfg = SamplerConfig(kind="ddpm", n_chains=3)
    g = GuidanceConfig(mode="classifier", scale=0.0, target=1, classifier=CLS)
    a = final_states(guided_sample(UNCOND, cfg, g, SCHED, RngState(8)))
    b = final_states(sample_reverse(UNCOND, cfg, SCHED, rng=RngState(8)))
    assert np.array_equal(a, b)


def test_classifier_guidance_rejects_ddim():
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=1)
    g = GuidanceConfig(mode="classifier", scale=1.0, target=0, classifier=CLS)
    with pytest.raises(ValueError):
        guided_sample(UNCOND, cfg, g, SCHED, RngState(9))


def test_cfg_works_with_deterministic_ddim():
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=2)
    g = GuidanceConfig(mode="classifier-free", scale=2.0, target=0)
    a = final_states(guided_sample(COND, cfg, g, SCHED, RngState(10)))
    b = final_states(guided_sample(COND, cfg, g, SCHED, RngState(10)))
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_cfg_on_an_unconditional_model_fails_before_any_draw():
    rng = RngState(11)
    g = GuidanceConfig(mode="classifier-free", scale=1.0, target=1)
    with pytest.raises(ValueError, match="conditional model"):
        guided_sample(UNCOND, SamplerConfig(n_chains=5), g, SCHED, rng)
    assert rng.normal_draws == 0


@pytest.mark.parametrize("mode, m, target, match", [
    pytest.param("none", COND, 7, "target 7 out of range", id="none"),
    pytest.param("classifier-free", COND, 7, "target 7 out of range", id="classifier-free"),
    pytest.param("classifier", UNCOND, 7, "target 7 out of range", id="classifier"),
    # an unconditional model takes no target
    pytest.param("none", UNCOND, 1, "conditional model", id="none-unconditional"),
])
def test_target_outside_the_classes_fails_before_any_draw(mode, m, target, match):
    rng = RngState(11)
    g = GuidanceConfig(mode=mode, scale=1.0, target=target, classifier=CLS)
    with pytest.raises(ValueError, match=match):
        guided_sample(m, SamplerConfig(n_chains=5), g, SCHED, rng)
    assert rng.normal_draws == 0


def reference_classifier_guided_sample(m, c, cfg, y, s, sched, rng):
    """The classifier-guided loop as written before it ran on sample_reverse."""
    x = rng.standard_normal((cfg.n_chains, m.data_dim))
    recorded = [x.copy()]
    for t in range(sched.T, 0, -1):
        mu = mu_tilde_from_eps(x, m.predict(x, t, None, sched), t, sched)
        x = mu + s * sched.beta_tilde[t] * c.grad_x(mu, t, y, sched)
        if t > 1:
            x = x + np.sqrt(sched.beta_tilde[t]) * rng.standard_normal(x.shape)
        if cfg.record or t == 1:
            recorded.append(x.copy())
    return np.stack(recorded)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("n", [1, 7])
def test_classifier_guided_sample_matches_reference_loop(n, record):
    cfg = SamplerConfig(kind="ddpm", n_chains=n, record=record)
    g = GuidanceConfig(mode="classifier", scale=2.5, target=1, classifier=CLS)
    rng_a, rng_b = RngState(11), RngState(11)
    a = guided_sample(UNCOND, cfg, g, SCHED, rng_a)
    b = reference_classifier_guided_sample(UNCOND, CLS, cfg, 1, 2.5, SCHED, rng_b)
    assert a.shape == (SCHED.T + 1 if record else 2, n, 1)
    assert np.array_equal(a, b)
    assert rng_a.normal_draws == rng_b.normal_draws == n * SCHED.T
    unguided = sample_reverse(UNCOND, cfg, SCHED, rng=RngState(11))
    assert not np.array_equal(a[-1], unguided[-1])  # the shift is not a no-op here
