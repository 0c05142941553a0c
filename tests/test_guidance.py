import numpy as np
import pytest
from oracles import GaussianOracle, GaussianTiltClassifier

from toydiff.guidance import GuidanceConfig, cfg_eps, guided_sample
from toydiff.losses import mu_tilde_from_eps
from toydiff.model import init_classifier, init_noise_predictor
from toydiff.rng import RngState
from toydiff.samplers import SamplerConfig, final_states, sample_reverse
from toydiff.schedules import make_cosine_schedule, make_linear_schedule

SCHED = make_linear_schedule(100, 1e-3, 0.2)
UNCOND = init_noise_predictor(1, hidden=(8,), rng=RngState(0))
COND = init_noise_predictor(1, hidden=(8,), conditioning=2, rng=RngState(0))
CLS = init_classifier(1, 2, hidden=(8,), rng=RngState(1))
SAMPLERS = {"ddpm": dict(kind="ddpm"), "ddim0": dict(kind="ddim", sigma_policy="zero"),
            "ddimd": dict(kind="ddim", sigma_policy="ddpm")}


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
    # the classifier-gradient scale is checked once, when the config is built
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale must be finite and >= 0"):
            GuidanceConfig(mode="classifier", scale=bad, target=1, classifier=CLS)


def test_scale_zero_matches_unguided_step_bitwise():
    g = GuidanceConfig(mode="classifier", scale=0.0, target=1, classifier=CLS)
    for kw in SAMPLERS.values():  # every state of every sampler
        cfg = SamplerConfig(n_chains=2, record=True, **kw)
        a = guided_sample(UNCOND, cfg, g, SCHED, RngState(2))
        b = sample_reverse(UNCOND, cfg, SCHED, rng=RngState(2))
        assert np.array_equal(a, b)


def test_constant_logit_classifier_has_no_effect():
    # zero-parameter classifier: log p is constant in x, so grad_x = 0
    from toydiff.model import Classifier
    n_params = 5 * 4 + 4 + 4 * 2 + 2  # widths (1+4, 4, 2)
    n = Classifier(1, (4,), 2, np.zeros(n_params))
    g = GuidanceConfig(mode="classifier", scale=5.0, target=0, classifier=n)
    for kw in SAMPLERS.values():
        cfg = SamplerConfig(n_chains=3, record=True, **kw)
        a = guided_sample(UNCOND, cfg, g, SCHED, RngState(3))
        b = sample_reverse(UNCOND, cfg, SCHED, rng=RngState(3))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("sched", [SCHED, make_cosine_schedule(100)], ids=["linear", "cosine"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_classifier_guidance_of_a_gaussian_is_the_tilted_gaussian(sampler, sched):
    # [DERIVED] data N(m, v) tilted by exp(s w x0) is N(m + s v w, v), and the eps form
    # eps - s sqrt(1 - abar_t) grad_x log p(y | x_t) of the exact predictor and the exact
    # noisy classifier is the exact predictor of that tilted data: same chain, same draws
    m, v, w = 1.5, 0.25, 0.8
    cfg = SamplerConfig(n_chains=50, record=True, **SAMPLERS[sampler])
    for s in (0.0, 1.0, 3.0):
        g = GuidanceConfig(mode="classifier", scale=s, target=1,
                           classifier=GaussianTiltClassifier(v, w))
        a = guided_sample(GaussianOracle(m, v), cfg, g, sched, RngState(4))
        b = sample_reverse(GaussianOracle(m + s * v * w, v), cfg, sched, rng=RngState(4))
        assert np.max(np.abs(a - b)) < 1e-12, s


def test_guided_step_is_unguided_plus_shift_exactly():
    # covariance untouched: with shared draws, the first DDPM step of the guided chain
    # is the unguided one plus s (beta_T / sqrt(alpha_T)) grad_x log p(y | x_T)
    s, T = 3.0, SCHED.T
    cfg = SamplerConfig(kind="ddpm", n_chains=2, record=True)
    g = GuidanceConfig(mode="classifier", scale=s, target=1, classifier=CLS)
    a = guided_sample(UNCOND, cfg, g, SCHED, RngState(5))
    b = sample_reverse(UNCOND, cfg, SCHED, rng=RngState(5))
    assert np.array_equal(a[0], b[0])
    shift = s * SCHED.beta[T] / np.sqrt(SCHED.alpha[T]) * CLS.grad_x(a[0], T, 1, SCHED)
    assert np.allclose(a[1] - b[1], shift, rtol=1e-12, atol=1e-15)


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


def test_classifier_guidance_works_with_deterministic_ddim():
    n = 4
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=n)
    g = GuidanceConfig(mode="classifier", scale=1.0, target=0, classifier=CLS)
    rng_a, rng_b = RngState(9), RngState(9)
    a = guided_sample(UNCOND, cfg, g, SCHED, rng_a)
    b = guided_sample(UNCOND, cfg, g, SCHED, rng_b)
    assert a.tobytes() == b.tobytes()
    assert rng_a.normal_draws == rng_b.normal_draws == n * UNCOND.data_dim  # x_T only
    assert np.all(np.isfinite(a))
    assert not np.array_equal(a[-1], sample_reverse(UNCOND, cfg, SCHED, rng=RngState(9))[-1])


def test_cfg_works_with_deterministic_ddim():
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=2)
    g = GuidanceConfig(mode="classifier-free", scale=2.0, target=0)
    a = final_states(guided_sample(COND, cfg, g, SCHED, RngState(10)))
    b = final_states(guided_sample(COND, cfg, g, SCHED, RngState(10)))
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


@pytest.mark.parametrize("mode, m", [("classifier-free", COND), ("classifier", UNCOND)])
def test_guided_ddim_with_the_ddpm_sigma_returns_the_ddpm_bytes(mode, m):
    g = GuidanceConfig(mode=mode, scale=1.5, target=1, classifier=CLS)
    for n in (1, 7):
        for record in (False, True):
            runs = []
            for kw in (SAMPLERS["ddpm"], SAMPLERS["ddimd"]):
                rng = RngState(12 + n, int(record))
                states = guided_sample(m, SamplerConfig(n_chains=n, record=record, **kw),
                                       g, SCHED, rng)
                runs.append((states.shape, states.tobytes(), rng.normal_draws))
            assert runs[0] == runs[1]


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
    """The classifier-guided DDPM loop written out, in the eps form."""
    x = rng.standard_normal((cfg.n_chains, m.data_dim))
    recorded = [x.copy()]
    for t in range(sched.T, 0, -1):
        grad = c.grad_x(x, t, y, sched)
        eps = m.predict(x, t, None, sched) - s * np.sqrt(1.0 - sched.alpha_bar[t]) * grad
        x = mu_tilde_from_eps(x, eps, t, sched)
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
    assert not np.array_equal(a[-1], unguided[-1])  # guidance is not a no-op here
