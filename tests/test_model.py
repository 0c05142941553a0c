import numpy as np
import pytest

from toydiff.model import (Classifier, NoisePredictor, init_classifier,
                           init_noise_predictor, time_features)
from toydiff.rng import RngState
from toydiff.schedules import make_linear_schedule

SCHED = make_linear_schedule(100, 1e-3, 0.2)


def param_count(data_dim, hidden, out_dim, cond=None):
    in_f = data_dim + 4 + (0 if cond is None else cond + 1)
    widths = (in_f,) + tuple(hidden) + (out_dim,)
    return sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))


def test_time_features_values():
    f = time_features(100, SCHED)
    assert np.isclose(f[0], 1.0)
    assert np.isclose(f[1], 0.0, atol=1e-12)
    assert np.isclose(f[2], 1.0)
    assert np.isclose(f[3], np.sqrt(1 - SCHED.alpha_bar[100]), rtol=1e-12)


def test_init_param_count_matches_formula():
    for d, h, cond in [(1, (64, 64), None), (2, (8,), None), (1, (), 2), (3, (5, 7), 4)]:
        m = init_noise_predictor(d, hidden=h, conditioning=cond, rng=RngState(0))
        assert m.n_params == param_count(d, h, d, cond)
        assert m.params.shape == (m.n_params,)


def test_init_is_deterministic_given_seed():
    a = init_noise_predictor(1, hidden=(8, 8), rng=RngState(42))
    b = init_noise_predictor(1, hidden=(8, 8), rng=RngState(42))
    assert np.array_equal(a.params, b.params)
    c = init_noise_predictor(1, hidden=(8, 8), rng=RngState(43))
    assert not np.array_equal(a.params, c.params)


def test_zero_hidden_is_affine():
    # no hidden layers -> output is exactly feats @ W + b
    m = init_noise_predictor(1, hidden=(), rng=RngState(1), skip=False)
    (W, b), = m._layers()
    x = np.array([[0.7], [-1.3]])
    feats, _ = m._features(x, 10, None, SCHED)
    assert np.array_equal(m.predict(x, 10, None, SCHED), feats @ W + b)


def test_zero_params_predict_zero():
    m = NoisePredictor(1, (4,), None, np.zeros(param_count(1, (4,), 1)), skip=False)
    out = m.predict(np.array([[1.0], [2.0]]), 5, None, SCHED)
    assert np.array_equal(out, np.zeros((2, 1)))


def test_skip_baseline_adds_noise_level_times_x():
    p = np.zeros(param_count(1, (4,), 1))
    m0 = NoisePredictor(1, (4,), None, p, skip=False)
    m1 = NoisePredictor(1, (4,), None, p, skip=True)
    x = np.array([[3.0]])
    lvl = np.sqrt(1 - SCHED.alpha_bar[40])
    assert np.array_equal(m1.predict(x, 40, None, SCHED),
                          m0.predict(x, 40, None, SCHED) + lvl * x)


@pytest.mark.parametrize("cond", [None, 2])
@pytest.mark.parametrize("n", [1, 7, 10000])
def test_scalar_t_features_equal_array_t_rows(cond, n):
    m = init_noise_predictor(1, hidden=(4,), conditioning=cond, rng=RngState(6))
    x = np.random.default_rng(n).normal(size=(n, 1))
    for t in (1, 2, 37, 99, 100):
        scalar, _ = m._features(x, t, None, SCHED)
        array, _ = m._features(x, np.full(n, t), None, SCHED)
        listed, _ = m._features(x, [t] * n, None, SCHED)
        assert np.array_equal(scalar, array) and np.array_equal(scalar, listed)
    for bad in (0, SCHED.T + 1):
        for t in (bad, np.full(n, bad), [1] * (n - 1) + [bad]):
            with pytest.raises(ValueError):
                m._features(x, t, None, SCHED)


def test_predict_deterministic_and_shaped():
    m = init_noise_predictor(2, hidden=(6,), rng=RngState(2))
    x = np.random.default_rng(0).normal(size=(5, 2))
    out1 = m.predict(x, 7, None, SCHED)
    out2 = m.predict(x, 7, None, SCHED)
    assert out1.shape == (5, 2)
    assert np.array_equal(out1, out2)
    single = m.predict(x[0], 7, None, SCHED)
    assert single.shape == (2,)
    assert np.array_equal(single, out1[0])


def test_conditional_null_label_slot():
    m = init_noise_predictor(1, hidden=(6,), conditioning=2, rng=RngState(3))
    x = np.array([[0.5]])
    out_null = m.predict(x, 10, None, SCHED)
    out_neg1 = m.predict(x, 10, -1, SCHED)
    assert np.array_equal(out_null, out_neg1)
    assert not np.array_equal(out_null, m.predict(x, 10, 0, SCHED))
    assert not np.array_equal(m.predict(x, 10, 0, SCHED), m.predict(x, 10, 1, SCHED))


def test_mode_mixing_guards():
    uncond = init_noise_predictor(1, hidden=(4,), rng=RngState(4))
    with pytest.raises(ValueError):
        uncond.predict(np.array([[0.0]]), 5, 0, SCHED)
    cond = init_noise_predictor(1, hidden=(4,), conditioning=2, rng=RngState(4))
    with pytest.raises(ValueError):
        cond.predict(np.array([[0.0]]), 5, 2, SCHED)


def test_loss_zero_when_target_equals_prediction():
    m = init_noise_predictor(1, hidden=(5,), rng=RngState(5))
    x = np.array([[0.3], [-0.8]])
    eps = m.predict(x, 12, None, SCHED)
    loss, grad = m.loss_and_grad(x, 12, None, eps, SCHED)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(grad))


def test_loss_batch_duplication_invariance():
    m = init_noise_predictor(1, hidden=(5,), rng=RngState(6))
    x = np.array([[0.3]])
    eps = np.array([[1.1]])
    l1, g1 = m.loss_and_grad(x, 9, None, eps, SCHED)
    l2, g2 = m.loss_and_grad(np.vstack([x, x]), 9, None, np.vstack([eps, eps]), SCHED)
    assert np.isclose(l1, l2, rtol=1e-15)
    assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)


def fd_grad(f, p, h=1e-5):
    g = np.empty_like(p)
    for i in range(p.size):
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        g[i] = (f(pp) - f(pm)) / (2 * h)
    return g


def test_noise_predictor_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    m = init_noise_predictor(2, hidden=(5, 4), conditioning=2, rng=RngState(7))
    x = rng.normal(size=(6, 2))
    eps = rng.normal(size=(6, 2))
    t = rng.integers(1, 101, size=6)
    y = rng.integers(-1, 2, size=6)

    def f(p):
        m2 = NoisePredictor(2, (5, 4), 2, p, skip=True)
        return m2.loss_and_grad(x, t, y, eps, SCHED)[0]

    _, g = m.loss_and_grad(x, t, y, eps, SCHED)
    g_fd = fd_grad(f, m.params.copy())
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-6


def test_classifier_uniform_at_zero_params():
    c = Classifier(1, (4,), 3, np.zeros(param_count(1, (4,), 3)))
    lp = c.log_probs(np.array([[0.5]]), 5, SCHED)
    assert np.allclose(lp, np.log(1.0 / 3.0), rtol=1e-12)


def test_classifier_log_probs_normalize():
    c = init_classifier(2, 3, hidden=(6,), rng=RngState(8))
    x = np.random.default_rng(1).normal(size=(10, 2))
    lp = c.log_probs(x, 20, SCHED)
    assert np.allclose(np.sum(np.exp(lp), axis=1), 1.0, rtol=1e-12)


def test_classifier_grad_x_matches_finite_differences():
    c = init_classifier(2, 3, hidden=(6, 5), rng=RngState(9))
    x = np.array([0.4, -1.2])
    g = c.grad_x(x, 15, 1, SCHED)
    h = 1e-6
    g_fd = np.empty(2)
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g_fd[i] = (c.log_probs(xp, 15, SCHED)[1] - c.log_probs(xm, 15, SCHED)[1]) / (2 * h)
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-6


def test_classifier_score_identity():
    # sum_y p(y|x) grad_x log p(y|x) = 0 (softmax score identity)
    c = init_classifier(1, 4, hidden=(7,), rng=RngState(10))
    x = np.array([0.9])
    p = np.exp(c.log_probs(x, 30, SCHED))
    total = sum(p[y] * c.grad_x(x, 30, y, SCHED) for y in range(4))
    assert np.max(np.abs(total)) < 1e-12


def test_classifier_nll_gradient_matches_finite_differences():
    c = init_classifier(1, 2, hidden=(5,), rng=RngState(11))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 1))
    y = rng.integers(0, 2, size=8)
    t = rng.integers(1, 101, size=8)

    def f(p):
        c2 = Classifier(1, (5,), 2, p)
        return c2.nll_and_grad(x, t, y, SCHED)[0]

    _, g = c.nll_and_grad(x, t, y, SCHED)
    g_fd = fd_grad(f, c.params.copy())
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-6


def test_no_nan_for_large_inputs():
    m = init_noise_predictor(1, hidden=(16,), rng=RngState(12))
    c = init_classifier(1, 2, hidden=(16,), rng=RngState(12))
    for v in (-100.0, -7.0, 0.0, 7.0, 100.0):
        x = np.array([[v]])
        assert np.all(np.isfinite(m.predict(x, 50, None, SCHED)))
        assert np.all(np.isfinite(c.log_probs(x, 50, SCHED)))


def test_rejects_wrong_param_length_and_nonfinite():
    with pytest.raises(ValueError):
        NoisePredictor(1, (4,), None, np.zeros(3))
    bad = np.zeros(param_count(1, (4,), 1))
    bad[0] = np.nan
    with pytest.raises(ValueError):
        NoisePredictor(1, (4,), None, bad)
