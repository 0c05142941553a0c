import copy
import tracemalloc
import types

import numpy as np
import pytest

from toydiff.forward import default_mixture
from toydiff.model import (Classifier, NoisePredictor, _layers, init_classifier,
                           init_noise_predictor)
from toydiff.rng import RngState
from toydiff.schedules import make_linear_schedule
from toydiff.training import TrainConfig, train

SCHED = make_linear_schedule(100, 1e-3, 0.2)


def param_count(data_dim, hidden, out_dim, cond=None):
    in_f = data_dim + 4 + (0 if cond is None else cond + 1)
    widths = (in_f,) + tuple(hidden) + (out_dim,)
    return sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))


def test_time_features_values():
    # columns 1-4 of a 1-D model's features are the time encoding of t
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(0))
    f = m._features(np.array([[0.5]]), 100, None, SCHED)[0][0, 1:5]
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
    # no hidden layers -> output is exactly feats @ W + b plus the baseline
    m = init_noise_predictor(1, hidden=(), rng=RngState(1))
    (W, b), = m._layers()
    x = np.array([[0.7], [-1.3]])
    feats, _ = m._features(x, 10, None, SCHED)
    lvl = np.sqrt(1 - SCHED.alpha_bar[10])
    assert np.array_equal(m.predict(x, 10, None, SCHED), feats @ W + b + lvl * x)


def test_zero_params_predict_zero():
    # the MLP predicts zero, so the predictor returns the bare baseline
    m = NoisePredictor(1, (4,), None, np.zeros(param_count(1, (4,), 1)))
    x = np.array([[1.0], [2.0]])
    feats, _ = m._features(x, 5, None, SCHED)
    assert np.array_equal(m._forward(feats)[0], np.zeros((2, 1)))
    assert np.array_equal(m.predict(x, 5, None, SCHED), np.sqrt(1 - SCHED.alpha_bar[5]) * x)


def test_skip_baseline_adds_noise_level_times_x():
    m = NoisePredictor(1, (4,), None, _random_params(param_count(1, (4,), 1), 4))
    x = np.array([[3.0], [-0.5]])
    lvl = np.sqrt(1 - SCHED.alpha_bar[40])
    mlp, _ = m._forward(m._features(x, 40, None, SCHED)[0])
    assert np.array_equal(m.predict(x, 40, None, SCHED), mlp + lvl * x)


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
    # not one label, nor one per row, nor integer labels
    for y in ([0, 1], [[0], [1], [1]], 0.7, float("nan"), [0.5, 1, 0]):
        with pytest.raises(ValueError):
            cond.predict(np.zeros((3, 1)), 5, y, SCHED)


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
        m2 = NoisePredictor(2, (5, 4), 2, p)
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
    for bad in ([0.5, 1, 0], [np.nan, 1, 0], [2, 1, 0]):  # labels: integers in [0, 2)
        with pytest.raises(ValueError):
            c.nll_and_grad(x[:3], t[:3], bad, SCHED)
    for bad in (0.5, np.nan, 2):
        with pytest.raises(ValueError):
            c.grad_x(x[0], 15, bad, SCHED)


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


def test_fractional_t_is_rejected_and_integral_float_t_accepted():
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(13))
    x = np.array([[0.5], [-0.5]])
    for bad in (3.7, [2, 2.5]):
        with pytest.raises(ValueError, match="integer-valued"):
            m.predict(x, bad, None, SCHED)
    assert np.array_equal(m.predict(x, 3.0, None, SCHED), m.predict(x, 3, None, SCHED))
    assert np.array_equal(m.predict(x, np.array([2.0, 3.0]), None, SCHED),
                          m.predict(x, np.array([2, 3]), None, SCHED))


# Reference passes that allocate a fresh array for every intermediate and
# concatenate the gradient; the in-place passes must match them bit for bit.
def _allocating_forward(net, feats):
    acts, a = [feats], feats
    layers = _layers(net.params, net.widths)
    for i, (W, b) in enumerate(layers):
        z = a @ W + b
        a = z if i == len(layers) - 1 else np.tanh(z)
        acts.append(a)
    return a, acts


def _allocating_backward(net, acts, d_out, param_grad=True):
    layers = _layers(net.params, net.widths)
    grads, delta = [None] * len(layers), d_out
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        delta = delta @ layers[i][0].T
        if i > 0:
            delta = delta * (1.0 - acts[i] ** 2)
    return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads]), delta


def _with_allocating_passes(net):
    ref = copy.copy(net)
    ref._forward = types.MethodType(_allocating_forward, ref)
    ref._backward = types.MethodType(_allocating_backward, ref)
    return ref


def _random_params(n_params, seed):
    # nonzero biases, so the in-place bias add is exercised
    return 0.3 * np.random.default_rng(seed).normal(size=n_params)


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("cond", [None, 2])
def test_lean_passes_bit_identical_to_allocating_passes(n, cond):
    rng = np.random.default_rng(n)
    m = NoisePredictor(2, (64, 64), cond, _random_params(param_count(2, (64, 64), 2, cond), 1))
    c = Classifier(2, (64, 64), 3, _random_params(param_count(2, (64, 64), 3), 2))
    x, eps = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    t = rng.integers(1, SCHED.T + 1, size=n)
    y = rng.integers(-1, cond, size=n) if cond else None
    labels = rng.integers(0, 3, size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    old_m, old_c = _with_allocating_passes(m), _with_allocating_passes(c)
    same = lambda a, b: a[0] == b[0] and np.array_equal(a[1], b[1])
    for tt in (t, 17):
        assert np.array_equal(m.predict(x, tt, y, SCHED), old_m.predict(x, tt, y, SCHED))
        for weights in (None, w):
            assert same(m.loss_and_grad(x, tt, y, eps, SCHED, weights),
                        old_m.loss_and_grad(x, tt, y, eps, SCHED, weights))
        assert np.array_equal(c.log_probs(x, tt, SCHED), old_c.log_probs(x, tt, SCHED))
        for k in range(3):
            assert np.array_equal(c.grad_x(x, tt, k, SCHED), old_c.grad_x(x, tt, k, SCHED))
        assert same(c.nll_and_grad(x, tt, labels, SCHED), old_c.nll_and_grad(x, tt, labels, SCHED))


def test_reassigning_params_changes_output():
    m = init_noise_predictor(1, hidden=(8,), rng=RngState(14))
    x = np.array([[0.4], [-1.1]])
    before = m.predict(x, 20, None, SCHED)
    other = _random_params(m.n_params, 3)
    twin = copy.copy(m)
    twin.params = other
    after = twin.predict(x, 20, None, SCHED)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, NoisePredictor(1, (8,), None, other)
                          .predict(x, 20, None, SCHED))
    assert np.array_equal(m.predict(x, 20, None, SCHED), before)
    m.params = other
    assert np.array_equal(m.predict(x, 20, None, SCHED), after)


def test_training_leaves_the_constructor_array_unchanged():
    p = init_noise_predictor(1, hidden=(8,), rng=RngState(15)).params
    saved = p.copy()
    m = NoisePredictor(1, (8,), None, p)
    train(m, default_mixture(), SCHED, TrainConfig(steps=5, batch_size=8), RngState(16))
    assert np.array_equal(p, saved)
    assert not np.array_equal(m.params, saved)


def _traced_peak(f):
    """Peak bytes traced by tracemalloc during one call of f."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_passes_allocate_only_the_activations_they_keep():
    n = 4096
    block = n * 64 * 8  # one (n, 64) float64 activation
    rng = np.random.default_rng(17)
    m = init_noise_predictor(1, hidden=(64, 64), conditioning=2, rng=RngState(17))
    c = init_classifier(1, 2, hidden=(64, 64), rng=RngState(18))
    x, eps = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
    t, y = rng.integers(1, SCHED.T + 1, size=n), rng.integers(0, 2, size=n)
    assert _traced_peak(lambda: m.predict(x, t, y, SCHED)) <= 2.5 * block
    assert _traced_peak(lambda: c.grad_x(x, t, 1, SCHED)) <= 4.5 * block
    assert _traced_peak(lambda: m.loss_and_grad(x, t, y, eps, SCHED)) <= 4.5 * block
