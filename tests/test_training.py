import numpy as np
import pytest

from toydiff.forward import default_mixture, gmm_sample
from toydiff.losses import eps_kl_weight
from toydiff.model import init_classifier, init_noise_predictor
from toydiff.rng import RngState
from toydiff.schedules import make_cosine_schedule, make_linear_schedule
from toydiff.training import TrainConfig, train, train_classifier

SCHED = make_linear_schedule(100, 1e-3, 0.2)
DATA = default_mixture()


def test_train_config_validation():
    for eta in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="eta must be finite and >= 0"):
            TrainConfig(eta=eta)
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(eta=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(eta=float("nan"))
    with pytest.raises(ValueError):
        TrainConfig(p_drop=1.5)
    for bad in ({"steps": 2.5}, {"batch_size": 2.5}, {"steps": 2.0}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_train_config_rejects_eval_interval_below_one():
    for bad in (0, -5, 2.5):
        with pytest.raises(ValueError):
            TrainConfig(eval_interval=bad)


def test_train_config_rejects_unknown_loss_variant():
    with pytest.raises(ValueError):
        TrainConfig(loss_variant="bogus")
    TrainConfig(loss_variant="weighted")


def test_zero_learning_rate_leaves_params_bitwise():
    m = init_noise_predictor(1, hidden=(8,), rng=RngState(0))
    before = m.params.copy()
    train(m, DATA, SCHED, TrainConfig(steps=20, eta=0.0), RngState(1))
    assert np.array_equal(m.params, before)


def test_single_step_matches_finite_difference_oracle():
    # [DERIVED] replay the exact batch, compute the batch-loss gradient by
    # central differences, and confirm the SGD update m.params -= eta * g
    eta = 1e-2
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(2))
    p0 = m.params.copy()

    def replay_batch():
        rng = RngState(3)
        x0, _ = gmm_sample(DATA, rng, size=8)
        t_arr = rng.integers(1, SCHED.T + 1, size=8)
        eps = rng.standard_normal(x0.shape)
        ab = SCHED.alpha_bar[t_arr][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        return x_t, t_arr, eps

    x_t, t_arr, eps = replay_batch()
    from toydiff.model import NoisePredictor

    def batch_loss(p):
        return NoisePredictor(1, (4,), None, p).loss_and_grad(
            x_t, t_arr, None, eps, SCHED)[0]

    h = 1e-6
    g_fd = np.empty_like(p0)
    for i in range(p0.size):
        pp, pm = p0.copy(), p0.copy()
        pp[i] += h
        pm[i] -= h
        g_fd[i] = (batch_loss(pp) - batch_loss(pm)) / (2 * h)

    train(m, DATA, SCHED, TrainConfig(steps=1, batch_size=8, eta=eta), RngState(3))
    assert np.allclose(m.params, p0 - eta * g_fd, rtol=1e-6, atol=1e-9)


def test_training_is_deterministic():
    reports, params = [], []
    for _ in range(2):
        m = init_noise_predictor(1, hidden=(8,), rng=RngState(4))
        rep = train(m, DATA, SCHED, TrainConfig(steps=200), RngState(5))
        reports.append(rep)
        params.append(m.params.copy())
    assert np.array_equal(params[0], params[1])
    assert reports[0] == reports[1]


def test_zero_steps_report_an_empty_loss_curve():
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(4))
    assert train(m, DATA, SCHED, TrainConfig(steps=0), RngState(5)).loss_curve == []


def test_loss_curve_trends_down():
    m = init_noise_predictor(1, hidden=(16, 16), rng=RngState(6))
    rep = train(m, DATA, SCHED, TrainConfig(steps=2000, eval_interval=100), RngState(7))
    vals = [v for _, v in rep.loss_curve]
    # windowed means mostly nonincreasing: allow a few noise-driven bumps
    violations = sum(1 for a, b in zip(vals, vals[1:]) if b > a + 0.05)
    assert violations <= 3
    assert vals[-1] < vals[0] - 0.05


def test_conditional_p_drop_one_ignores_labels():
    # with every label dropped, a conditional model trains on the null slot
    # only, so the result cannot depend on the label column of the data
    relabeled = default_mixture()
    object.__setattr__(relabeled, "labels", np.array([1, 0]))
    res = []
    for data in (DATA, relabeled):
        m = init_noise_predictor(1, hidden=(6,), conditioning=2, rng=RngState(8))
        train(m, data, SCHED, TrainConfig(steps=50, p_drop=1.0), RngState(9))
        res.append(m.params.copy())
    assert np.array_equal(res[0], res[1])


def test_conditional_requires_labels():
    unlabeled = default_mixture()
    object.__setattr__(unlabeled, "labels", None)
    m = init_noise_predictor(1, hidden=(4,), conditioning=2, rng=RngState(10))
    with pytest.raises(ValueError):
        train(m, unlabeled, SCHED, TrainConfig(steps=1), RngState(0))
    c = init_classifier(1, 2, hidden=(4,), rng=RngState(10))
    with pytest.raises(ValueError):
        train_classifier(c, unlabeled, SCHED, TrainConfig(steps=1), RngState(0))


def test_uniform_t_draws():
    # the training loop draws t via rng.integers(1, T+1); check that draw
    # path is uniform over buckets to 3 SE
    rng = RngState(11)
    n, T = 10**5, 10
    t = rng.integers(1, T + 1, size=n)
    counts = np.bincount(t, minlength=T + 1)[1:]
    se = np.sqrt(n * (1 / T) * (1 - 1 / T))
    assert np.all(np.abs(counts - n / T) < 3.5 * se)


def test_weighted_variant_runs_and_differs():
    ms = []
    for variant in ("simple", "weighted"):
        m = init_noise_predictor(1, hidden=(6,), rng=RngState(12))
        train(m, DATA, SCHED, TrainConfig(steps=50, loss_variant=variant), RngState(13))
        ms.append(m.params.copy())
    assert not np.array_equal(ms[0], ms[1])


def test_classifier_training_reaches_high_accuracy_at_low_noise():
    c = init_classifier(1, 2, hidden=(16,), rng=RngState(14))
    train_classifier(c, DATA, SCHED, TrainConfig(steps=3000, eta=1e-1), RngState(15))
    xs, ys = gmm_sample(DATA, RngState(16), size=2000)
    lp = c.log_probs(np.sqrt(SCHED.alpha_bar[1]) * xs, 1, SCHED)
    acc = np.mean(np.argmax(lp, axis=1) == ys)
    assert acc > 0.95


def test_divergence_raises_floating_point_error():
    # train needs no errstate of the caller: no RuntimeWarning escapes (tier-1 makes one an
    # error), and the loss check reports the divergence
    m = init_noise_predictor(1, hidden=(8,), rng=RngState(17))
    with pytest.raises(FloatingPointError, match="nonfinite loss at step"):
        train(m, DATA, SCHED, TrainConfig(steps=2000, eta=50.0), RngState(18))


def reference_weighted_train(m, data, sched, cfg, rng):
    """The weighted-loss loop as written before loss_and_grad took weights:
    a second forward pass for the residual and a backward pass of the
    scaled residual through a third one."""
    conditional = m.conditioning is not None
    curve, acc = [], []
    for step in range(1, cfg.steps + 1):
        x0, labels = gmm_sample(data, rng, size=cfg.batch_size)
        t_arr = rng.integers(1, sched.T + 1, size=cfg.batch_size)
        eps = rng.standard_normal(x0.shape)
        ab = sched.alpha_bar[t_arr][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        y = None
        if conditional:
            y = labels.copy()
            y[rng.uniform(size=cfg.batch_size) < cfg.p_drop] = -1
        t_safe = np.maximum(t_arr, 2)
        bt, a, ab_t = sched.beta_tilde[t_safe], sched.alpha[t_safe], sched.alpha_bar[t_safe]
        w = (1.0 - a) ** 2 / (2.0 * bt * a * (1.0 - ab_t))
        resid = m.predict(x_t, t_arr, y, sched) - eps
        loss = float(np.mean(w * np.sum(resid ** 2, axis=1)))
        feats, _ = m._features(x_t, t_arr, y, sched)
        _, acts = m._forward(feats)
        grad = m._backward(acts, 2.0 * w[:, None] * resid / resid.shape[0])[0]
        m.params = m.params - cfg.eta * grad
        acc.append(loss)
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            curve.append((step, float(np.mean(acc))))
            acc = []
    return curve


@pytest.mark.parametrize("conditioning", [None, 2])
def test_weighted_train_matches_reference_loop(conditioning):
    cfg = TrainConfig(steps=20, batch_size=16, eval_interval=3, loss_variant="weighted")
    m = init_noise_predictor(1, hidden=(8, 8), conditioning=conditioning, rng=RngState(19))
    ref = init_noise_predictor(1, hidden=(8, 8), conditioning=conditioning, rng=RngState(19))
    rng, ref_rng = RngState(20), RngState(20)
    report = train(m, DATA, SCHED, cfg, rng)
    ref_curve = reference_weighted_train(ref, DATA, SCHED, cfg, ref_rng)
    assert np.array_equal(m.params, ref.params)
    assert report.loss_curve == ref_curve
    assert rng.normal_draws == ref_rng.normal_draws


@pytest.mark.parametrize("sched", [SCHED, make_cosine_schedule(1000)], ids=["desk", "cosine"])
def test_weighted_train_reads_the_scalar_weight_of_every_t(sched):
    # every t that train draws gets eps_kl_weight(max(t, 2)) of its own, bit for bit
    m = init_noise_predictor(1, hidden=(4,), rng=RngState(24))
    seen, loss_and_grad = {}, m.loss_and_grad

    def recording(x_t, t, y, eps, sched, weights=None):
        for ti, wi in zip(t.tolist(), weights.tolist()):
            assert seen.setdefault(ti, wi) == wi
        return loss_and_grad(x_t, t, y, eps, sched, weights)

    m.loss_and_grad = recording
    cfg = TrainConfig(steps=12, batch_size=1000, eta=0.0, loss_variant="weighted")
    train(m, DATA, sched, cfg, RngState(25))
    assert sorted(seen) == list(range(1, sched.T + 1))  # every row of the table was read
    for t, w in seen.items():
        assert w == eps_kl_weight(max(t, 2), sched)


def test_loss_and_grad_unit_weights_are_bitwise_unweighted():
    m = init_noise_predictor(1, hidden=(8,), conditioning=2, rng=RngState(21))
    x, _ = gmm_sample(DATA, RngState(22), size=9)
    t = np.arange(1, 10)
    eps = RngState(23).standard_normal((9, 1))
    y = np.array([0, 1, -1, 0, 1, -1, 0, 1, -1])
    plain = m.loss_and_grad(x, t, y, eps, SCHED)
    ones = m.loss_and_grad(x, t, y, eps, SCHED, weights=np.ones(9))
    assert plain[0] == ones[0] and np.array_equal(plain[1], ones[1])
    with pytest.raises(ValueError):
        m.loss_and_grad(x, t, y, eps, SCHED, weights=np.ones(8))
