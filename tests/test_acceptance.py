"""End-to-end acceptance suite: one test per headline capability.

Each test prints a single PASS line when its assertions hold, so a
verbose run doubles as a capability report.
"""

import math

import numpy as np
import pytest
from oracles import PointMassOracle

from toydiff.estimators import reparam_grad
from toydiff.evaluation import mode_masses, wasserstein1_1d
from toydiff.forward import (default_mixture, forward_step, gmm_sample,
                             marginal_q, posterior_q)
from toydiff.gaussian import DiagGaussian, kl_closed_form, kl_mc, log_pdf, sample
from toydiff.guidance import GuidanceConfig, guided_sample
from toydiff.losses import (loss_eps_weighted, loss_x0_weighted,
                            mu_tilde_from_eps, vlb_estimate, x0_from_eps)
from toydiff.model import (Classifier, NoisePredictor, init_classifier,
                           init_noise_predictor)
from toydiff.rng import RngState
from toydiff.samplers import (SamplerConfig, ddim_sigma_ddpm_equiv, ddim_step,
                              ddpm_step, final_states, sample_reverse)
from toydiff.schedules import make_linear_schedule
from toydiff.training import TrainConfig, train, train_classifier

DESK = make_linear_schedule(100, 1e-3, 0.2)
DATA = default_mixture()


def report(name):
    print(f"PASS {name}")


@pytest.fixture(scope="module")
def trained_uncond():
    m = init_noise_predictor(1, hidden=(64, 64), rng=RngState(42).spawn(1))
    train(m, DATA, DESK, TrainConfig(steps=20000, batch_size=64, eta=1e-2),
          RngState(42).spawn(2))
    return m


@pytest.fixture(scope="module")
def trained_cond():
    m = init_noise_predictor(1, hidden=(64, 64), conditioning=2,
                             rng=RngState(42).spawn(3))
    train(m, DATA, DESK, TrainConfig(steps=20000, batch_size=64, eta=1e-2,
                                     p_drop=0.1), RngState(42).spawn(4))
    return m


@pytest.fixture(scope="module")
def trained_classifier():
    c = init_classifier(1, 2, hidden=(64, 64), rng=RngState(42).spawn(5))
    train_classifier(c, DATA, DESK, TrainConfig(steps=5000, batch_size=64,
                                                eta=1e-1), RngState(42).spawn(6))
    return c


def test_criterion_01_marginal_consistency():
    # chained forward simulation matches the closed-form marginal at every t
    s = make_linear_schedule(50, 1e-4, 0.02)
    n = 10**5
    rng = RngState(1)
    x = np.full((n, 1), 1.0)
    for t in range(1, 51):
        x = forward_step(x, t, s, rng)
        g = marginal_q([1.0], t, s)
        assert abs(x.mean() - g.mean[0]) <= 0.01 * abs(g.mean[0])
        if g.var[0] > 0:
            assert abs(x.var(ddof=1) - g.var[0]) <= 0.03 * g.var[0]
    report("criterion 1: chained forward marginals match closed form (T=50)")


def test_criterion_02_posterior_vs_quadrature_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        T = int(rng.integers(3, 25))
        s = make_linear_schedule(T, rng.uniform(0.02, 0.08),
                                 rng.uniform(0.1, 0.4))
        t = int(rng.integers(2, T + 1))
        x0 = float(rng.normal(scale=2.0))
        xt = float(rng.normal(scale=2.0))
        g = posterior_q([xt], [x0], t, s)
        # Bayes oracle: numerator on a grid, normalised by quadrature
        width = 10 * math.sqrt(s.beta_tilde[t]) + 1.0
        center = float(g.mean[0])
        grid = np.linspace(center - width, center + width, 40001)

        def lognorm(x, mu, var):
            return -0.5 * (np.log(2 * np.pi * var) + (x - mu) ** 2 / var)

        num = (lognorm(grid, math.sqrt(s.alpha_bar[t - 1]) * x0, 1 - s.alpha_bar[t - 1])
               + lognorm(xt, np.sqrt(s.alpha[t]) * grid, s.beta[t]))
        logz = math.log(np.trapezoid(np.exp(num - num.max()), grid)) + num.max()
        oracle_lp = num - logz
        idx = slice(10000, 30001)  # central region, well inside the grid
        ours = log_pdf(g, grid[idx][:, None])
        assert np.max(np.abs(ours - oracle_lp[idx])) < 1e-6
    report("criterion 2: posterior density matches grid-quadrature Bayes oracle")


def test_criterion_03_kl_closed_mc_quadrature():
    q = DiagGaussian([1.0], [1.0])
    p = DiagGaussian([0.0], [4.0])
    closed = kl_closed_form(q, p)
    assert abs(closed - 0.4431471805599453) < 1e-12
    x = np.linspace(-14, 14, 400001)[:, None]
    lq, lp = log_pdf(q, x), log_pdf(p, x)
    quad = np.trapezoid(np.exp(lq) * (lq - lp), x[:, 0])
    assert abs(closed - quad) < 1e-9
    M = 10**6
    xs = sample(q, RngState(3), size=M)
    vals = log_pdf(q, xs) - log_pdf(p, xs)
    se = vals.std(ddof=1) / math.sqrt(M)
    est = kl_mc(q, p, M, RngState(3))
    assert abs(est - closed) < 3 * se
    report("criterion 3: KL closed form agrees with quadrature and MC (0.443147)")


def test_criterion_04_algebraic_identities():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        T = int(rng.integers(2, 40))
        s = make_linear_schedule(T, rng.uniform(1e-4, 0.1),
                                 rng.uniform(0.1, 0.5))
        t = int(rng.integers(2, T + 1))
        x0, eps, eps_hat = (rng.normal(size=1) for _ in range(3))
        xt = np.sqrt(s.alpha_bar[t]) * x0 + np.sqrt(1 - s.alpha_bar[t]) * eps
        # eps-form posterior mean == x0-form posterior mean
        mu = mu_tilde_from_eps(xt, eps, t, s)
        assert np.allclose(mu, posterior_q(xt, x0, t, s).mean,
                           rtol=1e-12, atol=1e-12)
        # weighted losses agree under the x0 <-> eps substitution
        la = loss_x0_weighted(x0_from_eps(xt, eps_hat, t, s), x0, t, s)
        lb = loss_eps_weighted(eps_hat, eps, t, s)
        assert np.isclose(la, lb, rtol=1e-10, atol=1e-12)
        # DDPM-equivalent sigma squares to beta_tilde
        assert np.isclose(ddim_sigma_ddpm_equiv(t, s) ** 2, s.beta_tilde[t],
                          rtol=1e-12)
    report("criterion 4: substitution identities hold on 1000 random probes")


def test_criterion_05_ddim_ddpm_equivalence():
    oracle = PointMassOracle(np.array([0.8]))
    for t in (2, 25, 60, 100):
        xt = np.array([[1.1]])
        sig = ddim_sigma_ddpm_equiv(t, DESK)
        e = oracle.predict(xt, t, None, DESK)
        mean_ddpm = mu_tilde_from_eps(xt, e, t, DESK)
        ab, abp = DESK.alpha_bar[t], DESK.alpha_bar[t - 1]
        mean_ddim = ((xt - np.sqrt(1 - ab) * e) / np.sqrt(DESK.alpha[t])
                     + np.sqrt(1 - abp - sig ** 2) * e)
        assert np.allclose(mean_ddim, mean_ddpm, rtol=1e-12, atol=1e-12)
        n = 10**5
        xt_b = np.full((n, 1), 1.1)
        a = ddpm_step(oracle, xt_b, t, DESK, rng=RngState(50 + t))
        b = ddim_step(oracle, xt_b, t, sig, DESK, rng=RngState(90 + t))
        sd = math.sqrt(DESK.beta_tilde[t])
        assert abs(a.std(ddof=1) - sd) < 3 * sd / math.sqrt(2 * n)
        assert abs(b.std(ddof=1) - sd) < 3 * sd / math.sqrt(2 * n)
    report("criterion 5: DDIM with the DDPM-equivalent sigma matches DDPM")


def test_criterion_06_sigma_zero_determinism_and_draw_budget():
    m = init_noise_predictor(1, hidden=(8,), rng=RngState(6))
    cfg = SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=5)
    rng = RngState(7)
    a = final_states(sample_reverse(m, cfg, DESK, rng=rng))
    # exactly n_chains * d standard normals: the initial state, nothing else
    assert rng.normal_draws == 5 * m.data_dim
    b = final_states(sample_reverse(m, cfg, DESK, rng=RngState(7)))
    assert np.array_equal(a, b)
    report("criterion 6: sigma=0 runs are deterministic and draw exactly d normals per chain")


def test_criterion_07_gradient_checks_20_architectures():
    rng = np.random.default_rng(8)
    checked = 0
    for i in range(20):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(3, 9)) for _ in range(depth))
        n_batch = int(rng.integers(2, 6))
        x = rng.normal(size=(n_batch, d))
        t = rng.integers(1, DESK.T + 1, size=n_batch)
        h = 1e-4
        if i % 2 == 0:
            cond = None if rng.random() < 0.5 else int(rng.integers(2, 4))
            m = init_noise_predictor(d, hidden=hidden, conditioning=cond,
                                     rng=RngState(800 + i))
            y = None if cond is None else rng.integers(-1, cond, size=n_batch)
            eps = rng.normal(size=(n_batch, d))

            def f(p):
                return NoisePredictor(d, hidden, cond, p) \
                    .loss_and_grad(x, t, y, eps, DESK)[0]

            _, g = m.loss_and_grad(x, t, y, eps, DESK)
            p0 = m.params.copy()
        else:
            k = int(rng.integers(2, 5))
            c = init_classifier(d, k, hidden=hidden, rng=RngState(900 + i))
            labels = rng.integers(0, k, size=n_batch)

            def f(p):
                return Classifier(d, hidden, k, p).nll_and_grad(x, t, labels, DESK)[0]

            _, g = c.nll_and_grad(x, t, labels, DESK)
            p0 = c.params.copy()
        g_fd = np.empty_like(p0)
        for j in range(p0.size):
            pp, pm = p0.copy(), p0.copy()
            pp[j] += h
            pm[j] -= h
            g_fd[j] = (f(pp) - f(pm)) / (2 * h)
        assert np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12) < 1e-5
        checked += 1
    assert checked == 20
    report("criterion 7: analytic gradients match finite differences on 20 architectures")


def _quadrature_log_px0(m, x0, s):
    """Exact (quadrature) log-likelihood of the T=2 reverse model."""
    x2 = np.linspace(-9, 9, 1201)
    x1 = np.linspace(-9, 9, 3001)
    mu2 = mu_tilde_from_eps(x2, m.predict(x2[:, None], 2, None, s)[:, 0], 2, s)
    m1 = mu_tilde_from_eps(x1, m.predict(x1[:, None], 1, None, s)[:, 0], 1, s)

    def lognorm(x, mu, var):
        return -0.5 * (np.log(2 * np.pi * var) + (x - mu) ** 2 / var)

    inner = np.trapezoid(
        np.exp(lognorm(x1[None, :], mu2[:, None], s.beta_tilde[2])
               + lognorm(x0, m1, s.beta[1])[None, :]), x1, axis=1)
    return math.log(np.trapezoid(np.exp(lognorm(x2, 0.0, 1.0)) * inner, x2))


def test_criterion_08_vlb_bounds_nll():
    s2 = make_linear_schedule(2, 0.1, 0.2)
    m = init_noise_predictor(1, hidden=(8,), rng=RngState(9))
    rng = np.random.default_rng(10)
    for i in range(10):
        x0v = float(rng.uniform(-2.5, 2.5))
        rep = vlb_estimate(m, np.array([x0v]), s2, 200, RngState(100 + i))
        nll = -_quadrature_log_px0(m, x0v, s2)
        assert rep.total >= nll - 1e-3
    # prior-matching term is negligible for the canonical 1000-step schedule
    s1000 = make_linear_schedule(1000, 1e-4, 0.02)
    for x0v in (-3.0, -1.0, 0.5, 3.0):
        lt = kl_closed_form(marginal_q([x0v], 1000, s1000),
                            DiagGaussian([0.0], [1.0]))
        assert lt < 0.01
    report("criterion 8: VLB upper-bounds the exact NLL; L_T < 0.01 nats at T=1000")


def test_criterion_09_end_to_end_generation(trained_uncond):
    target, _ = gmm_sample(DATA, RngState(11), size=2000)
    for kind, policy in (("ddpm", "zero"), ("ddim", "zero")):
        cfg = SamplerConfig(kind=kind, sigma_policy=policy, n_chains=2000)
        out = final_states(sample_reverse(trained_uncond, cfg, DESK,
                                          rng=RngState(12)))
        masses = mode_masses(out, DATA)
        w1 = wasserstein1_1d(out, target)
        assert abs(masses[0] - 0.6) <= 0.08, (kind, masses)
        assert abs(masses[1] - 0.4) <= 0.08, (kind, masses)
        assert w1 <= 0.3, (kind, w1)
    report("criterion 9: trained sampler reproduces the mixture "
           "(masses within 0.08, W1 <= 0.3, DDPM and DDIM)")


def test_criterion_10_reparameterization_estimator():
    theta = (0.5, 1.5)
    g = reparam_grad(theta, 10**6, RngState(13))
    assert abs(g[0] - 0.5) <= 0.01 * 0.5
    assert abs(g[1] - 1.5) <= 0.01 * 1.5
    # empirical variance decays like 1/M: log-log slope -1 +- 0.1
    ms = [100, 1000, 10000, 100000]
    base = RngState(14)
    slopes = []
    for comp in (0, 1):
        variances = []
        for M in ms:
            reps = np.stack([reparam_grad(theta, M, base.spawn(31 * M + r))
                             for r in range(100)])
            variances.append(reps[:, comp].var(ddof=1))
        slopes.append(np.polyfit(np.log10(ms), np.log10(variances), 1)[0])
    assert all(abs(sl + 1.0) <= 0.1 for sl in slopes)
    report("criterion 10: reparameterised gradient hits theta within 1%, variance ~ 1/M")


def test_criterion_11_guidance_steers_both_modes(trained_cond, trained_uncond,
                                                 trained_classifier):
    scales = [0.0, 1.0, 2.0, 5.0]
    n = 2000

    def frac_target(samples):
        return float(mode_masses(samples, DATA)[1])  # label 1 <-> mode +2

    # classifier-free guidance
    cfg = SamplerConfig(kind="ddpm", n_chains=n)
    fr_cfg = []
    for s in scales:
        g = GuidanceConfig(mode="classifier-free", scale=s, target=1)
        out = final_states(guided_sample(trained_cond, cfg, g, DESK, RngState(15)))
        fr_cfg.append(frac_target(out))
    # classifier guidance
    fr_cls = []
    for s in scales:
        g = GuidanceConfig(mode="classifier", scale=s, target=1,
                           classifier=trained_classifier)
        out = final_states(guided_sample(trained_uncond, cfg, g, DESK, RngState(16)))
        fr_cls.append(frac_target(out))

    assert fr_cfg[-1] >= 0.9, fr_cfg
    assert fr_cls[-1] >= 0.9, fr_cls
    # monotone steering within binomial noise
    for fr in (fr_cfg, fr_cls):
        for a, b in zip(fr, fr[1:]):
            se = math.sqrt(max(a * (1 - a), b * (1 - b), 1e-4) / n)
            assert b >= a - 3 * se, fr

    # s = 0 reproduces unguided sampling bitwise under shared seeds
    small = SamplerConfig(kind="ddpm", n_chains=8)
    g0 = GuidanceConfig(mode="classifier-free", scale=0.0, target=1)
    a = final_states(guided_sample(trained_cond, small, g0, DESK, RngState(17)))
    b = final_states(sample_reverse(trained_cond, small, DESK, y=1, rng=RngState(17)))
    assert np.array_equal(a, b)
    gc = GuidanceConfig(mode="classifier", scale=0.0, target=1,
                        classifier=trained_classifier)
    a = final_states(guided_sample(trained_uncond, small, gc, DESK, RngState(18)))
    b = final_states(sample_reverse(trained_uncond, small, DESK, rng=RngState(18)))
    assert np.array_equal(a, b)
    report("criterion 11: both guidance modes steer >= 90% at s=5, "
           "monotone in s, bitwise-unguided at s=0")


def test_criterion_12_cli_reruns_byte_identical(tmp_path):
    from toydiff.cli import run_cli

    def run(argv):
        assert run_cli([str(a) for a in argv]) == 0

    ckpt = tmp_path / "m.ckpt"
    commands = {
        "train": ["train", "--seed", 21, "--desk", "--steps", 60,
                  "--hidden", "8", "--out", ckpt],
        "sample": ["sample", "--seed", 22, "--checkpoint", ckpt, "--n", 25,
                   "--out", tmp_path / "s.csv"],
        "sample-ddim": ["sample", "--seed", 22, "--checkpoint", ckpt,
                        "--sampler", "ddim", "--n", 25,
                        "--out", tmp_path / "sd.csv"],
        "forward": ["forward", "--seed", 23, "--desk", "--x0", "1.0",
                    "--n", 2, "--out", tmp_path / "f.csv"],
        "vlb": ["vlb", "--seed", 24, "--checkpoint", ckpt, "--x0", "0.5",
                "--M", 2, "--out", tmp_path / "v.csv"],
        "kl-demo": ["kl-demo", "--seed", 25, "--q", "1,1", "--p", "0,4",
                    "--M", 10000, "--out", tmp_path / "k.csv"],
        "reparam-demo": ["reparam-demo", "--seed", 26, "--theta", "0.5,1.5",
                         "--M", 10000, "--out", tmp_path / "r.csv"],
        "hist": ["hist", "--seed", 27, "--input", tmp_path / "f.csv",
                 "--bins", 10, "--out", tmp_path / "h.csv"],
    }
    outputs = {"train": ckpt, "sample": tmp_path / "s.csv",
               "sample-ddim": tmp_path / "sd.csv", "forward": tmp_path / "f.csv",
               "vlb": tmp_path / "v.csv", "kl-demo": tmp_path / "k.csv",
               "reparam-demo": tmp_path / "r.csv", "hist": tmp_path / "h.csv"}
    first = {}
    for name, argv in commands.items():
        run(argv)
        first[name] = outputs[name].read_bytes()
    for name, argv in commands.items():
        run(argv)
        assert outputs[name].read_bytes() == first[name], name
    report("criterion 12: every CLI subcommand is byte-identical on rerun")
