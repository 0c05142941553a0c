"""Golden digests of library outputs.

The CLI digests in test_cli_golden.py cover what the commands write; this
file pins what the library returns below them: trained parameters and
loss curves of every training variant, reverse sampling of every sampler
kind at one and several chains with the record flag on and off, the three
guidance modes with their normal-draw counts (classifier guidance on DDPM
and on DDIM with sigma = 0), the VLB terms, the network
heads and the mixture log density.  Each value is the SHA-256 of the
float64 bytes and shapes of its arrays, so a refactor must keep every bit.
The digests pin numpy 2.4 on x86-64 with OpenBLAS's GOLDEN_KERNEL; another
kernel may move last digits, and a failure names both kernels.
"""

import functools
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import blas_core, ddim_mean, ddim_sigma_product

from toydiff import forward, guidance, losses, samplers, training
from toydiff.model import init_classifier, init_noise_predictor
from toydiff.rng import RngState
from toydiff.schedules import make_cosine_schedule, make_linear_schedule

SCHED = make_linear_schedule(50, 1e-3, 0.2)
DATA = forward.default_mixture()
HIDDEN = (16, 16)

GOLDEN_KERNEL = "SkylakeX"  # the OpenBLAS kernel (oracles.blas_core) the digests were made on
GOLDEN = {
    "train/simple": "e70d3f1b158d185cbe725ae579cbf68f01aa73224156d7fcd64fa9cd13f989e8",
    "train/weighted": "cd4ff85845437a5b18b9d92018988a260314695b30d5f96bce69770631a30d1d",
    "train/conditional": "57230271d228bd71bed685e188aa1fc7a3af7bf59188e46a620124eef882a040",
    "train/classifier": "ae42ab931db16c0ba2aebdf64ebc720a86c1fc3fea4a931b47e38fb317284093",
    "sample/ddpm/n1/record0": "315adf40952ba93bdad78c823582d1d653e1e20c3641fafa3ff8d83529abe15a",
    "sample/ddpm/n1/record1": "dd5d19ff6fecddbc5e364c71741f5f083d61876857e9b0d2e204780c0df9ff3a",
    "sample/ddpm/n7/record0": "30c226d654ce1a70794d189ed26dbb847c8dc99d82b692cb001273b81782e174",
    "sample/ddpm/n7/record1": "1ef933def8d85374ab7d9bc9c1f10dcad48b48a3d729442b8b86d96b9c2b9890",
    "sample/ddim0/n1/record0": "4905235151e53ea9fa23e9f2eb603f6e19c2ba0af50bf6bf4f20c1848058cd74",
    "sample/ddim0/n1/record1": "8abbfae0a4e8940f6de098abce3bf3968f84c6a188a38a5fe66ca95e4644a63c",
    "sample/ddim0/n7/record0": "a70b40bb0590fc8fa83c812e2b74fc81467c9df31ff7e68008bf08545a6514ac",
    "sample/ddim0/n7/record1": "1f427ce8bd3750e570b1c211d4cd646a21ae7b3f8ef596441368c7b92fc982c6",
    "sample/ddimd/n1/record0": "315adf40952ba93bdad78c823582d1d653e1e20c3641fafa3ff8d83529abe15a",
    "sample/ddimd/n1/record1": "dd5d19ff6fecddbc5e364c71741f5f083d61876857e9b0d2e204780c0df9ff3a",
    "sample/ddimd/n7/record0": "30c226d654ce1a70794d189ed26dbb847c8dc99d82b692cb001273b81782e174",
    "sample/ddimd/n7/record1": "1ef933def8d85374ab7d9bc9c1f10dcad48b48a3d729442b8b86d96b9c2b9890",
    "guidance/none": "42653c9d4431b1724a760da3e97b35dd98a2590d67687c84c8e7f3726ed4c80d",
    "guidance/classifier-free": "e0c39a3bebe005c24dcdcb2c32f27558c43fc45420bc40f8ef385e1e16659992",
    "guidance/classifier": "e0382d4376b297efe9cff64d652dcb3759ac4b28908686692049ad4e55280792",
    "guidance/classifier/ddim0": "5930251b6d8b827d44a56e56d15af13ee38530c58e9fcbe4fd3fc771325819a9",
    "vlb": "ec06a3f6f21be0e9e4193a2581bbaaba3fc3a42946c8c4d63ce4193efa624312",
    "predict": "bfe29550b9f5cef1bb279fc804ef027a850a93798e8f3ce183ee6a10ebbee154",
    "classifier": "cf750ef72e78977bf02c60b4531203d62ffa8321e73933ef6720164a99da7f64",
    "gmm_log_pdf": "9534da2d09da82565a477e1e177d548e05198d766ddb707a6abc5e4df36fc573",
    "sample_xt": "1d7a1158e6c3f7cc8a809427d9f9cd123f1943371b8a94c479dcd00fcf845dde",
}


def _sha(*values):
    h = hashlib.sha256()
    for v in values:
        a = np.ascontiguousarray(v, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@functools.cache
def _trained(variant, seed):
    cfg = training.TrainConfig(steps=150, batch_size=32, eta=0.05, eval_interval=30,
                               loss_variant="weighted" if variant == "weighted" else "simple")
    if variant == "classifier":
        net = init_classifier(1, 2, HIDDEN, rng=RngState(seed, 1))
        rep = training.train_classifier(net, DATA, SCHED, cfg, RngState(seed, 2))
    else:
        cond = 2 if variant == "conditional" else None
        net = init_noise_predictor(1, HIDDEN, cond, rng=RngState(seed, 1))
        rep = training.train(net, DATA, SCHED, cfg, RngState(seed, 2))
    return net, rep


def _outputs():
    """Every golden value by name: a tuple of its arrays, floats and normal-draw counts."""
    out, nets = {}, {}
    for seed, variant in enumerate(("simple", "weighted", "conditional", "classifier")):
        net, rep = _trained(variant, seed)
        nets[variant] = net
        out[f"train/{variant}"] = (net.params, rep.loss_curve, float(np.sum(net.params)))
    m, cond, cls = nets["simple"], nets["conditional"], nets["classifier"]

    configs = {"ddpm": dict(kind="ddpm"), "ddim0": dict(kind="ddim", sigma_policy="zero"),
               "ddimd": dict(kind="ddim", sigma_policy="ddpm")}
    for name, kw in configs.items():
        for n in (1, 7):
            for record in (False, True):
                rng = RngState(10 + n, int(record))
                cfg = samplers.SamplerConfig(n_chains=n, record=record, **kw)
                states = samplers.sample_reverse(m, cfg, SCHED, rng=rng)
                out[f"sample/{name}/n{n}/record{int(record)}"] = (states, rng.normal_draws)

    ddpm = samplers.SamplerConfig(n_chains=7)
    modes = {"none": dict(mode="none", target=1),
             "classifier-free": dict(mode="classifier-free", scale=2.0, target=0),
             "classifier": dict(mode="classifier", scale=1.5, target=1, classifier=cls)}
    for name, kw in modes.items():
        rng = RngState(20)
        net = m if name == "classifier" else cond
        states = guidance.guided_sample(net, ddpm, guidance.GuidanceConfig(**kw), SCHED, rng)
        out[f"guidance/{name}"] = (states, rng.normal_draws)
    rng = RngState(20)
    ddim0 = samplers.SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=7)
    states = guidance.guided_sample(m, ddim0, guidance.GuidanceConfig(**modes["classifier"]),
                                    SCHED, rng)
    out["guidance/classifier/ddim0"] = (states, rng.normal_draws)

    rep = losses.vlb_estimate(m, np.array([0.5]), SCHED, 3, RngState(30))
    out["vlb"] = (rep.L0, rep.Lt, rep.LT, rep.total)

    x = np.linspace(-3.0, 3.0, 9)[:, None]
    t_arr = np.arange(1, 10) * 5
    lbl = np.array([0, 1, 0, 1, 1, 0, -1, 1, 0])
    out["predict"] = (m.predict(x, t_arr, sched=SCHED), m.predict(x, 17, sched=SCHED),
                      m.predict(x[3], 4, sched=SCHED), cond.predict(x, t_arr, lbl, SCHED),
                      cond.predict(x, 33, None, SCHED))
    nll, grad = cls.nll_and_grad(x, t_arr, np.abs(lbl), SCHED)
    out["classifier"] = (cls.log_probs(x, t_arr, SCHED), cls.log_probs(x[0], 12, SCHED),
                         cls.grad_x(x, 25, 1, SCHED), cls.grad_x(x[2], 3, 0, SCHED),
                         nll, grad)

    grid = np.linspace(-4.0, 4.0, 24).reshape(2, 3, 4, 1)
    spec2 = forward.GmmSpec(weights=[0.2, 0.5, 0.3], means=[[-1.0, 0.5], [0.0, 2.0], [3.0, -1.0]],
                            vars=[[0.5, 1.0], [0.25, 0.3], [2.0, 0.1]])
    out["gmm_log_pdf"] = (forward.gmm_log_pdf(DATA, grid), forward.gmm_log_pdf(DATA, 0.3),
                          forward.gmm_log_pdf(spec2, grid.reshape(3, 4, 2)),
                          forward.gmm_log_pdf(spec2, [0.1, -0.2]))
    rng = RngState(40)
    xt, eps = forward.sample_xt(np.array([[0.5], [-1.0], [2.0]]), 20, SCHED, rng)
    out["sample_xt"] = (xt, eps, rng.normal_draws)
    return out


def _digests():
    return {name: _sha(*values) for name, values in _outputs().items()}


def test_library_outputs_match_golden_digests():
    assert _digests() == GOLDEN, \
        f"digests made on BLAS kernel {GOLDEN_KERNEL}, run on {blas_core()}"


@pytest.mark.skipif(blas_core() is None, reason="numpy bundles no scipy-openblas")
def test_the_haswell_kernel_moves_only_the_last_bits(tmp_path):
    # the golden computation twice in a child process on OpenBLAS's AVX2 kernel
    # (x86-64 hosts from 2013 on have it): its two runs are byte-identical, every
    # value is within 1e-12 of this process's run and every normal-draw count is
    # equal, so the kernel changes rounding and nothing else
    out = tmp_path / "haswell.pkl"
    child = ("import pickle; import test_library_golden as g; from oracles import blas_core; "
             "first = g._outputs(); g._trained.cache_clear(); "
             f"pickle.dump((blas_core(), first, g._outputs()), open({str(out)!r}, 'wb'))")
    paths = (Path(__file__).parent, Path(samplers.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(map(str, paths))}
    subprocess.run([sys.executable, "-W", "error", "-c", child], env=env, check=True)
    core, first, second = pickle.loads(out.read_bytes())
    assert core == "Haswell"
    assert {k: _sha(*v) for k, v in first.items()} == {k: _sha(*v) for k, v in second.items()}
    native = _outputs()
    assert first.keys() == native.keys()
    for name, values in native.items():
        for a, b in zip(values, first[name], strict=True):
            if isinstance(a, int):  # a normal-draw count
                assert a == b, name
            else:
                a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
                assert a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= 1e-12, name


@pytest.mark.parametrize("policy", ("zero", "ddpm"))
@pytest.mark.parametrize("sched", (SCHED, make_linear_schedule(1000), make_cosine_schedule(100)),
                         ids=("desk50", "linear1000", "cosine100"))
def test_ddim_chains_track_the_ddim_form_of_the_mean(sched, policy):
    # every state of the golden DDIM runs against a hand loop of DDIM's own
    # formula (oracles.ddim_mean, sigma by the product formula) on the same draws
    m = _trained("simple", 0)[0]
    for n in (1, 7):
        cfg = samplers.SamplerConfig(kind="ddim", sigma_policy=policy, n_chains=n, record=True)
        rng, ref_rng = RngState(10 + n, 1), RngState(10 + n, 1)
        states = samplers.sample_reverse(m, cfg, sched, rng=rng)
        x = ref_rng.standard_normal((n, m.data_dim))
        ref = [x]
        for t in range(sched.T, 0, -1):
            sigma = ddim_sigma_product(t, sched) if policy == "ddpm" else 0.0
            x = ddim_mean(x, m.predict(x, t, None, sched), t, sigma, sched)
            if sigma > 0.0:
                x = x + sigma * ref_rng.standard_normal(x.shape)
            ref.append(x)
        assert rng.normal_draws == ref_rng.normal_draws
        assert np.max(np.abs(states - np.stack(ref))) <= 1e-12


@pytest.mark.parametrize("record", (False, True))
@pytest.mark.parametrize("n", (1, 7))
def test_ddim_with_the_ddpm_sigma_returns_the_ddpm_bytes(n, record):
    runs = []
    for kw in (dict(kind="ddpm"), dict(kind="ddim", sigma_policy="ddpm")):
        rng = RngState(10 + n, int(record))
        cfg = samplers.SamplerConfig(n_chains=n, record=record, **kw)
        states = samplers.sample_reverse(_trained("simple", 0)[0], cfg, SCHED, rng=rng)
        runs.append((states.shape, states.tobytes(), rng.normal_draws))
    assert runs[0] == runs[1]
    key = f"n{n}/record{int(record)}"
    assert GOLDEN[f"sample/ddimd/{key}"] == GOLDEN[f"sample/ddpm/{key}"]
