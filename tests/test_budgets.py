"""Exact work budgets: how much each workload asks of the package, counted, not timed.

Each row of BUDGETS runs one workload at a tiny size (T = 20, 3 chains, 5 training
steps of 8 samples) under sys.setprofile and counts the calls that cost time on a
real run: check_index, the network passes (predict and grad_x calls and the rows
they take), the backward passes, the normal draws (of the run's rng and of every
RngState made during the run, as the CLI makes its own), and every call into a toydiff
function.  The last count catches per-step Python work that no other count sees.
The counts do not move with the host, so a change that adds or removes work shows
here as an edited row, whatever its timings did.  The "setup" row is the benchmark's
narrow set-up: a T = 1000 schedule, the default mixture, one (64, 64) network
and 2 mixture draws.  The "cli" row is a train, sample, vlb and hist round trip
through run_cli at T = 20, run in a temporary directory.  The calls column is
CPython 3.11's: a comprehension is a call there, and 3.12 inlines it.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import toydiff
from toydiff import cli, forward, guidance, losses, samplers, schedules, training
from toydiff.model import Classifier, NoisePredictor, init_classifier, init_noise_predictor
from toydiff.rng import RngState
from toydiff.schedules import make_linear_schedule

PACKAGE = str(Path(toydiff.__file__).parent)
SCHED = make_linear_schedule(20)
DATA = forward.default_mixture()
COLUMNS = ("check_index", "predict", "predict_rows", "grad_x", "grad_x_rows", "_backward",
           "normal_draws", "calls")


def _counts(run):
    """The COLUMNS of one run(rng) on a fresh RngState, as a dict."""
    codes = {schedules.check_index.__code__: "check_index",
             NoisePredictor.predict.__code__: "predict", Classifier.grad_x.__code__: "grad_x",
             NoisePredictor._backward.__code__: "_backward"}
    c = Counter({k: 0 for k in COLUMNS})
    states = []  # every RngState made during the run

    def profile(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(PACKAGE):
            return
        c["calls"] += 1
        if frame.f_code is RngState.__init__.__code__:
            states.append(frame.f_locals["self"])
        name = codes.get(frame.f_code)
        if name is not None:
            c[name] += 1
            if name in ("predict", "grad_x"):
                c[f"{name}_rows"] += np.atleast_2d(frame.f_locals["x"]).shape[0]

    rng = RngState(7)
    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(rng)
    finally:
        sys.setprofile(old)
    c["normal_draws"] = rng.normal_draws + sum(state.normal_draws for state in states)
    return dict(c)


def _train(variant, steps=5):
    cfg = training.TrainConfig(steps=steps, batch_size=8,
                               loss_variant="weighted" if variant == "weighted" else "simple")
    if variant == "classifier":
        c = init_classifier(1, 2, (4,), rng=RngState(1))
        return lambda rng: training.train_classifier(c, DATA, SCHED, cfg, rng)
    m = init_noise_predictor(1, (4,), 2 if variant == "conditional" else None, rng=RngState(1))
    return lambda rng: training.train(m, DATA, SCHED, cfg, rng)


def _sample(kind, sched=SCHED, **g):
    m = init_noise_predictor(1, (4,), 2 if g.get("mode") == "classifier-free" else None,
                             rng=RngState(2))
    if g.get("mode") == "classifier":
        g["classifier"] = init_classifier(1, 2, (4,), rng=RngState(3))
    cfg = samplers.SamplerConfig(kind=kind, n_chains=3)
    return lambda rng: guidance.guided_sample(m, cfg, guidance.GuidanceConfig(**g), sched, rng)


def _vlb():
    m = init_noise_predictor(1, (4,), rng=RngState(4))
    return lambda rng: losses.vlb_estimate(m, [0.5], SCHED, 3, rng).total  # as the CLI reads it


def _setup(rng):
    make_linear_schedule(1000)
    data = forward.default_mixture()
    init_noise_predictor(1, (64, 64), rng=rng)
    forward.gmm_sample(data, rng, size=2)


def _cli(rng):
    for argv in (["train", "--T", "20", "--steps", "5", "--batch", "8", "--hidden", "4",
                  "--out", "m.ckpt"],
                 ["sample", "--checkpoint", "m.ckpt", "--n", "3", "--out", "samples.csv"],
                 ["vlb", "--checkpoint", "m.ckpt", "--x0", "0.5", "--M", "3", "--out", "vlb.csv"],
                 ["hist", "--input", "samples.csv", "--bins", "5", "--out", "hist.csv"]):
        assert cli.run_cli(argv[:1] + ["--seed", "7"] + argv[1:]) == 0, argv


WORKLOADS = {
    "train/simple": lambda: _train("simple"),
    "train/weighted": lambda: _train("weighted"),
    "train/conditional": lambda: _train("conditional"),
    "train/classifier": lambda: _train("classifier"),
    "sample/ddpm": lambda: _sample("ddpm"),
    "sample/ddim": lambda: _sample("ddim"),
    "sample/cfg": lambda: _sample("ddpm", mode="classifier-free", scale=2.0, target=0),
    "sample/classifier": lambda: _sample("ddpm", mode="classifier", scale=1.5, target=1),
    "vlb": _vlb,
    "setup": lambda: _setup,
    "cli": lambda: _cli,
}

# check_index, predict, predict_rows, grad_x, grad_x_rows, _backward, normal_draws, calls
BUDGETS = {
    "train/simple": (10, 0, 0, 0, 0, 5, 80, 113),
    "train/weighted": (11, 0, 0, 0, 0, 5, 80, 116),
    "train/conditional": (15, 0, 0, 0, 0, 5, 80, 123),
    "train/classifier": (15, 0, 0, 0, 0, 5, 80, 118),
    "sample/ddpm": (21, 20, 60, 0, 0, 0, 60, 267),
    "sample/ddim": (21, 20, 60, 0, 0, 0, 3, 248),
    "sample/cfg": (83, 40, 120, 0, 0, 0, 60, 570),
    "sample/classifier": (63, 20, 60, 20, 60, 20, 60, 551),
    "vlb": (25, 20, 60, 0, 0, 0, 60, 254),
    "setup": (1, 0, 0, 0, 0, 0, 2, 51),
    "cli": (57, 40, 120, 0, 0, 5, 200, 1103),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_budget(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the cli row writes its files here
    assert _counts(WORKLOADS[name]()) == dict(zip(COLUMNS, BUDGETS[name]))


@pytest.mark.parametrize("kind, budget", [
    ("simple", 2),        # sample_xt's t and the features' t
    ("conditional", 3),   # and the features' labels
    ("weighted", 2),      # the weights are gathered from a table built once per call
    ("classifier", 3),    # sample_xt's t, nll_and_grad's labels and the features' t
])
def test_index_checks_per_training_step(kind, budget):
    checks = lambda steps: _counts(_train(kind, steps))["check_index"]
    assert checks(5) - checks(0) == 5 * budget


@pytest.mark.parametrize("kind, budget", [
    ("ddpm", 1),  # the features' t; the chain's t and sigma_t^2 are checked once
    ("ddim", 1),  # the features' t
])
def test_index_checks_per_sampler_step(kind, budget):
    checks = lambda T: _counts(_sample(kind, make_linear_schedule(T)))["check_index"]
    assert checks(20) - checks(10) == 10 * budget
