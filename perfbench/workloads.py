"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

Every workload is a closed loop with one client.  ``setup`` builds the
inputs, ``ops(it)`` returns the operations of round ``it`` as
(kind, callable, work units) and the runner times each call; ``check``
validates a result outside the timed region and returns its problems.
Operations reach toydiff through module attributes, so a traced run sees
the wrappers and an untraced run the original functions.
"""

import copy
import functools
import hashlib
import os
import shutil

import numpy as np

from toydiff import (cli, evaluation, forward, guidance, losses, model, samplers,
                     schedules, training)
from toydiff.rng import RngState

DESK = (100, 1e-3, 0.2)   # T, beta_start, beta_end of the desk profile
HIDDEN = (64, 64)


class Workload:
    """Shared defaults; subclasses define setup, ops, check and ``metrics``."""
    setup_repeats = 50

    def __init__(self, seed, workdir):
        self.seed = seed

    def close(self):
        pass


class Train(Workload):
    """SGD at batch 64 on the desk schedule, simple then weighted loss, each on a fresh model."""
    name = "train"
    steps = 500
    metrics = {"train_simple": ("train_steps_per_s", "steps/s"),
               "train_weighted": ("train_weighted_steps_per_s", "steps/s")}

    def setup(self):
        self.sched = schedules.make_linear_schedule(*DESK)
        self.data = forward.default_mixture()
        rng = RngState(self.seed, 1 << 32)
        x0, y = forward.gmm_sample(self.data, rng, size=4096)
        t = rng.integers(1, self.sched.T + 1, size=4096)
        eps = rng.standard_normal(x0.shape)
        ab = self.sched.alpha_bar[t][:, None]
        self.eval_batch = (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps, t, y, eps)

    def ops(self, it):
        return [(f"train_{v}", functools.partial(self._train, v, 2 * it + k), self.steps)
                for k, v in enumerate(("simple", "weighted"))]

    def _train(self, variant, stream):
        m = model.init_noise_predictor(1, HIDDEN, conditioning=2,
                                       rng=RngState(self.seed, 2 * stream))
        initial = m.params.copy()
        cfg = training.TrainConfig(steps=self.steps, batch_size=64, eta=1e-2, p_drop=0.1,
                                   eval_interval=100, loss_variant=variant)
        report = training.train(m, self.data, self.sched, cfg,
                                RngState(self.seed, 2 * stream + 1))
        return report, m, initial

    def _mse(self, m):
        x_t, t, y, eps = self.eval_batch
        return float(np.mean((m.predict(x_t, t, y, self.sched) - eps) ** 2))

    def check(self, kind, result):
        report, m, initial = result
        curve = [loss for _, loss in report.loss_curve]
        if not np.all(np.isfinite(curve)):
            return [f"{kind}: nonfinite loss {curve}"]
        # The weighted loss starts at its noise floor, so its windows are compared
        # only through the paired check below on a fixed evaluation batch.
        if kind == "train_simple" and not curve[-1] < curve[0]:
            return [f"{kind}: last-window loss {curve[-1]} not below first {curve[0]}"]
        start = copy.copy(m)
        start.params = initial
        if not self._mse(m) < self._mse(start):
            return [f"{kind}: evaluation-batch error did not fall during training"]
        return []


class SampleWide(Workload):
    """Four samplers over 10,000 chains with models trained as in the acceptance fixtures."""
    name = "sample_wide"
    setup_repeats = 1   # set-up trains three models for about 17 s
    n = 10_000
    metrics = {k: (f"{k}_chain_steps_per_s", "chain-steps/s")
               for k in ("ddpm", "ddim", "cfg", "clsg")}

    def setup(self):
        """Train the models with the recipe of the acceptance fixtures."""
        self.sched = schedules.make_linear_schedule(*DESK)
        self.data = forward.default_mixture()
        base = RngState(42)
        self.uncond = model.init_noise_predictor(1, HIDDEN, rng=base.spawn(1))
        training.train(self.uncond, self.data, self.sched,
                       training.TrainConfig(steps=20000, batch_size=64, eta=1e-2), base.spawn(2))
        self.cond = model.init_noise_predictor(1, HIDDEN, conditioning=2, rng=base.spawn(3))
        training.train(self.cond, self.data, self.sched,
                       training.TrainConfig(steps=20000, batch_size=64, eta=1e-2, p_drop=0.1),
                       base.spawn(4))
        self.classifier = model.init_classifier(1, 2, HIDDEN, rng=base.spawn(5))
        training.train_classifier(self.classifier, self.data, self.sched,
                                  training.TrainConfig(steps=5000, batch_size=64, eta=1e-1),
                                  base.spawn(6))
        self.target, _ = forward.gmm_sample(self.data, RngState(self.seed, 0), size=self.n)

    def ops(self, it):
        units = self.n * self.sched.T
        return [(k, functools.partial(self._sample, k, 4 * it + j + 1), units)
                for j, k in enumerate(self.metrics)]

    def _sample(self, kind, stream):
        rng = RngState(self.seed, stream)
        ddpm = samplers.SamplerConfig(kind="ddpm", n_chains=self.n)
        if kind == "ddpm":
            trajs = samplers.sample_reverse(self.uncond, ddpm, self.sched, rng=rng)
        elif kind == "ddim":
            cfg = samplers.SamplerConfig(kind="ddim", sigma_policy="zero", n_chains=self.n)
            trajs = samplers.sample_reverse(self.uncond, cfg, self.sched, rng=rng)
        elif kind == "cfg":
            g = guidance.GuidanceConfig(mode="classifier-free", scale=5.0, target=1)
            trajs = guidance.guided_sample(self.cond, ddpm, g, self.sched, rng)
        else:
            g = guidance.GuidanceConfig(mode="classifier", scale=5.0, target=1,
                                        classifier=self.classifier)
            trajs = guidance.guided_sample(self.uncond, ddpm, g, self.sched, rng)
        return samplers.final_states(trajs)

    def check(self, kind, x0):
        if x0.shape != (self.n, 1) or not np.all(np.isfinite(x0)):
            return [f"{kind}: bad output shape {x0.shape} or nonfinite values"]
        masses = evaluation.mode_masses(x0, self.data)
        if kind in ("cfg", "clsg"):
            # label 1 is the +2 mode; bound of acceptance criterion 11 at scale 5
            return [] if masses[1] >= 0.9 else [f"{kind}: mass {masses[1]} on mode +2 < 0.9"]
        w1 = evaluation.wasserstein1_1d(x0, self.target)
        # bounds of acceptance criterion 9
        if np.max(np.abs(masses - self.data.weights)) > 0.08 or w1 > 0.3:
            return [f"{kind}: mode masses {masses}, W1 {w1}"]
        return []


class Narrow(Workload):
    """T=1000 bound estimates and single chains: every network call is one row."""
    name = "narrow"
    vlb_points = 2
    chains = 10
    metrics = {"vlb": ("vlb_points_per_s", "points/s"),
               "ddpm": ("ddpm_chain_steps_per_s", "chain-steps/s"),
               "ddim": ("ddim_chain_steps_per_s", "chain-steps/s")}

    def setup(self):
        self.sched = schedules.make_linear_schedule(1000)
        self.data = forward.default_mixture()
        self.model = model.init_noise_predictor(1, HIDDEN, rng=RngState(self.seed, 1))
        self.x0, _ = forward.gmm_sample(self.data, RngState(self.seed, 2), size=self.vlb_points)

    def ops(self, it):
        base = 100 * it + 3
        out = [("vlb", functools.partial(self._vlb, x0, base + j), 1)
               for j, x0 in enumerate(self.x0)]
        for k, kind in enumerate(("ddpm", "ddim")):
            out += [(kind, functools.partial(self._chain, kind, base + 10 + 10 * k + j),
                     self.sched.T) for j in range(self.chains)]
        return out

    def _vlb(self, x0, stream):
        return losses.vlb_estimate(self.model, x0, self.sched, 10, RngState(self.seed, stream))

    def _chain(self, kind, stream):
        cfg = samplers.SamplerConfig(kind=kind, n_chains=1)
        trajs = samplers.sample_reverse(self.model, cfg, self.sched, rng=RngState(self.seed, stream))
        return samplers.final_states(trajs)

    def check(self, kind, out):
        if kind != "vlb":
            ok = out.shape == (1, 1) and np.all(np.isfinite(out))
            return [] if ok else [f"{kind}: bad final state {out}"]
        terms = np.concatenate(([out.L0, out.LT, out.total], out.Lt))
        problems = []
        if out.Lt.shape != (self.sched.T - 1,) or not np.all(np.isfinite(terms)):
            problems.append("vlb: wrong term count or nonfinite terms")
        if out.total != out.L0 + float(np.sum(out.Lt)) + out.LT:
            problems.append("vlb: total is not the sum of its terms")
        if out.LT < 0 or np.any(out.Lt < 0):
            problems.append("vlb: negative KL term")
        if not out.LT < 0.01:
            problems.append(f"vlb: L_T = {out.LT} nats, not below 0.01")
        return problems


class CliRoundtrip(Workload):
    """train, sample, vlb and hist through run_cli, in process; outputs must repeat byte for byte."""
    name = "cli_roundtrip"
    metrics = {f"cli_{c}": (f"cli_{c}_s", "s") for c in ("train", "sample", "vlb", "hist")}
    # the desk schedule and a short run of the acceptance recipe, read by train --config
    config = "beta-start=0.001\nbeta-end=0.2\nsteps=2000\nbatch=64\neta=0.01\nhidden=64,64\n"
    outputs = {"cli_train": "model.ckpt", "cli_sample": "samples.csv",
               "cli_vlb": "vlb.csv", "cli_hist": "hist.csv"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dir = os.path.join(workdir, f"cli-{os.getpid()}")
        self.digests = {}

    def _path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        with open(self._path("train.cfg"), "w") as fh:
            fh.write(self.config)

    def ops(self, it):
        s, p = str(self.seed), self._path
        argvs = {
            "cli_train": ["train", "--seed", s, "--desk", "--config", p("train.cfg")],
            "cli_sample": ["sample", "--seed", s, "--checkpoint", p("model.ckpt"),
                           "--n", "10000"],
            "cli_vlb": ["vlb", "--seed", s, "--checkpoint", p("model.ckpt"), "--x0", "0.5",
                        "--M", "10"],
            "cli_hist": ["hist", "--seed", s, "--input", p("samples.csv"), "--bins", "40"],
        }
        return [(k, functools.partial(cli.run_cli, argv + ["--out", p(self.outputs[k])]), 1)
                for k, argv in argvs.items()]

    def check(self, kind, code):
        if code != 0:
            return [f"{kind}: exit code {code}"]
        with open(self._path(self.outputs[kind]), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digests.setdefault(kind, digest) != digest:
            return [f"{kind}: {self.outputs[kind]} differs from the first round's bytes"]
        return []

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Train, SampleWide, Narrow, CliRoundtrip)}
