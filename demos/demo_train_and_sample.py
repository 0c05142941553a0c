"""Train a noise predictor from scratch and sample with both samplers.

Algorithm-1 style SGD on the simple loss, then stochastic DDPM and
deterministic DDIM (sigma = 0) generation, scored against fresh draws
from the target mixture.

Run:  python3 demos/demo_train_and_sample.py   (about half a minute)
"""

import time

from toydiff import (RngState, SamplerConfig, TrainConfig, default_mixture,
                     final_states, gmm_sample, init_noise_predictor,
                     make_linear_schedule, mode_masses, sample_reverse, train,
                     wasserstein1_1d)

sched = make_linear_schedule(100, 1e-3, 0.2)
data = default_mixture()

m = init_noise_predictor(1, hidden=(64, 64), rng=RngState(42).spawn(1))
print(f"noise predictor: 1 -> 64 -> 64 -> 1 tanh MLP, {m.n_params} parameters")

cfg = TrainConfig(steps=20000, batch_size=64, eta=1e-2)
t0 = time.perf_counter()
report = train(m, data, sched, cfg, RngState(42).spawn(2))
seconds = time.perf_counter() - t0
first, last = report.loss_curve[0], report.loss_curve[-1]
print(f"trained {cfg.steps} SGD steps in {seconds:.1f}s; "
      f"loss {first[1]:.3f} -> {last[1]:.3f}\n")

target, _ = gmm_sample(data, RngState(7), size=2000)
for kind in ("ddpm", "ddim"):
    sampler = SamplerConfig(kind=kind, sigma_policy="zero", n_chains=2000)
    out = final_states(sample_reverse(m, sampler, sched, rng=RngState(8)))
    print(f"{kind}: mode masses {mode_masses(out, data).round(3)} (target [0.6 0.4]), "
          f"W1 = {wasserstein1_1d(out, target):.3f}, mean {out.mean():+.2f}, "
          f"std {out.std():.2f}")

print("\nDDPM resamples noise every step; DDIM with sigma = 0 is a deterministic")
print("map from x_T to x_0 -- rerun with the same seed and the output is bitwise equal.")
