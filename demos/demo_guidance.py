"""Steering generation toward a chosen class, two ways.

Classifier-free guidance amplifies the gap between conditional and
null-label noise predictions; classifier guidance moves the noise
prediction against the gradient of a separately trained noisy classifier.
Both push the samples toward mode +2 (label 1) as the scale grows.

Run:  python3 demos/demo_guidance.py   (about a minute)
"""

from toydiff import (GuidanceConfig, RngState, SamplerConfig, TrainConfig,
                     default_mixture, final_states, guided_sample,
                     init_classifier, init_noise_predictor,
                     make_linear_schedule, mode_masses, train,
                     train_classifier)

sched = make_linear_schedule(100, 1e-3, 0.2)
data = default_mixture()

print("training conditional noise predictor (label dropout p = 0.1) ...")
cond = init_noise_predictor(1, hidden=(64, 64), conditioning=2,
                            rng=RngState(42).spawn(3))
train(cond, data, sched, TrainConfig(steps=20000, eta=1e-2, p_drop=0.1),
      RngState(42).spawn(4))

print("training unconditional predictor and noisy classifier ...")
uncond = init_noise_predictor(1, hidden=(64, 64), rng=RngState(42).spawn(1))
train(uncond, data, sched, TrainConfig(steps=20000, eta=1e-2), RngState(42).spawn(2))
cls = init_classifier(1, 2, hidden=(64, 64), rng=RngState(42).spawn(5))
train_classifier(cls, data, sched, TrainConfig(steps=5000, eta=1e-1),
                 RngState(42).spawn(6))

sampler = SamplerConfig(kind="ddpm", n_chains=2000)
print("\nscale   classifier-free   classifier-guided   (fraction on mode +2)")
for s in (0.0, 1.0, 2.0, 5.0):
    g_free = GuidanceConfig(mode="classifier-free", scale=s, target=1)
    f_free = mode_masses(final_states(
        guided_sample(cond, sampler, g_free, sched, RngState(15))), data)[1]
    g_cls = GuidanceConfig(mode="classifier", scale=s, target=1, classifier=cls)
    f_cls = mode_masses(final_states(
        guided_sample(uncond, sampler, g_cls, sched, RngState(16))), data)[1]
    print(f"{s:5.1f}        {f_free:.3f}              {f_cls:.3f}")

print("\nat s = 0 both reduce to their unguided samplers exactly (same bits,")
print("same seed); at s = 5 essentially every sample lands on the target mode.")
