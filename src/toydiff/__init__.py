"""Desk-scale denoising diffusion laboratory on low-dimensional synthetic data."""

from .rng import RngState
from .schedules import Schedule, make_linear_schedule, make_cosine_schedule
from .gaussian import DiagGaussian, log_pdf, sample, kl_closed_form, kl_mc
from .forward import (Trajectory, GmmSpec, default_mixture, forward_step,
                      marginal_q, sample_xt, posterior_q, simulate_forward,
                      gmm_sample, gmm_log_pdf)
from .model import (NoisePredictor, Classifier, init_noise_predictor,
                    init_classifier)
from .losses import (VlbReport, x0_from_eps, mu_tilde_from_eps,
                     loss_x0_weighted, loss_eps_weighted, vlb_estimate)
from .training import TrainConfig, TrainReport, train, train_classifier
from .samplers import (SamplerConfig, ddpm_step, ddim_step,
                       ddim_sigma_ddpm_equiv, sample_reverse, final_states)
from .guidance import GuidanceConfig, cfg_eps, guided_sample
from .estimators import reparam_grad
from .evaluation import wasserstein1_1d, mode_masses
from .persistence import save_checkpoint, load_checkpoint, write_csv

__version__ = "0.1.0"
