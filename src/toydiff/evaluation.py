"""Distribution-level metrics for judging generated samples.

Empirical 1-Wasserstein distance in 1-D and per-mode mass accounting by
nearest mode mean (valid for well-separated mixtures only).
"""

import numpy as np


def wasserstein1_1d(a, b):
    """Exact W1 between the empirical laws of two finite 1-D samples of any sizes.

    W1 = integral of |F_a - F_b| dx, with the step CDFs constant between the
    sorted pooled points.  Each sample is an (n,) or (n, 1) array.
    """
    a, b = (np.asarray(v, dtype=np.float64) for v in (a, b))
    if not all(v.ndim in (1, 2) and v.shape[1:] in ((), (1,)) for v in (a, b)):
        raise ValueError(f"1-D samples must be (n,) or (n, 1), got {a.shape} and {b.shape}")
    a, b = np.sort(a.ravel()), np.sort(b.ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):  # else 0 * inf below
        raise ValueError("samples must be finite, got NaN or inf")
    x = np.sort(np.concatenate((a, b)))
    fa, fb = (np.searchsorted(v, x[:-1], side="right") / v.size for v in (a, b))
    return float(np.sum(np.abs(fa - fb) * np.diff(x)))


def mode_masses(samples, spec):
    """Fraction of the (n, spec.dim) samples nearest to each mode mean of the mixture."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.dim:
        raise ValueError(f"samples of shape {x.shape} are not (n, {spec.dim})")
    if x.shape[0] == 0:
        raise ValueError("empty sample")
    if spec.n_components < 2:
        raise ValueError("need at least 2 modes")
    d2 = np.sum((x[:, None, :] - spec.means[None, :, :]) ** 2, axis=2)
    assign = np.argmin(d2, axis=1)
    return np.bincount(assign, minlength=spec.n_components) / x.shape[0]

