import math

import numpy as np
import pytest

from toydiff.gaussian import DiagGaussian, kl_closed_form, kl_mc, log_pdf, sample
from toydiff.rng import RngState

# KL(N(1,1) || N(0,4)) = 0.5 * (ln 4 - 1 + 1/4 + 1/4), the running demo pair
KL_DEMO = 0.5 * (math.log(4.0) - 1.0 + 0.25 + 0.25)


def test_log_pdf_standard_normal_at_zero():
    g = DiagGaussian(0.0, 1.0)
    assert np.isclose(log_pdf(g, 0.0), -0.5 * math.log(2 * math.pi), rtol=1e-12)


def test_log_pdf_matches_quadrature_normalization():
    # [DERIVED] density integrates to 1 on a fine grid
    g = DiagGaussian([0.3], [0.7])
    x = np.linspace(-12, 12, 200001)[:, None]
    mass = np.trapezoid(np.exp(log_pdf(g, x)), x[:, 0])
    assert abs(mass - 1.0) < 1e-10


def test_log_pdf_vectorizes_over_batch():
    g = DiagGaussian([0.0, 1.0], [1.0, 2.0])
    xs = np.random.default_rng(0).normal(size=(7, 2))
    batched = log_pdf(g, xs)
    singles = np.array([log_pdf(g, x) for x in xs])
    assert np.array_equal(batched, singles)


def test_log_pdf_rejects_zero_variance_and_dim_mismatch():
    with pytest.raises(ValueError):
        log_pdf(DiagGaussian([0.0], [0.0]), [0.0])
    with pytest.raises(ValueError):
        log_pdf(DiagGaussian([0.0, 0.0], [1.0, 1.0]), [0.0])


def test_dim_is_last_axis_for_a_stack_of_gaussians():
    assert DiagGaussian([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]).dim == 3
    stack = DiagGaussian(np.zeros((4, 2)), np.ones((4, 2)))
    assert stack.dim == 2
    assert log_pdf(stack, np.zeros((5, 1, 2))).shape == (5, 4)


def test_gaussian_rejects_negative_variance():
    for var in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            DiagGaussian([0.0], [var])


def test_gaussian_and_kl_reject_mismatched_shapes_and_zero_variance():
    with pytest.raises(ValueError, match="same dimension"):
        DiagGaussian([0.0, 1.0], [1.0])
    one, two = DiagGaussian([0.0], [1.0]), DiagGaussian([0.0, 0.0], [1.0, 1.0])
    stack = DiagGaussian(np.zeros((3, 1)), np.ones((3, 1)))  # 3 rows would broadcast over one
    for q, p in ((one, two), (two, one), (one, stack), (stack, one)):
        with pytest.raises(ValueError, match="dimension mismatch between q and p"):
            kl_closed_form(q, p)
    point = DiagGaussian([0.0], [0.0])  # a valid Gaussian, but no KL in closed form
    for q, p in ((point, one), (one, point)):
        with pytest.raises(ValueError, match="strictly positive variances"):
            kl_closed_form(q, p)


def test_sample_zero_variance_returns_mean_exactly():
    g = DiagGaussian([2.0, -3.0], [0.0, 0.0])
    out = sample(g, RngState(1), size=5)
    assert np.array_equal(out, np.broadcast_to(g.mean, (5, 2)))


def test_sample_moments():
    g = DiagGaussian([1.0, -2.0], [0.25, 4.0])
    xs = sample(g, RngState(7), size=10**6)
    se_mean = np.sqrt(g.var / 10**6)
    assert np.all(np.abs(xs.mean(axis=0) - g.mean) < 4 * se_mean)
    se_var = g.var * np.sqrt(2.0 / (10**6 - 1))
    assert np.all(np.abs(xs.var(axis=0) - g.var) < 4 * se_var)


def test_sample_is_affine_in_the_same_draws():
    # bitwise: mean + sqrt(var) * z with the identical z stream
    g = DiagGaussian([1.0, -2.0], [0.25, 4.0])
    xs = sample(g, RngState(11), size=100)
    z = RngState(11).standard_normal((100, 2))
    assert np.array_equal(xs, g.mean + np.sqrt(g.var) * z)


def test_kl_closed_form_self_is_zero():
    q = DiagGaussian([0.4, -1.0], [0.5, 2.0])
    assert kl_closed_form(q, q) == 0.0


def test_kl_closed_form_demo_pair():
    q = DiagGaussian([1.0], [1.0])
    p = DiagGaussian([0.0], [4.0])
    assert abs(kl_closed_form(q, p) - KL_DEMO) < 1e-12
    assert abs(KL_DEMO - 0.443147) < 5e-7


def test_kl_closed_form_matches_quadrature():
    # [DERIVED] 1-D quadrature oracle for integral q log(q/p)
    q = DiagGaussian([1.0], [1.0])
    p = DiagGaussian([0.0], [4.0])
    x = np.linspace(-14, 14, 400001)[:, None]
    lq, lp = log_pdf(q, x), log_pdf(p, x)
    oracle = np.trapezoid(np.exp(lq) * (lq - lp), x[:, 0])
    assert abs(kl_closed_form(q, p) - oracle) < 1e-9


def test_kl_closed_form_decreases_when_variances_match():
    q = DiagGaussian([1.0], [1.0])
    assert kl_closed_form(q, DiagGaussian([0.0], [1.0])) < kl_closed_form(
        q, DiagGaussian([0.0], [4.0])) + 0.5  # sanity; exact check below
    # matching p's variance to q removes the variance penalty terms
    assert np.isclose(kl_closed_form(q, DiagGaussian([0.0], [1.0])), 0.5, rtol=1e-12)


@pytest.mark.parametrize("d", [1, 3, 10])  # numpy's pairwise sum changes path at 8 terms
def test_kl_closed_form_of_a_stack_equals_one_call_per_row(d):
    g = np.random.default_rng(4)
    K = 7
    q = DiagGaussian(g.normal(size=(K, d)), g.uniform(0.1, 3.0, size=(K, d)))
    p = DiagGaussian(g.normal(size=(K, d)), g.uniform(0.1, 3.0, size=(K, d)))
    kl = kl_closed_form(q, p)
    rows = [kl_closed_form(DiagGaussian(q.mean[k], q.var[k]), DiagGaussian(p.mean[k], p.var[k]))
            for k in range(K)]
    assert kl.shape == (K,) and kl.tobytes() == np.array(rows).tobytes()
    assert np.ndim(rows[0]) == 0  # one Gaussian still gives a scalar


def test_kl_closed_form_nonnegative_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = rng.integers(1, 5)
        q = DiagGaussian(rng.normal(size=d), rng.uniform(0.1, 3.0, size=d))
        p = DiagGaussian(rng.normal(size=d), rng.uniform(0.1, 3.0, size=d))
        assert kl_closed_form(q, p) >= 0.0


def test_kl_mc_identical_distributions_is_exactly_zero():
    q = DiagGaussian([0.7], [1.3])
    assert kl_mc(q, q, 1000, RngState(5)) == 0.0


def test_kl_mc_within_three_se_of_closed_form():
    q = DiagGaussian([1.0], [1.0])
    p = DiagGaussian([0.0], [4.0])
    M = 10**6
    xs = sample(q, RngState(21), size=M)
    vals = log_pdf(q, xs) - log_pdf(p, xs)
    se = vals.std(ddof=1) / math.sqrt(M)
    est = kl_mc(q, p, M, RngState(21))
    assert np.isclose(est, vals.mean(), rtol=1e-12)
    assert abs(est - KL_DEMO) < 3 * se


def test_kl_mc_single_sample_estimates_average_out():
    q = DiagGaussian([1.0], [1.0])
    p = DiagGaussian([0.0], [4.0])
    base = RngState(9)
    vals = np.array([kl_mc(q, p, 1, base.spawn(i)) for i in range(20000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - KL_DEMO) < 3 * se


def test_kl_mc_rejects_bad_m():
    q = DiagGaussian([0.0], [1.0])
    for bad in (0, 2.0, 2.5, math.nan):  # a count is an int: 2.0 fails too
        with pytest.raises(ValueError, match="M"):
            kl_mc(q, q, bad, RngState(0))


def test_sum_of_gaussians_lemma_property():
    # sqrt(a(1-b)) z1 + sqrt(1-a) z2 has variance 1 - ab
    rng = np.random.default_rng(13)
    draws = RngState(17)
    n = 10**6
    for _ in range(5):
        a, b = rng.uniform(0.1, 0.99, size=2)
        z1 = draws.standard_normal(n)
        z2 = draws.standard_normal(n)
        combined = np.sqrt(a * (1 - b)) * z1 + np.sqrt(1 - a) * z2
        target = 1 - a * b
        se = target * np.sqrt(2.0 / (n - 1))
        assert abs(combined.var(ddof=1) - target) < 4 * se
