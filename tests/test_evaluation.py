import numpy as np
import pytest
from oracles import exact_w1

from toydiff.evaluation import mode_masses, wasserstein1_1d
from toydiff.forward import GmmSpec, default_mixture, gmm_sample
from toydiff.rng import RngState


def test_w1_identical_samples_is_zero():
    a = np.array([1.0, 2.0, 3.0])
    assert wasserstein1_1d(a, a) == 0.0


def test_w1_translation():
    a = np.random.default_rng(0).normal(size=1000)
    assert np.isclose(wasserstein1_1d(a, a + 0.7), 0.7, rtol=1e-12)


def test_w1_two_point_example():
    assert wasserstein1_1d([0.0, 1.0], [0.0, 2.0]) == pytest.approx(0.5)


def test_w1_symmetry_and_triangle():
    rng = np.random.default_rng(1)
    a, b, c = (rng.normal(size=500) for _ in range(3))
    ab, ba = wasserstein1_1d(a, b), wasserstein1_1d(b, a)
    assert np.isclose(ab, ba, rtol=1e-12)
    assert wasserstein1_1d(a, c) <= ab + wasserstein1_1d(b, c) + 1e-12


def test_w1_unequal_sizes_close_to_equal_size_value():
    rng = np.random.default_rng(2)
    a = rng.normal(size=4000)
    b = rng.normal(1.0, 1.0, size=5000)
    w = wasserstein1_1d(a, b)
    assert abs(w - 1.0) < 0.1  # W1(N(0,1), N(1,1)) = 1


@pytest.mark.parametrize("sizes", [(1, 1), (7, 7), (500, 500), (1, 9), (2, 3), (40, 60),
                                   (999, 1000), (2000, 20000)])
def test_w1_matches_the_exact_quantile_oracle(sizes):
    rng = np.random.default_rng(sum(sizes))
    a = rng.normal(size=sizes[0])
    b = np.concatenate((rng.normal(-2.0, 0.5, size=sizes[1] // 2),
                        rng.normal(2.0, 0.5, size=sizes[1] - sizes[1] // 2)))
    for x, y in ((a, b), (b, a), (a, a + 0.3), (np.round(a, 1), np.round(b, 1))):  # ties too
        assert abs(wasserstein1_1d(x, y) - exact_w1(x, y)) < 1e-12


def test_w1_unequal_sizes_is_exact():
    # the interpolated-quantile grid of unequal sizes used to give 0.667 and 1.0 here
    for a, b in (([0.0, 2.0], [0.0, 1.0, 5.0]), ([0.0, 0.0, 3.0], [1.0])):
        assert wasserstein1_1d(a, b) == pytest.approx(4 / 3, rel=1e-15)
        assert wasserstein1_1d(b, a) == pytest.approx(4 / 3, rel=1e-15)


def test_w1_rejects_nan_and_inf():
    # these used to return nan or inf
    for bad in ([0.0, np.nan], [np.inf, 1.0], np.array([[-np.inf], [0.0]])):
        with pytest.raises(ValueError, match="finite"):
            wasserstein1_1d(bad, [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            wasserstein1_1d([0.0, 1.0, 2.0], bad)


def test_w1_rejects_empty():
    with pytest.raises(ValueError):
        wasserstein1_1d([], [1.0])
    # only (n,) and (n, 1) are 1-D samples; a (4, 2) array used to be raveled to 8 values
    for bad in (np.zeros((4, 2)), np.zeros((4, 1, 1)), 1.0):
        with pytest.raises(ValueError, match=r"\(n,\) or \(n, 1\)"):
            wasserstein1_1d(bad, np.zeros(4))
        with pytest.raises(ValueError, match=r"\(n,\) or \(n, 1\)"):
            wasserstein1_1d(np.zeros(4), bad)


def test_mode_masses_hand_case():
    spec = default_mixture()
    samples = np.array([[-2.1], [-1.9], [2.0], [-2.0]])
    assert np.allclose(mode_masses(samples, spec), [0.75, 0.25])
    # samples of another dimension used to be broadcast against the mode means
    plane = GmmSpec(weights=[0.5, 0.5], means=[[0.0, 0.0], [3.0, 3.0]],
                    vars=[[1.0, 1.0], [1.0, 1.0]])
    for bad, target in ((samples, plane), (np.zeros((4, 3)), spec),
                        (samples[:, 0], spec)):  # a 1-D array was one 4-dim sample
        with pytest.raises(ValueError, match="are not"):
            mode_masses(bad, target)
    with pytest.raises(ValueError, match="empty sample"):
        mode_masses(np.zeros((0, 1)), spec)
    with pytest.raises(ValueError, match="at least 2 modes"):
        mode_masses(samples, GmmSpec(weights=[1.0], means=[[0.0]], vars=[[1.0]]))


def test_mode_masses_on_true_samples():
    spec = default_mixture()
    xs, _ = gmm_sample(spec, RngState(0), size=10**5)
    masses = mode_masses(xs, spec)
    se = np.sqrt(0.6 * 0.4 / 10**5)
    assert abs(masses[0] - 0.6) < 4 * se
    assert np.isclose(masses.sum(), 1.0, rtol=1e-15)
    # an independent draw of 2000 lies close in W1 to the (n, 1) true samples
    ys, _ = gmm_sample(spec, RngState(2), size=2000)
    assert wasserstein1_1d(xs[:2000], ys) < 0.15

