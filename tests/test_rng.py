import numpy as np
import pytest

from toydiff.rng import RngState


def test_same_seed_same_stream_reproduces():
    a = RngState(42).standard_normal(100)
    b = RngState(42).standard_normal(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngState(1).standard_normal(100)
    b = RngState(2).standard_normal(100)
    assert not np.array_equal(a, b)


def test_spawned_streams_are_distinct_and_reproducible():
    base = RngState(7)
    s1, s2 = base.spawn(1), base.spawn(2)
    a, b = s1.standard_normal(50), s2.standard_normal(50)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, RngState(7).spawn(1).standard_normal(50))


def test_normal_draw_counter():
    r = RngState(0)
    assert r.normal_draws == 0
    r.standard_normal((3, 4))
    assert r.normal_draws == 12
    r.standard_normal(5)
    assert r.normal_draws == 17
    r.standard_normal()  # size None: one value
    assert r.normal_draws == 18
    r.standard_normal((3, 0))
    r.standard_normal((0,))
    assert r.normal_draws == 18
    r.uniform(0.0, 1.0, 10)  # uniforms do not count as normal draws
    assert r.normal_draws == 18


def test_standard_normal_moments():
    x = RngState(3).standard_normal(10**6)
    assert abs(x.mean()) < 4e-3
    assert abs(x.var(ddof=1) - 1.0) < 6e-3


def test_integers_range_and_uniformity():
    r = RngState(4)
    t = r.integers(1, 11, size=10**5)
    assert t.min() >= 1 and t.max() <= 10
    counts = np.bincount(t, minlength=11)[1:]
    se = np.sqrt(10**5 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 10**4) < 4 * se)


def test_choice_respects_probabilities():
    r = RngState(5)
    c = r.choice(2, size=10**5, p=[0.6, 0.4])
    assert abs(np.mean(c == 1) - 0.4) < 0.01
