import math
import warnings

import mpmath
import numpy as np
import pytest

from oracles import assert_schedule_invariants, check_index_reference

from toydiff import schedules
from toydiff.forward import forward_step, marginal_q, posterior_q, sample_xt
from toydiff.gaussian import DiagGaussian
from toydiff.losses import (eps_kl_weight, loss_eps_weighted, loss_x0_weighted,
                            mu_tilde_from_eps, x0_from_eps)
from toydiff.model import init_noise_predictor
from toydiff.rng import RngState
from toydiff.samplers import ddim_sigma_ddpm_equiv, ddim_step, ddpm_step
from toydiff.schedules import (NO_MAX, check_index, check_t, constructor, make_cosine_schedule,
                               make_linear_schedule)


@pytest.mark.parametrize("kind, T", [("linear", 1), ("linear", 2), ("linear", 100),
                                     ("linear", 1000), ("cosine", 10), ("cosine", 1000)])
def test_schedule_invariants(kind, T):
    make = make_linear_schedule if kind == "linear" else make_cosine_schedule
    assert_schedule_invariants(make(T))


def test_linear_1000_endpoints():
    s = make_linear_schedule(1000, 1e-4, 0.02)
    assert s.beta[1] == 1e-4
    assert s.beta[1000] == 0.02
    incs = np.diff(s.beta[1:])
    assert np.allclose(incs, incs[0], rtol=1e-9)


def test_linear_single_step():
    s = make_linear_schedule(1, 0.5, 0.5)
    assert s.beta[1] == 0.5
    assert np.allclose(s.alpha_bar, [1.0, 0.5])
    assert s.beta_tilde[1] == 0.0


def test_linear_two_step_derived_arrays():
    s = make_linear_schedule(2, 0.1, 0.2)
    assert np.allclose(s.alpha_bar, [1.0, 0.9, 0.72], rtol=1e-15)
    assert np.isclose(s.beta_tilde[2], (0.1 / 0.28) * 0.2, rtol=1e-12)


def test_linear_validation_errors():
    with pytest.raises(ValueError, match="T"):
        make_linear_schedule(0, 1e-4, 0.02)
    with pytest.raises(ValueError, match="beta"):
        make_linear_schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError, match="beta"):
        make_linear_schedule(10, 0.5, 1.0)
    with pytest.raises(ValueError, match="beta"):
        make_linear_schedule(10, 0.3, 0.2)


def test_cosine_monotone_and_valid():
    s = make_cosine_schedule(1000, 0.008)
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[1000] < s.alpha_bar[500] < s.alpha_bar[1]
    assert_schedule_invariants(s)


def test_cosine_matches_high_precision_rederivation():
    # independent oracle: recompute 1 - f(t)/f(t-1) with 50-digit arithmetic
    T, off = 10, 0.008
    s = make_cosine_schedule(T, off)
    with mpmath.workdps(50):
        f = lambda t: mpmath.cos(((mpmath.mpf(t) / T + off) / (1 + off))
                                 * mpmath.pi / 2) ** 2
        for t in range(1, T + 1):
            expect = min(max(float(1 - f(t) / f(t - 1)), 1e-12), 0.999)
            assert abs(s.beta[t] - expect) < 1e-13


def test_cosine_validation_errors():
    with pytest.raises(ValueError):
        make_cosine_schedule(0, 0.008)
    with pytest.raises(ValueError):
        make_cosine_schedule(10, 0.0)
    for bad in (math.nan, math.inf, -math.inf):  # before any arithmetic, so numpy never warns
        with pytest.raises(ValueError, match="offset: must be finite and > 0"):
            make_cosine_schedule(10, bad)
    with pytest.raises(ValueError, match="every beta_t"):  # no public kind reaches it
        schedules._build(3, [0.1, math.nan, 0.2], "linear", {})
    with pytest.raises(ValueError, match="unknown schedule kind: bogus"):
        constructor("bogus")


@pytest.mark.parametrize("make", [
    lambda: make_linear_schedule(100, 1e-3, 0.2),
    lambda: make_linear_schedule(1000, 1e-4, 0.02),
    lambda: make_cosine_schedule(250, 0.008),
])
def test_product_and_posterior_variance_identities(make):
    s = make()
    rel = np.abs(s.alpha_bar[1:] - s.alpha_bar[:-1] * s.alpha[1:]) / s.alpha_bar[1:]
    assert np.max(rel) < 1e-15
    lhs = s.beta_tilde[1:] * (1.0 - s.alpha_bar[1:])
    rhs = (1.0 - s.alpha_bar[:-1]) * s.beta[1:]
    assert np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)) < 1e-15


def test_linear_1000_terminal_alpha_bar():
    s = make_linear_schedule(1000, 1e-4, 0.02)
    with mpmath.workdps(50):
        betas = [mpmath.mpf(1) * (1e-4 + (0.02 - 1e-4) * i / 999) for i in range(1000)]
        prod = mpmath.mpf(1)
        for b in betas:
            prod *= 1 - b
    assert s.alpha_bar[1000] < 1e-4
    assert abs(s.alpha_bar[1000] - float(prod)) < 1e-12 * float(prod) + 1e-18


def test_schedule_arrays_are_immutable():
    s = make_linear_schedule(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        s.beta[1] = 0.5


def test_schedules_compare_by_kind_T_and_args():
    s = make_linear_schedule(10, 1e-3, 0.2)
    assert s == make_linear_schedule(10, 1e-3, 0.2)
    assert make_cosine_schedule(10) == make_cosine_schedule(10, 0.008)
    for other in (make_cosine_schedule(10), make_linear_schedule(11, 1e-3, 0.2),
                  make_linear_schedule(10, 2e-3, 0.2), make_linear_schedule(10, 1e-3, 0.1),
                  make_cosine_schedule(10, 0.01)):
        assert s != other and not (s == other) and other != s  # used to raise on the arrays
    assert make_cosine_schedule(10) != make_cosine_schedule(10, 0.01)


def test_check_t_scalar_and_array():
    s = make_linear_schedule(5, 0.1, 0.2)
    for t in (1, 5, np.int64(3), np.array(2), np.arange(1, 6), np.array([], dtype=np.int64)):
        check_t(t, s)
    check_t(np.array([0, 5]), s, lo=0)
    for t in (0, 6, np.array(0), np.array([1, 2, 0, 3]), np.array([[1, 6], [2, 3]]),
              math.nan, math.inf, np.array([np.nan, 2.0])):
        with pytest.raises(ValueError, match="out of range"):
            check_t(t, s)
    for t in (2.5, np.float64(2.5), np.array([2.0, 2.5]), [2, 2.5],
              None, "1", ["a"], object()):  # these raised TypeError, not ValueError
        with pytest.raises(ValueError, match="integer-valued"):
            check_t(t, s)
    # the step index comes back as an int, or as an int64 array
    for t in (3, 3.0, np.int64(3), np.float64(3.0), np.array(3), np.array(3.0)):
        assert type(check_t(t, s)) is int and check_t(t, s) == 3
    for t in ([1, 5], np.array([1.0, 5.0]), np.array([1, 5], dtype=np.int32)):
        idx = check_t(t, s)
        assert idx.dtype == np.int64 and np.array_equal(idx, [1, 5])


def _index_outcome(check, v, lo, hi):
    """What check(v, lo, hi) gives: the int, or the array's type, dtype, shape and
    bytes, or the error it raises (a warning is raised as one)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = check(v, lo, hi, "idx")
    except (ValueError, RuntimeWarning) as e:
        return type(e), str(e)
    if isinstance(r, int):
        return type(r), r
    return type(r), r.dtype, r.shape, r.tobytes()


def _index_inputs(lo, hi):
    """Arrays of every kind check_index takes, at lo - 1, lo, hi, hi + 1, NO_MAX and
    2**64 - 1 where the dtype holds them, alone, beside an in-range entry, as 0-d
    arrays and as scalars; floats at 2.5, NaN and +-inf too; empty arrays of each kind."""
    probes = (lo - 1, lo, hi, hi + 1, NO_MAX, 2**64 - 1)
    for dtype in (np.bool_, np.int8, np.int64, np.uint8, np.uint64, np.float64):
        yield np.array([], dtype=dtype)
        if dtype is np.float64:
            values = [float(x) for x in probes] + [2.5, math.nan, math.inf, -math.inf]
        else:
            info = (0, 1) if dtype is np.bool_ else (np.iinfo(dtype).min, np.iinfo(dtype).max)
            values = [x for x in probes if info[0] <= x <= info[1]]
        if not values:
            continue
        yield np.array(values, dtype=dtype)
        for x in values:
            yield np.array([x], dtype=dtype)
            yield np.array(x, dtype=dtype)
            yield dtype(x)
            yield x
            yield np.array([[max(lo, 0), x]], dtype=dtype)  # beside an in-range entry


@pytest.mark.parametrize("lo, hi", [(1, 100), (2, 1000), (-1, 1), (0, 2), (0, NO_MAX)])
def test_check_index_matches_the_every_entry_reference(lo, hi):
    for v in _index_inputs(lo, hi):
        a = np.asarray(v)
        if hi == NO_MAX and a.dtype.kind == "f" and np.any(a == 2.0**63):
            # the reference compares a numpy float with NO_MAX as a float, 2.0**63, so it
            # lets 2.0**63 through (a cast warning, or an int above NO_MAX); it must fail
            assert _index_outcome(check_index, v, lo, hi)[0] is ValueError, repr(v)
        else:
            assert _index_outcome(check_index, v, lo, hi) == \
                _index_outcome(check_index_reference, v, lo, hi), repr(v)
    for v in (np.array([2.0**63]), np.array(2.0**63), np.float64(2.0**63)):
        with pytest.raises(ValueError, match="out of range"):
            check_index(v, lo, hi, "idx")


S5 = make_linear_schedule(5, 0.1, 0.2)
X = np.array([[0.3], [-0.7]])
NET = init_noise_predictor(1, hidden=(4,), rng=RngState(0))
T_USERS = {  # every public function that takes a step t, at two rows of x
    "forward_step": lambda t: forward_step(X, t, S5, RngState(0)),
    "marginal_q": lambda t: marginal_q(X, t, S5),
    "sample_xt": lambda t: sample_xt(X, t, S5, RngState(0)),
    "posterior_q": lambda t: posterior_q(X, 0.5 * X, t, S5),
    "x0_from_eps": lambda t: x0_from_eps(X, 0.5 * X, t, S5),
    "mu_tilde_from_eps": lambda t: mu_tilde_from_eps(X, 0.5 * X, t, S5),
    "loss_x0_weighted": lambda t: loss_x0_weighted(X, 0.5 * X, t, S5),
    "loss_eps_weighted": lambda t: loss_eps_weighted(X, 0.5 * X, t, S5),
    "eps_kl_weight": lambda t: eps_kl_weight(t, S5),
    "ddpm_step": lambda t: ddpm_step(NET, X, t, S5, rng=RngState(0)),
    "ddim_sigma_ddpm_equiv": lambda t: ddim_sigma_ddpm_equiv(t, S5),
    "ddim_step": lambda t: ddim_step(NET, X, t, 0.0, S5),
    "predict": lambda t: NET.predict(X, t, None, S5),
}


def _arrays_or_error(f, t):
    """The arrays that f(t) returns, or ValueError if it raises one."""
    try:
        out = f(t)
    except ValueError:
        return ValueError
    out = (out.mean, out.var) if isinstance(out, DiagGaussian) else out
    return [np.asarray(a) for a in (out if isinstance(out, tuple) else (out,))]


def _same_bits(a, b):
    if a is ValueError or b is ValueError:
        return a is b
    return len(a) == len(b) and all(u.shape == v.shape and np.array_equal(u, v)
                                    for u, v in zip(a, b))


@pytest.mark.parametrize("name", T_USERS)
def test_every_t_user_indexes_with_the_step_check_t_returns(name):
    f = T_USERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN must not reach an int cast
        assert _same_bits(_arrays_or_error(f, 3.0), _arrays_or_error(f, 3))
        assert _same_bits(_arrays_or_error(f, True), _arrays_or_error(f, 1))  # not a mask
        for bad in (2.5, np.array([np.nan, 2.0])):
            with pytest.raises(ValueError):
                f(bad)


def test_schedules_whose_alpha_bar_stalls_fail_at_construction():
    # T = 100000 underflows alpha_bar to 0; beta = 1e-20 rounds 1 - beta to 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN beta_tilde on the way
        for make in (lambda: make_linear_schedule(100000),
                     lambda: make_linear_schedule(10, 1e-20, 1e-20)):
            with pytest.raises(ValueError, match="alpha_bar"):
                make()

