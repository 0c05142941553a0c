"""Property-based fuzz of the public functions that take a step t: each call returns or
raises ValueError with the package's own message, and an array t is one step per row.

The functions are the reverse step's (reverse_coefficients, x0_from_eps,
mu_tilde_from_eps, the sigma-family mean of oracles.sigma_mean, ddpm_step, ddim_step
and the two weighted losses) and the forward process's (sample_xt, posterior_q,
marginal_q and forward_step).  Their inputs are linear and cosine schedules with
T <= 50; a scalar or array t, in range or not, integer-valued or not; a variance var or
a sigma that is None, 0, NaN, infinite, negative, inside the sigma family's range or
just above its top 1 - abar_{t-1}; an rng or none; and a second array of the first's
shape or of a mismatched one.  No call may raise TypeError, IndexError,
AttributeError or anything else (tier-1 turns warnings into errors as well), a
mismatched pair must fail rather than broadcast, an array t must fail unless it has
one step per row of (n, d) arrays, and a returned array keeps the shape of its input.
Where a call with an array t returns, each of its rows is the call at that row's t,
bit for bit, with the draws of one stream in row order.
Shapes stay at 3 x 2 or below, so the whole file takes about two seconds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sigma_mean

from toydiff.forward import forward_step, marginal_q, posterior_q, sample_xt
from toydiff.gaussian import DiagGaussian
from toydiff.losses import (loss_eps_weighted, loss_x0_weighted, mu_tilde_from_eps,
                            reverse_coefficients, x0_from_eps)
from toydiff.model import init_noise_predictor
from toydiff.rng import RngState
from toydiff.samplers import ddim_step, ddpm_step
from toydiff.schedules import make_cosine_schedule, make_linear_schedule

NET = init_noise_predictor(1, (4,), rng=RngState(0))
FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def schedules(draw):
    T = draw(st.integers(1, 50))
    return make_linear_schedule(T) if draw(st.booleans()) else make_cosine_schedule(T)


def scalar_ts(T):
    return st.one_of(st.integers(1, T), st.integers(-1, T + 2), st.sampled_from(
        [0.5, 2.5, float(T), np.float64(1.0), np.int64(T), True, np.nan, np.inf, -np.inf, 2**64]))


def array_ts(T, n):
    return st.lists(st.one_of(st.integers(0, T + 1), st.sampled_from([2.5, np.nan, 1.0])),
                    min_size=n, max_size=n).map(np.array)


def variances(sched, t):
    """var: half the time in range, else out of it; for a valid scalar t, points at and
    inside the top of the range 1 - abar_{t-1} and just above it."""
    good, bad = [None, 0.0, -0.0], [-1e-300, -1.0, np.nan, np.inf, -np.inf, 1e300]
    if isinstance(t, (int, np.integer)) and 1 <= t <= sched.T:
        v_max = 1.0 - sched.alpha_bar[t - 1]
        good += [v_max, 0.5 * v_max]
        bad += [np.nextafter(v_max, np.inf), v_max * (1 + 1e-12)]
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


@st.composite
def arrays(draw, n, d):
    """An (n, d) array and a second one of its shape or a mismatched shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(n, d)] * 4 + [(n,), (n, d + 1), (n + 1, d), (d,)]))
    return rng.normal(size=(n, d)), rng.normal(size=shape)


def _value_error_or(f, *args, **kw):
    """f's result, or ValueError if it raised one; any other exception fails the test."""
    try:
        return f(*args, **kw)
    except ValueError as e:
        assert str(e), f"{f.__name__} raised ValueError without a message"
        return ValueError


@FUZZ
@given(data=st.data())
def test_each_call_returns_or_raises_value_error(data):
    sched = data.draw(schedules())
    n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    array_t = data.draw(st.booleans())
    t = data.draw(array_ts(sched.T, data.draw(st.sampled_from([n, n, n + 1])))
                  if array_t else scalar_ts(sched.T))
    var = data.draw(variances(sched, t))
    a, b = data.draw(arrays(n, d))
    x = a[:, :1]  # the network's data_dim is 1
    rng = data.draw(st.sampled_from([None, RngState(1)]))
    sigma = None if var is None else np.sign(var) * np.sqrt(np.abs(var))
    calls = {
        "reverse_coefficients": lambda: reverse_coefficients(sched, t, var),
        "x0_from_eps": lambda: x0_from_eps(a, b, t, sched),
        "mu_tilde_from_eps": lambda: mu_tilde_from_eps(a, b, t, sched),
        "sigma_mean": lambda: sigma_mean(a, b, t, sched, var),
        "loss_x0_weighted": lambda: loss_x0_weighted(a, b, t, sched),
        "loss_eps_weighted": lambda: loss_eps_weighted(a, b, t, sched),
        "ddpm_step": lambda: ddpm_step(NET, x, t, sched, rng=rng),
        "ddim_step": lambda: ddim_step(NET, x, t, 0.0 if sigma is None else sigma, sched,
                                       rng=rng),
    }
    name = data.draw(st.sampled_from(sorted(calls)))
    out = _value_error_or(calls[name])
    if out is not ValueError and name != "reverse_coefficients":  # a mismatched pair fails
        assert a.shape == b.shape or name.endswith("_step")
        assert name.startswith("loss") or out.shape == (x if name.endswith("_step") else a).shape


@FUZZ
@given(data=st.data())
def test_array_t_rows_are_the_scalar_calls(data):
    sched = data.draw(schedules())
    n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    ts = data.draw(array_ts(sched.T, n))
    var = data.draw(st.sampled_from([None, 0.0, 1e-6, np.nan]))
    x, eps = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(2, n, d))
    calls = {
        "reverse_coefficients": lambda t, rows: np.hstack(reverse_coefficients(sched, t, var)),
        "x0_from_eps": lambda t, rows: x0_from_eps(x[rows], eps[rows], t, sched),
        "mu_tilde_from_eps": lambda t, rows: mu_tilde_from_eps(x[rows], eps[rows], t, sched),
        "sigma_mean": lambda t, rows: sigma_mean(x[rows], eps[rows], t, sched, var),
    }
    f = calls[data.draw(st.sampled_from(sorted(calls)))]
    out = _value_error_or(f, ts, slice(None))
    rows = [_value_error_or(f, t, i) for i, t in enumerate(ts)]
    failed = [row is ValueError for row in rows]
    if out is ValueError:
        assert any(failed)  # the array call fails only where some row's call fails
    else:
        assert not any(failed)
        assert all(np.asarray(row).tobytes() == out[i].tobytes() for i, row in enumerate(rows))


def _arrays(out):
    """The arrays of a forward call's result: x_t and eps, a Gaussian's mean and var, or x."""
    if isinstance(out, DiagGaussian):
        return [out.mean, out.var]
    return list(out) if isinstance(out, tuple) else [out]


@FUZZ
@given(data=st.data())
def test_each_forward_call_returns_or_raises_value_error(data):
    sched = data.draw(schedules())
    n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    array_t = data.draw(st.booleans())
    t = data.draw(array_ts(sched.T, data.draw(st.sampled_from([n, n, n + 1])))
                  if array_t else scalar_ts(sched.T))
    a, b = data.draw(arrays(n, d))  # b: the one state of the one-array calls, of any shape
    rng = RngState(1)
    calls = {
        "sample_xt": lambda: sample_xt(b, t, sched, rng),
        "forward_step": lambda: forward_step(b, t, sched, rng),
        "marginal_q": lambda: marginal_q(b, t, sched),
        "posterior_q": lambda: posterior_q(a, b, t, sched),
    }
    name = data.draw(st.sampled_from(sorted(calls)))
    out = _value_error_or(calls[name])
    if out is ValueError:
        assert rng.normal_draws == 0  # every check runs before the first draw
        return
    assert name != "posterior_q" or a.shape == b.shape  # a mismatched pair fails
    assert not array_t or b.ndim == 2 and len(b) == len(t)  # one step per row of b
    assert all(v.shape == b.shape for v in _arrays(out))


@FUZZ
@given(data=st.data())
def test_forward_array_t_rows_are_the_scalar_calls(data):
    sched = data.draw(schedules())
    n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    ts = data.draw(array_ts(sched.T, n))
    x, x0 = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(2, n, d))
    calls = {  # rng: one stream for the array call and one for the row calls in turn
        "sample_xt": lambda t, rows, rng: sample_xt(x0[rows], t, sched, rng),
        "forward_step": lambda t, rows, rng: forward_step(x[rows], t, sched, rng),
        "marginal_q": lambda t, rows, rng: marginal_q(x0[rows], t, sched),
        "posterior_q": lambda t, rows, rng: posterior_q(x[rows], x0[rows], t, sched),
    }
    f = calls[data.draw(st.sampled_from(sorted(calls)))]
    out = _value_error_or(f, ts, slice(None), RngState(3))
    rng = RngState(3)
    rows = [_value_error_or(f, t, i, rng) for i, t in enumerate(ts)]
    failed = [row is ValueError for row in rows]
    if out is ValueError:
        assert any(failed)  # the array call fails only where some row's call fails
    else:
        assert not any(failed)
        assert all(u[i].tobytes() == v.tobytes()
                   for i, row in enumerate(rows) for u, v in zip(_arrays(out), _arrays(row)))


def test_the_forward_row_contract_gives_the_package_messages():
    # each of these was broadcast: a (3, 3) Gaussian, a (3, 3) x_t, or numpy's message
    s = make_linear_schedule(10, 0.05, 0.2)
    with pytest.raises(ValueError, match="one shape"):
        posterior_q(np.zeros((3, 1)), np.zeros(3), 4, s)
    two_steps, rows = np.array([2, 3]), np.zeros((3, 1))
    for call in (lambda rng: sample_xt(np.zeros(3), np.array([1, 2, 3]), s, rng),
                 lambda rng: forward_step(np.zeros(3), np.array([1, 2, 3]), s, rng),
                 lambda rng: sample_xt(rows, two_steps, s, rng),
                 lambda rng: forward_step(rows, two_steps, s, rng),
                 lambda rng: marginal_q(rows, two_steps, s),
                 lambda rng: posterior_q(rows, rows, two_steps, s)):
        rng = RngState(0)
        with pytest.raises(ValueError, match="one row per step"):
            call(rng)
        assert rng.normal_draws == 0
