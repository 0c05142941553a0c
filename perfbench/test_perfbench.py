"""Tests of the benchmark's own tracing: self-time arithmetic and clean wrappers.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py
"""

import inspect
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import toydiff  # noqa: E402
from toydiff import forward, losses, model, samplers  # noqa: E402
from toydiff.rng import RngState  # noqa: E402

import tracing  # noqa: E402


def _snapshot():
    """Every attribute of every toydiff module and class, by identity."""
    snap = {}
    for mod in tracing._modules():
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("toydiff"):
                for attr, value in vars(obj).items():
                    snap[(mod.__name__, name, attr)] = value
    return snap


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_per_iteration_sums_self_time_by_layer():
    t = tracing.Tracer()
    for name, start, end, parent in (("bench.op", 0.0, 10.0, -1),
                                     ("model.NoisePredictor.predict", 1.0, 6.0, 0),
                                     ("model._Network._forward", 2.0, 5.0, 1),
                                     ("rng.RngState.standard_normal", 3.0, 4.0, 2),
                                     ("losses.mu_tilde_from_eps", 7.0, 8.0, 0)):
        t._open(t._name_id(name))
        t.starts[-1], t.ends[-1], t.parents[-1] = start, end, parent
    c = t.per_iteration()[-1]
    assert c["bench.self_s"] == 4.0
    assert c["model.self_s"] == 2.0 + 2.0
    assert c["rng.self_s"] == 1.0
    assert c["losses.self_s"] == 1.0
    assert c["op:op:evals"] == 1


def test_install_wraps_each_lookup_name_and_uninstall_restores_originals():
    before = _snapshot()
    originals = (losses.kl_closed_form, losses.mu_tilde_from_eps,
                 model.NoisePredictor.predict)
    t = tracing.Tracer()
    t.install()
    try:
        # the name each caller looks up, not only the definition
        assert samplers.mu_tilde_from_eps is losses.mu_tilde_from_eps is toydiff.mu_tilde_from_eps
        assert getattr(samplers.mu_tilde_from_eps, tracing.ORIGINAL) is originals[1]
        assert getattr(losses.kl_closed_form, tracing.ORIGINAL) is originals[0]
        assert getattr(model.NoisePredictor.predict, tracing.ORIGINAL) is originals[2]
        assert hasattr(vars(forward.Trajectory)["__init__"], tracing.ORIGINAL)
        with pytest.raises(RuntimeError):
            tracing.assert_unwrapped()
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tracing.assert_unwrapped()


def test_traced_call_records_spans_counters_and_identical_results():
    sched = toydiff.make_linear_schedule(10)
    m = model.init_noise_predictor(1, (8,), rng=RngState(0))
    x = np.zeros((5, 1))
    plain = m.predict(x, 3, sched=sched)
    t = tracing.Tracer()
    t.install()
    try:
        t.iteration = 0
        traced = m.predict(x, 3, sched=sched)
        samplers.sample_reverse(m, samplers.SamplerConfig(n_chains=3), sched, rng=RngState(1))
    finally:
        t.uninstall()
    np.testing.assert_array_equal(plain, traced)
    c = t.per_iteration()[0]
    assert c["span:model.NoisePredictor.predict"] == 1 + sched.T
    assert c["model.evals"] == 1 + sched.T
    assert c["model.rows"] == 5 + 3 * sched.T
    # widths (5, 8, 1): 48 multiply-adds per row, 2 flops each
    assert c["model.flops"] == 2 * 48 * (5 + 3 * sched.T)
    assert c["rng.normal_draws"] == 3 * sched.T   # x_T plus one draw per step above t=1
    assert c["samplers.steps"] == sched.T
    assert c["samplers.trajectory_objects"] == 3
    metrics, problems = tracing.layer_metrics({0: c, 1: c}, [0, 1])
    assert problems == []
    assert metrics["model.evals_per_chain_step"] == 1.0
