"""Benchmark runner for toydiff.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) as a closed loop with one client for
about ``--seconds`` seconds and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it holds the environment and a per-operation breakdown.

``--trace 0`` measures the end-to-end metrics with every toydiff function
unwrapped.  ``--trace 1`` gives the per-layer metrics instead: it runs
set-up and then rounds under the tracer (tracing.py), with a stretch of
untraced rounds in between as the baseline for ``trace.overhead_frac``,
and writes every span as JSON lines to perfbench/out/.
"""

import os

# pin BLAS to one thread before numpy is imported anywhere
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
CHECK_ITERATION = -2   # iteration id of spans recorded while outputs are checked


def _quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


class Reference:
    """Fixed numpy work, independent of toydiff, timed after every operation.

    The host's speed drifts by tens of percent from one minute to the next
    and moves this computation and the workloads alike, so the ratio of a
    round's latency to this one's is steadier across runs than either time.
    Like the workloads, it mixes one-row passes through a 64-wide tanh MLP
    (per-call overhead) with 4096-row passes (matmul and tanh).
    """

    def __init__(self):
        g = np.random.default_rng(0)
        self.weights = [g.standard_normal((7, 64)) / 3, g.standard_normal((64, 64)) / 8,
                        g.standard_normal((64, 1)) / 8]
        self.inputs = ((g.standard_normal((1, 7)), 200), (g.standard_normal((4096, 7)), 2))
        self.times = []

    def sample(self):
        t0 = time.perf_counter()
        for x, passes in self.inputs:
            for _ in range(passes):
                a = x
                for W in self.weights[:-1]:
                    a = np.tanh(a @ W)
                a @ self.weights[-1]
        self.times.append(time.perf_counter() - t0)


def run_round(w, it, tracer=None, reference=None):
    """Run and check every operation of round ``it``; time only the calls."""
    ops = []
    for kind, fn, units in w.ops(it):
        result, problems = None, []
        span = tracer.span(f"bench.{kind}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception:
            problems = [f"{kind}: {traceback.format_exc()}"]
        dt = time.perf_counter() - t0
        if not problems:
            if tracer:
                tracer.iteration = CHECK_ITERATION   # checks count toward no round
            problems = w.check(kind, result)
            if tracer:
                tracer.iteration = it
        ops.append((kind, dt, units, problems))
        if reference:
            reference.sample()
    return ops


def run_rounds(w, seconds, first_it, min_rounds, tracer=None, reference=None):
    """At least ``min_rounds`` rounds, then more while the next one, taking as
    long as the last, would still end within ``seconds``."""
    rounds, start, last = [], time.perf_counter(), 0.0
    while len(rounds) < min_rounds or time.perf_counter() + last - start <= seconds:
        it = first_it + len(rounds)
        if tracer is not None:
            tracer.iteration = it
        t0 = time.perf_counter()
        rounds.append(run_round(w, it, tracer, reference))
        last = time.perf_counter() - t0
    return rounds


def round_seconds(rounds):
    """Round latency with every operation at its kind's median time.

    A round holds several operations of each kind, so per-kind medians
    over the run resist a stall far better than the median of a few rounds.
    """
    times = {}
    for ops in rounds:
        for kind, dt, _, _ in ops:
            times.setdefault(kind, []).append(dt)
    return sum(statistics.median(ts) * len(ts) for ts in times.values()) / len(rounds)


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "seed": seed}


def op_breakdown(w, rounds):
    """Median and quartiles of each operation kind's time and throughput."""
    out = {}
    for kind, (metric, unit) in w.metrics.items():
        samples = [(dt, units) for ops in rounds for k, dt, units, _ in ops if k == kind]
        times = [dt for dt, _ in samples]
        rates = [units / dt for dt, units in samples]
        value = statistics.median(times) if unit == "s" else statistics.median(rates)
        out[metric] = {"value": value, "unit": unit, "n": len(samples),
                       "quartiles_s": _quartiles(times)}
    return out


def measure(w, seconds):
    """Untraced run: the end-to-end metrics."""
    import tracing
    tracing.assert_unwrapped()
    setup = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        w.setup()
        setup.append(time.perf_counter() - t0)
    reference = Reference()
    rounds = run_rounds(w, seconds, 0, 1, reference=reference)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_s, reference_s = round_seconds(rounds), statistics.median(reference.times)
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
               "round_rel": {"value": round_s / reference_s, "unit": "ratio"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    per_round = [sum(dt for _, dt, _, _ in ops) for ops in rounds]
    detail = {"round_s": round_s, "reference_s": reference_s,
              "reference_quartiles_s": _quartiles(reference.times), "rounds": len(rounds),
              "round_quartiles_s": _quartiles(per_round), "setup_repeats": len(setup),
              "ops": op_breakdown(w, rounds)}
    return rounds, metrics, detail, []


def measure_traced(w, seconds, trace_path, units):
    """Traced run: the per-layer metrics, plus the overhead against untraced rounds.

    ``units`` maps every per-layer metric to report to its unit.
    """
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            w.setup()
    finally:
        tracer.uninstall()
    tracing.assert_unwrapped()
    plain = run_rounds(w, seconds / 2, 0, 1)
    tracer.install()
    try:
        traced = run_rounds(w, seconds / 2, len(plain), 2, tracer)
    finally:
        tracer.uninstall()
    tracing.assert_unwrapped()
    its = list(range(len(plain), len(plain) + len(traced)))
    per_it = tracer.per_iteration()
    values, problems = tracing.layer_metrics(per_it, its)
    values["trace.overhead_frac"] = round_seconds(traced) / round_seconds(plain) - 1.0
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    os.makedirs(OUT, exist_ok=True)
    tracer.write_jsonl(trace_path)
    detail = {"rounds_untraced": len(plain), "rounds_traced": len(traced),
              "spans": len(tracer.starts), "trace_file": os.path.relpath(trace_path),
              "ops": tracing.op_metrics(per_it, its)}
    return plain + traced, metrics, detail, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toydiff", "__init__.py")):
        print(f"error: toydiff sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        if args.trace:
            path = os.path.join(OUT, f"trace-{args.workload}.jsonl")
            rounds, metrics, detail, problems = measure_traced(
                w, args.seconds, path, _per_layer_units())
        else:
            rounds, metrics, detail, problems = measure(w, args.seconds)
    finally:
        w.close()

    problems += [p for ops in rounds for _, _, _, ps in ops for p in ps]
    failed = sum(1 for ops in rounds for *_, ps in ops if ps)
    attempted = sum(len(ops) for ops in rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    detail.update(workload=args.workload, env=environment(args.seed),
                  error_rate=failed / attempted, problems=len(problems))
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _per_layer_units():
    """Unit of every per-layer metric, read from BENCHMARK.json beside perfbench/."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
