"""Span tracing for the benchmark, installed on toydiff from outside the package.

``Tracer.install`` wraps every public function and method of the traced
layers, plus the private hot paths named in ``EXTRA``, and rebinds each
wrapper at every name a caller looks the original up by: the globals of
each toydiff module, the package namespace, and the defining class.  So a
call made inside the package (``samplers`` calling the ``mu_tilde_from_eps``
it imported from ``losses``) is traced as well.  ``uninstall`` puts the
original objects back.

Spans are kept in memory as parallel arrays (name, start, end, parent,
iteration) and written out as JSON lines when the run ends.  The program is
single-threaded, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.

``estimators`` and ``evaluation`` are not traced: no timed workload passes
through the first, and the second runs only in the benchmark's checks.
"""

import array
import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

import toydiff

LAYERS = ("rng", "schedules", "gaussian", "forward", "model", "losses",
          "training", "samplers", "guidance", "persistence", "cli")
# private names traced besides every public function and method
EXTRA = {"_Network", "_features", "_forward", "_backward", "_scaled_grad",
         "_read_config"}
# classes whose construction is traced
CONSTRUCTORS = {"RngState", "DiagGaussian", "Trajectory", "VlbReport"}
ORIGINAL = "__perfbench_original__"

STEP_SPANS = {"samplers.ddpm_step", "samplers.ddim_step",
              "guidance.guided_ddpm_step"}
TRAIN_SPAN = "training.train"
FORWARD_SPAN = "model._Network._forward"
LOSS_GRAD_SPAN = "model.NoisePredictor.loss_and_grad"
TRAJECTORY_SPAN = "forward.Trajectory.__init__"
SCHEDULE_SPANS = ("schedules.make_linear_schedule",
                  "schedules.make_cosine_schedule")
# counters that must repeat exactly from one round to the next
EXACT = ("rng.normal_draws", "model.evals", "model.rows", "model.flops",
         "samplers.trajectory_objects", "cli.config_reads",
         "persistence.bytes_written")


def _modules():
    """The package and every toydiff module whose globals may hold a target."""
    names = LAYERS + ("estimators", "evaluation")
    return [toydiff] + [importlib.import_module(f"toydiff.{n}") for n in names]


def _traced(name):
    return not name.startswith("_") or name in EXTRA or name.startswith("_cmd_")


def targets():
    """(owner, attribute, layer) for every function and method to trace."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"toydiff.{layer}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or not _traced(name):
                continue
            if inspect.isfunction(obj):
                out.append((mod, name, layer))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (
                            _traced(attr) or (attr == "__init__" and name in CONSTRUCTORS)):
                        out.append((obj, attr, layer))
    return out


def assert_unwrapped():
    """Raise if any toydiff module or class still holds a tracing wrapper."""
    for mod in _modules():
        for name, obj in vars(mod).items():
            owners = [(mod, name, obj)]
            if inspect.isclass(obj) and obj.__module__.startswith("toydiff"):
                owners += [(obj, a, v) for a, v in vars(obj).items()]
            for owner, attr, value in owners:
                if hasattr(value, ORIGINAL):
                    raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")


def self_times(starts, ends, parents):
    """Each span's duration minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def _size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_pass(net, rows, flops_per_mac, tracer, evals):
    widths = (net.in_features,) + net.hidden + (net.out_dim,)
    macs = sum(a * b for a, b in zip(widths, widths[1:]))
    tracer.count("model.flops", flops_per_mac * rows * macs)
    if evals:
        tracer.count("model.evals", 1)
        tracer.count("model.rows", rows)


# hooks run after the wrapped call returns: (tracer, args, kwargs, result)
HOOKS = {
    FORWARD_SPAN: lambda t, a, k, r: _count_pass(a[0], a[1].shape[0], 2, t, True),
    "model._Network._backward": lambda t, a, k, r: _count_pass(a[0], a[2].shape[0], 4, t, False),
    "rng.RngState.standard_normal": lambda t, a, k, r: t.count("rng.normal_draws", np.size(r)),
    "persistence.save_checkpoint": lambda t, a, k, r: t.count("persistence.bytes_written", _size(a[2])),
    "persistence.write_csv": lambda t, a, k, r: t.count("persistence.bytes_written", _size(a[0])),
    "persistence.load_checkpoint": lambda t, a, k, r: t.count("persistence.bytes_read", _size(a[0])),
}


class Tracer:
    """In-memory span recorder; ``iteration`` tags every span and count."""

    def __init__(self):
        self.names, self._ids = [], {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.iterations = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.current = -1
        self.iteration = -1
        self.counts = {}
        self._installed = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, k):
        self.counts.setdefault(self.iteration, Counter())[key] += k

    def _open(self, nid):
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.current)
        self.iterations.append(self.iteration)
        self.ends.append(0.0)
        self.current = i
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self.current = self.parents[i]

    @contextlib.contextmanager
    def span(self, name):
        """Record one span named ``name`` around the ``with`` body."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name):
        nid, hook, tracer = self._name_id(name), HOOKS.get(name), self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self):
        """Wrap every target at each name its callers look it up by."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for owner, attr, layer in targets():
            fn = vars(owner)[attr]
            wrapper = self._wrap(fn, f"{layer}.{fn.__qualname__}")
            if inspect.isclass(owner):
                self._bind(owner, attr, fn, wrapper)
            else:
                by_id[id(fn)] = (fn, wrapper)
        for mod in _modules():
            for name, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind(mod, name, obj, hit[1])

    def uninstall(self):
        """Put every original object back where install found it."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def per_iteration(self):
        """Counter of layer self times, span counts and counters per iteration."""
        selfs = self_times(self.starts, self.ends, self.parents)
        names, name_ids, parents = self.names, self.name_ids, self.parents
        # innermost enclosing train or sampler-step span and enclosing benchmark
        # operation, both propagated in start order (a parent precedes its children)
        within, ops = [], []
        out = {it: Counter(c) for it, c in self.counts.items()}
        for i, it in enumerate(self.iterations):
            name = names[name_ids[i]]
            p = parents[i]
            outer, op = (within[p], ops[p]) if p >= 0 else (None, None)
            within.append(name if name in STEP_SPANS or name == TRAIN_SPAN else outer)
            ops.append(name[len("bench."):] if name.startswith("bench.") else op)
            c = out.setdefault(it, Counter())
            layer = name.split(".", 1)[0]
            c[f"{layer}.self_s"] += selfs[i]
            c[f"{layer}.calls"] += 1
            c[f"span:{name}"] += 1
            c[f"span_s:{name}"] += self.ends[i] - self.starts[i]
            if name == FORWARD_SPAN:
                c[f"op:{op}:evals"] += 1
                if outer is not None:
                    c["train_evals" if outer == TRAIN_SPAN else "step_evals"] += 1
            elif name == LOSS_GRAD_SPAN and outer == TRAIN_SPAN:
                c["train_steps"] += 1
                c[f"op:{op}:train_steps"] += 1
            elif name in STEP_SPANS:
                c[f"op:{op}:chain_steps"] += 1
            elif name == TRAJECTORY_SPAN and p >= 0 and \
                    names[name_ids[p]].split(".", 1)[0] in ("samplers", "guidance"):
                c["samplers.trajectory_objects"] += 1
        for c in out.values():
            c["samplers.steps"] = sum(c[f"span:{n}"] for n in STEP_SPANS)
            c["cli.config_reads"] = c["span:cli._read_config"]
        return out

    def write_jsonl(self, path):
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        quoted = [json.dumps(n) for n in self.names]
        with open(path, "w") as fh:
            for i in range(len(self.starts)):
                fh.write(f'{{"id": {i}, "name": {quoted[self.name_ids[i]]}, '
                         f'"start": {self.starts[i] - t0:.9f}, "end": {self.ends[i] - t0:.9f}, '
                         f'"parent": {self.parents[i]}, "iteration": {self.iterations[i]}}}\n')


def layer_metrics(per_it, rounds, setup_it=-1):
    """Per-round layer metrics averaged over ``rounds`` (iteration ids).

    Returns (metrics, problems): problems lists every exact counter that
    differed between two of the rounds.
    """
    cs = [per_it.get(it, Counter()) for it in rounds]
    problems = [f"{key} differs between rounds: {[c[key] for c in cs]}"
                for key in EXACT if len({c[key] for c in cs}) > 1]
    mean = lambda key: sum(c[key] for c in cs) / len(cs)
    ratio = lambda a, b: mean(a) / mean(b) if mean(b) else 0.0
    m = {f"{layer}.self_s": mean(f"{layer}.self_s") for layer in LAYERS}
    for key in EXACT + ("persistence.bytes_read", "samplers.steps"):
        m[key] = int(round(mean(key)))
    for kind in ("standard_normal", "uniform", "integers", "choice"):
        m[f"rng.draw_calls.{kind}"] = int(round(mean(f"span:rng.RngState.{kind}")))
    m.update({
        "model.rows_per_eval": ratio("model.rows", "model.evals"),
        "model.s_per_row": ratio("model.self_s", "model.rows"),
        "model.evals_per_train_step": ratio("train_evals", "train_steps"),
        "model.evals_per_chain_step": ratio("step_evals", "samplers.steps"),
        "model.loss_and_grad_s": mean(f"span_s:{LOSS_GRAD_SPAN}"),
        "gaussian.calls": int(round(mean("gaussian.calls"))),
        "persistence.save_checkpoint_s": mean("span_s:persistence.save_checkpoint"),
        "persistence.load_checkpoint_s": mean("span_s:persistence.load_checkpoint"),
        "persistence.write_csv_s": mean("span_s:persistence.write_csv"),
    })
    setup = per_it.get(setup_it, Counter())
    m["schedules.build_s"] = sum((setup[f"span_s:{n}"] for n in SCHEDULE_SPANS), 0.0)
    return m, problems


def op_metrics(per_it, rounds):
    """Model evaluations per benchmark operation kind, averaged over ``rounds``."""
    total = Counter()
    for it in rounds:
        total.update(per_it.get(it, Counter()))
    out = {}
    for key, n in total.items():
        if key.startswith("span:bench."):
            op = key[len("span:bench."):]
            evals = total[f"op:{op}:evals"]
            steps = {k: total[f"op:{op}:{k}"] for k in ("train_steps", "chain_steps")}
            out[op] = {"ops": n // len(rounds), "model.evals_per_op": evals / n}
            for k, v in steps.items():
                if v:
                    out[op][f"model.evals_per_{k[:-1]}"] = evals / v
    return out
