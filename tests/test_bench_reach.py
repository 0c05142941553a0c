"""What the benchmark reaches in the package still exists: names, modules and keywords.

perfbench/ runs its workloads on toydiff from outside the package, so a name it uses
that the package deletes ends every workload in a failed run rather than in a failed
test.  This file loads perfbench/tracing.py and perfbench/workloads.py (read-only: no
bytecode is written beside them), runs tracing.assert_unwrapped, which imports every
module the tracer may rebind, and walks workloads.py's syntax tree: each attribute it
reads from a toydiff module it imports must exist, and each call of a toydiff function
or class must bind its keywords (and, where no argument is starred, its positional
count) to the callee's signature.  So a field such as SamplerConfig.sigma_policy or
TrainConfig.eval_interval, or a module such as estimators, can only go together with
the benchmark's use of it.  Attributes of the objects a call returns are not seen.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = old
    return module


def _toydiff_names(tree, module):
    """{local name: object} for every name the file imports from toydiff."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "toydiff":
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.asname or alias.name)
    return names


def _resolve(node, names):
    """The toydiff object an expression names (a name or module.attribute), else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and inspect.ismodule(names.get(node.value.id)):
        return getattr(names[node.value.id], node.attr, None)
    return None


def _problems(tree, names):
    """(problems, calls): each toydiff attribute read that does not exist and each call
    whose arguments do not bind to its toydiff callee, and the number of calls checked."""
    problems, calls = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and inspect.ismodule(names.get(node.value.id)) \
                and not hasattr(names[node.value.id], node.attr):
            problems.append(f"line {node.lineno}: {node.value.id}.{node.attr} does not exist")
        callee = _resolve(node.func, names) if isinstance(node, ast.Call) else None
        if not callable(callee):
            continue
        calls += 1
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        signature = inspect.signature(callee)
        try:
            if any(isinstance(a, ast.Starred) for a in node.args):
                signature.bind_partial(**keywords)
            else:
                signature.bind(*node.args, **keywords)
        except TypeError as e:
            problems.append(f"line {node.lineno}: {ast.unparse(node.func)}: {e}")
    return problems, calls


def test_the_tracer_imports_every_module_it_names():
    _load("tracing").assert_unwrapped()


def test_every_toydiff_name_and_keyword_the_workloads_use_exists():
    workloads = _load("workloads")
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = _toydiff_names(tree, workloads)
    assert {"forward", "losses", "samplers", "training", "RngState"} <= names.keys()
    problems, calls = _problems(tree, names)
    assert problems == []
    assert calls >= 20  # the walk reaches the set-up, training, sampling and cli calls


def test_the_walk_finds_a_missing_name_a_stray_keyword_and_a_missing_argument():
    from toydiff import samplers, training
    tree = ast.parse("samplers.Trajectory\n"
                     "samplers.SamplerConfig(kind='ddim', sigma='zero')\n"
                     "training.train(1, 2, 3)\n")
    problems, calls = _problems(tree, {"samplers": samplers, "training": training})
    assert calls == 2 and [p.split(":")[0] for p in problems] == ["line 1", "line 2", "line 3"]
