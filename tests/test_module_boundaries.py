"""No toydiff module uses another toydiff module's private names, only
`schedules` decides what a valid integer input is, and only `losses` and
`forward` build a reverse mean.

A `_`-prefixed name is private to the module that defines it.  The check
parses every module of the package and fails on a `from .other import _x`
and on an attribute read `other._x` (or `Imported._x`) where `other` or
`Imported` was imported from another toydiff module.  A second check fails
if a module other than `schedules` tests integrality itself instead of
calling `check_index` or `check_count`.  A third fails if a module other
than `losses` (whose `reverse_step` is the one update of the reverse
process, on the coefficients of `reverse_coefficients`) and `forward`
(whose `posterior_q` is its x0-form reference) reads abar_{t-1}, the term
every update formula of the reverse process needs.  A fourth fails if a
module other than `schedules`, `forward` and `losses` reads a schedule's
`alpha`, `beta` or `beta_tilde`, the arrays every reverse coefficient is
built from; the others read `alpha_bar` and `T` at most.
"""

import ast
from pathlib import Path

import toydiff

PACKAGE = Path(toydiff.__file__).parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("toydiff"):
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {module}.{alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names
                            if a.name.startswith("toydiff"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in imported):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [v for path in modules for v in _violations(path)] == []


INTEGRALITY_TESTS = ("np.integer", "% 1", ".is_integer(", "astype(np.int64")


def test_only_schedules_decides_what_an_integer_input_is():
    found = [f"{path.name}:{i} {line.strip()}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "schedules.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if any(pattern in line for pattern in INTEGRALITY_TESTS)]
    assert found == []


PREVIOUS_ABAR = ("alpha_bar[t - 1]", "alpha_bar[t-1]", "alpha_bar.item(t - 1)")


def test_only_losses_and_forward_read_the_previous_alpha_bar():
    found = [f"{path.name}:{i} {line.strip()}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("losses.py", "forward.py")
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if any(pattern in line for pattern in PREVIOUS_ABAR)]
    assert found == []


SCHEDULE_ARRAYS = {"alpha", "beta", "beta_tilde"}


def test_only_schedules_forward_and_losses_read_the_per_step_schedule_arrays():
    found = [f"{path.name}:{node.lineno} reads .{node.attr}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("schedules.py", "forward.py", "losses.py")
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in SCHEDULE_ARRAYS]
    assert found == []
