"""Every name the demos and the README import from toydiff exists.

No other test runs the demo scripts or the README's code, so removing or
renaming a public name would break them silently.  The check parses each
`demos/*.py` file and each python block of README.md with `ast`, without
running them, and resolves every `from toydiff... import name` it finds.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    for i, block in enumerate(blocks):
        yield f"README.md block {i}", block


SOURCES = dict(_sources())


def _missing(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "toydiff":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if alias.name != "*" and not hasattr(module, alias.name):
                    found.append(f"{node.module}.{alias.name} (line {node.lineno})")
    return found


def test_sources_are_found():
    assert sum(name.startswith("demo_") for name in SOURCES) >= 4
    assert any(name.startswith("README") for name in SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_imports_from_toydiff_resolve(name):
    assert _missing(SOURCES[name]) == []


def test_check_catches_a_removed_name():
    assert _missing("from toydiff import RngState, no_such_name\n") == \
        ["toydiff.no_such_name (line 1)"]
