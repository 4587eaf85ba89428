"""Every module-level import and private helper in the package is used (no
linter is required)."""

import ast
import os
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dnacodec")
MODULES = sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys as system\nsystem.exit\n"
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def _reference(node):
    """The name a node refers to: a bare name or an attribute."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes that no code in
    ``sources`` refers to outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = Counter(_reference(n) for tree in trees.values() for n in ast.walk(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = sum(_reference(n) == node.name for n in ast.walk(node))
            if uses[node.name] == inside:
                dead.append(f"{module}: {node.name}")
    return dead


def test_checker_flags_a_dead_helper():
    helpers = "def _dead(n):\n    return _dead(n - 1)\n\n\nclass _Used:\n    pass\n"
    caller = "from helpers import _Used\n\nx = _Used()\n"
    assert dead_private_helpers({"helpers.py": helpers, "caller.py": caller}) == ["helpers.py: _dead"]


def test_no_dead_private_helpers():
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert dead_private_helpers(sources) == []
