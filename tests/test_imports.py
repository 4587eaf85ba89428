"""Every module-level import, private helper and private class member in the
package is used (no linter is required)."""

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


def _definitions(tree):
    """``(label, name, nodes)`` for each module-level function and class and
    each method, property and annotated field of a module-level class, with
    every node that defines the name (a property's getter and setter are one)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, [node]
        members: dict[str, list] = {}
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(member, ast.FunctionDef):
                members.setdefault(member.name, []).append(member)
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                members.setdefault(member.target.id, []).append(member)
        for name, nodes in members.items():
            yield f"{node.name}.{name}", name, nodes


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """``_private`` definitions (see ``_definitions``) that no code in
    ``sources`` refers to outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = Counter(_reference(n) for tree in trees.values() for n in ast.walk(tree))
    dead = []
    for module, tree in trees.items():
        for label, name, nodes in _definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            inside = sum(_reference(n) == name for node in nodes for n in ast.walk(node))
            if uses[name] == inside:
                dead.append(f"{module}: {label}")
    return dead


def test_checker_flags_a_dead_helper():
    helpers = "def _dead(n):\n    return _dead(n - 1)\n\n\nclass _Used:\n    pass\n"
    caller = "from helpers import _Used\n\nx = _Used()\n"
    assert dead_private_helpers({"helpers.py": helpers, "caller.py": caller}) == ["helpers.py: _dead"]


def test_checker_flags_a_dead_accessor():
    box = (
        "class Box:\n"
        "    _cache: int = 0\n\n"
        "    @property\n    def _norm(self):\n        return self._cache\n\n"
        "    @_norm.setter\n    def _norm(self, value):\n        self._cache = value\n\n"
        "    def _used(self):\n        return 1\n"
    )
    caller = "from box import Box\n\nBox()._used()\n"
    assert dead_private_helpers({"box.py": box, "caller.py": caller}) == ["box.py: Box._norm"]


def test_no_dead_private_helpers():
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert dead_private_helpers(sources) == []
