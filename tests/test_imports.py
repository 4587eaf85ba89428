"""Every module-level import, private helper, private constant and private
class member in the package is used, and so is every public module-level
function, class and constant that is neither exported nor named by the
benchmark (no linter is required)."""

import ast
import glob
import os
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dnacodec")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
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
    """``(label, name, nodes)`` for each module-level function, class and
    assigned name and each method, property and annotated field of a
    module-level class, with every node that defines the name (a property's
    getter and setter are one)."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
                yield name, name, [node]
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


def _imported_or_named(node):
    """The name a node refers to without an object: a bare or imported name.
    An import counts as a use, as the unused-import check stands behind it."""
    if isinstance(node, ast.Name):
        return node.id
    return node.name if isinstance(node, ast.alias) else None


def _unreferenced(sources: dict[str, str], reference, wanted) -> list[str]:
    """The definitions (see ``_definitions``) whose ``label`` and ``name``
    pass ``wanted`` and that no code in ``sources`` refers to, by
    ``reference``, outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = Counter(reference(n) for tree in trees.values() for n in ast.walk(tree))
    dead = []
    for module, tree in trees.items():
        for label, name, nodes in _definitions(tree):
            if not wanted(label, name):
                continue
            inside = sum(reference(n) == name for node in nodes for n in ast.walk(node))
            if uses[name] == inside:
                dead.append(f"{module}: {label}")
    return dead


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Unreferenced ``_private`` definitions."""
    return _unreferenced(sources, _reference, lambda label, name: name[0] == "_" and name[:2] != "__")


def dead_public_names(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """Unreferenced public module-level functions, classes and assigned names
    not in ``exempt``.  A method or attribute of the same name, such as
    ``list.reverse``, does not count as a reference to one of them."""
    return _unreferenced(
        sources, _imported_or_named, lambda label, name: label == name and name[0] != "_" and name not in exempt
    )


def exported(source: str) -> set[str]:
    """The names listed in the module's ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def named(source: str) -> set[str]:
    """Every name, attribute, imported name and string constant in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif ref := _reference(node):
            names.add(ref)
    return names


def test_checker_flags_a_dead_helper():
    helpers = "def _dead(n):\n    return _dead(n - 1)\n\n\nclass _Used:\n    pass\n"
    caller = "from helpers import _Used\n\nx = _Used()\n"
    assert dead_private_helpers({"helpers.py": helpers, "caller.py": caller}) == ["helpers.py: _dead"]


def test_checker_flags_a_dead_constant():
    helpers = (
        "_DEAD = set('()')\n_SEEN, _LEFT = 1, 2\n_TYPED: int = 3\n\n\n"
        "def _used():\n    return _SEEN + _TYPED\n"
    )
    caller = "from helpers import _used\n\n_used()\n"
    dead = dead_private_helpers({"helpers.py": helpers, "caller.py": caller})
    assert dead == ["helpers.py: _DEAD", "helpers.py: _LEFT"]


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


def _package_sources() -> dict[str, str]:
    sources = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    return sources


def test_no_dead_private_helpers():
    assert dead_private_helpers(_package_sources()) == []


def test_checker_flags_a_dead_public_name():
    helpers = (
        "def dead(xs):\n    xs.dead()\n    return dead(xs)\n\n\n"
        "def kept():\n    pass\n\n\nclass Shown:\n    pass\n\n\ndef used():\n    pass\n"
    )
    caller = "from helpers import used as alias\n\nalias()\n"
    package = '__all__ = ["Shown"]\n'
    bench = 'SPANS = [("helpers", "kept")]\n'
    exempt = exported(package) | named(bench)
    sources = {"helpers.py": helpers, "caller.py": caller, "__init__.py": package}
    assert dead_public_names(sources, exempt) == ["helpers.py: dead"]


def test_no_dead_public_names():
    sources = _package_sources()
    exempt = exported(sources["__init__.py"])
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            exempt |= named(fh.read())
    assert dead_public_names(sources, exempt) == []


# Operations that derive a machine from checked machines build it through
# ``_trusted``, and so does the parser, which checks its text itself; only the
# constructors and the builders check.
TRUSTED_BUILDERS = {
    "automata.py": {
        "trim", "remove_epsilon", "union", "concat", "star", "intersect", "determinize", "complement", "theta_image",
    },
    "transducers.py": {"_restriction", "normalize", "inverse", "compose", "image", "included_in_recognizable"},
    "fado.py": {"parse_fado"},
}


def checked_builds(source: str, functions: set[str]) -> list[str]:
    """``function: Class`` for each call ``Transducer(...)`` or ``Nfa(...)``
    inside the module-level ``functions``; a listed function that is missing
    is reported too, so a rename cannot slip past."""
    found, calls = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found.add(node.name)
            calls += [
                f"{node.name}: {call.func.id}"
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("Transducer", "Nfa")
            ]
    return calls + [f"{name}: missing" for name in sorted(functions - found)]


def test_checker_flags_a_checked_build():
    source = (
        "def kept(a):\n    return Nfa._trusted(a.alphabet, 1, (), (0,), ())\n\n\n"
        "def checked(a):\n    return Transducer(a.alphabet, 1, (), (0,), ())\n"
    )
    assert checked_builds(source, {"kept", "checked", "gone"}) == ["checked: Transducer", "gone: missing"]


@pytest.mark.parametrize("module", sorted(TRUSTED_BUILDERS))
def test_derived_machines_are_built_unchecked(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert checked_builds(fh.read(), TRUSTED_BUILDERS[module]) == []


def test_properties_reaches_the_weak_decision_through_one_entry():
    """``properties`` asks ``transducers._weak_pair`` for the weak decision
    and walks no graph itself."""
    with open(os.path.join(SRC, "properties.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert [name for module, name in imported if module == "transducers" and name[0] == "_"] == ["_weak_pair"]
    assert [name for module, name in imported if "graphs" in (module, name)] == []


def test_properties_builds_theta_of_l_in_one_function():
    """``properties`` builds theta(L) in one helper, so a new construction of it changes one place:
    only ``_theta_l`` lists the words of ``l`` and builds their trie, and ``theta_image`` is applied
    to ``l`` there alone; its only other call maps T(L) in the universe."""
    with open(os.path.join(SRC, "properties.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    calls = sorted(
        (node.name, call.func.id, ast.unparse(call.args[0]))
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("theta_image", "list_words", "_trie")
    )
    assert calls == [
        ("_extension_universe", "theta_image", "image(t, l)"),
        ("_theta_l", "_trie", "map(p.theta, words)"),
        ("_theta_l", "list_words", "l"),
        ("_theta_l", "theta_image", "l"),
    ]
