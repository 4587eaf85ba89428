"""Every function and method the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py`` names its targets as ``(module, attribute, metric)``
triples in ``SPANS`` and ``COUNTS``.  The file is only parsed here, not
imported, so a renamed target fails this test instead of a traced run.
A method target ``Class.member`` is read from ``Class.__dict__``, so it
must be defined on that class itself, not inherited.
"""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def traced_targets() -> list[tuple[str, str]]:
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS") for t in node.targets
        ):
            targets += [(module, attr) for module, attr, _metric in ast.literal_eval(node.value)]
    return targets


def test_tracer_names_its_targets():
    targets = traced_targets()
    assert ("automata", "missing_word") in targets
    assert ("automata", "Nfa.step") in targets


@pytest.mark.parametrize("module, attr", traced_targets())
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(f"dnacodec.{module}")
    *classes, member = attr.split(".")
    for part in classes:
        owner = getattr(owner, part)
    assert member in vars(owner) if classes else hasattr(owner, member), f"dnacodec.{module} has no own {attr}"
    assert callable(getattr(owner, member))
