"""The test dependencies CI installs are the ones the ``test`` extra pins.

Both files are read as plain text: ``tomllib`` is missing on Python 3.10.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIN = re.compile(r"([A-Za-z0-9_.-]+)==([A-Za-z0-9_.+-]+)")


def ci_pins(workflow: str) -> dict:
    """``name -> version`` of the ``pip install`` lines of a workflow."""
    return dict(pin for line in workflow.splitlines() if "pip install" in line for pin in PIN.findall(line))


def extra_requirements(pyproject: str) -> list:
    """The requirement strings of the ``test`` extra, as written."""
    match = re.search(r"^test\s*=\s*\[([^\]]*)\]", pyproject, re.MULTILINE)
    return re.findall(r"\"([^\"]+)\"", match.group(1)) if match else []


def pin_mismatch(workflow: str, pyproject: str) -> list:
    """The requirements on which the workflow and the ``test`` extra differ."""
    ci, extra = ci_pins(workflow), extra_requirements(pyproject)
    pinned = dict(pin for req in extra for pin in PIN.findall(req))
    unpinned = [req for req in extra if not PIN.fullmatch(req)]
    return sorted(set(ci.items()) ^ set(pinned.items())) + unpinned


def read(*parts: str) -> str:
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def test_checker_flags_differing_pins():
    workflow = "      run: python -m pip install pytest==9.0.3 hypothesis==6.155.2\n"
    assert pin_mismatch(workflow, 'test = ["pytest==9.0.3", "hypothesis==6.155.2"]\n') == []
    assert pin_mismatch(workflow, 'test = ["pytest", "hypothesis==6.155.2"]\n') == [("pytest", "9.0.3"), "pytest"]
    assert pin_mismatch(workflow, 'test = ["pytest==9.0.3", "hypothesis==6.100.0"]\n') == [
        ("hypothesis", "6.100.0"),
        ("hypothesis", "6.155.2"),
    ]


def test_ci_installs_the_pinned_test_extra():
    workflow, pyproject = read(".github", "workflows", "tests.yml"), read("pyproject.toml")
    assert ci_pins(workflow), "no pinned pip install line in the workflow"
    assert pin_mismatch(workflow, pyproject) == []
