"""The two scripts the README points to run end to end on tiny arguments."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "benchmark_satisfaction",
            ["--cases", "1", "--transducer-states", "50", "--transducer-edges", "120", "--language-states", "3",
             "--universality", "2", "--maximality", "1"],
        ),
        ("property_hierarchy_demo", []),
        # the default mode, with one satisfied case (every third) and its phase split
        ("benchmark_satisfaction", ["--cases", "3", "--transducer-states", "50", "--transducer-edges", "120"]),
        # the handover sweep, one threshold forcing the walk after the first group
        ("benchmark_satisfaction", ["--cases", "3", "--transducer-states", "50", "--transducer-edges", "120",
                                    "--handover", "1500,0"]),
        # parse timings on one code file and the benchmark's descriptor transducers
        ("benchmark_satisfaction", ["--parse", "1"]),
    ],
)
def test_script_main_returns_0_on_tiny_arguments(name, argv, capsys):
    assert _script(name).main(argv) == 0
    assert capsys.readouterr().out
