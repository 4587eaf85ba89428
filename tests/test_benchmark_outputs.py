"""The benchmark's own output checks, run in tier-1.

For two fixed seeds, every workload of ``perfbench/workloads.py`` is set up
as ``perfbench/run.py`` sets it up, and one pass is made over its calls.
Each outcome goes through the workload's ``check`` against the outputs
recorded in ``perfbench/expected/``, so a change that breaks a verdict or a
witness check of the benchmark fails here first.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402  (the benchmark's directory, as run.py imports it)

SEEDS = (1, 2)


def failed_calls(workload, calls) -> list[tuple[str, str]]:
    """``(key, message)`` for each call whose outcome the workload rejects."""
    checked = ((call.key, workload.check(call, call.prepare()())) for call in calls)
    return [(key, error) for key, error in checked if error is not None]


def set_up(name: str, seed: int, work) -> tuple:
    workload = workloads.WORKLOADS[name](workloads.load_expected(name))
    return workload, workload.setup(seed, 1.0, str(work))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_outputs_match_the_recorded_ones(name, seed, tmp_path):
    workload, calls = set_up(name, seed, tmp_path)
    assert calls
    assert failed_calls(workload, calls) == []


def test_gate_reports_a_wrong_recorded_verdict(tmp_path):
    workload, calls = set_up("weak-sweep", SEEDS[0], tmp_path)
    key = calls[0].key
    workload.expected[key] = not workload.expected[key]
    assert {k for k, _message in failed_calls(workload, calls)} == {key}
