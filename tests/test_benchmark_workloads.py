"""The benchmark's workloads against qknn_sim: every call they make into the
package still works and every output passes the benchmark's own check.

``perfbench/workloads.py`` calls the public API (``k_maxima`` with a
positional ``M``, ``classical_knn``, ``qknn_classify`` in both quantum
modes, ``discriminate``, the corpus generators). A change in qknn_sim that
breaks one of those calls would show only when ``perfbench/run.py`` runs;
this test runs each workload's tiny instance once and fails first.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["entanglement", "sweep", "circuit"])
def test_tiny_workload_runs_every_operation_without_a_fail(name):
    workload = _workloads().WORKLOADS[name](tiny=True)
    inputs = workload.setup(0)
    assert inputs.ops
    statuses = [workload.check(inputs, op, workload.run(inputs, op)).status
                for op in inputs.ops]
    assert "fail" not in statuses, statuses
