"""Every qknn_sim name the benchmark tracer patches still exists where it looks.

``perfbench/tracing.py`` replaces each ``PLAN`` entry by name: module
functions with getattr on the home module, methods through the class's own
``__dict__``. A rename in qknn_sim would break ``perfbench/run.py --trace 1``;
this test reads ``PLAN`` from that file and fails first.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _plan() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PLAN


@pytest.mark.parametrize("module,attr", [(entry[0], entry[1]) for entry in _plan()])
def test_tracer_plan_name_resolves(module, attr):
    home = importlib.import_module(f"qknn_sim.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(home, cls_name)), f"{attr} is not defined on the class"
    else:
        assert callable(getattr(home, attr, None)), f"qknn_sim.{module}.{attr} is gone"
