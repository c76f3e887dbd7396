"""The benchmark tracer against qknn_sim: every name it patches still exists
where it looks, and a traced run counts what it should and leaves nothing
patched behind.

``perfbench/tracing.py`` replaces each ``PLAN`` entry by name: module
functions with getattr on the home module, methods through the class's own
``__dict__``. A rename in qknn_sim would break ``perfbench/run.py --trace 1``;
these tests read that file and fail first.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qknn_sim import kmax, oracle, qadc, qknn

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plan() -> list:
    return _tracing().PLAN


def _bindings(plan) -> dict:
    """Every qknn_sim module binding, plus the class-dict entry of each
    method in ``plan``: all the tracer may replace. Imports every module
    ``plan`` names, which the tracer expects to find loaded."""
    homes = {module: importlib.import_module(f"qknn_sim.{module}") for module, *_ in plan}
    out = {(name, attr): value for name, mod in list(sys.modules.items())
           if name.split(".")[0] == "qknn_sim" for attr, value in vars(mod).items()}
    for module, attr, *_ in plan:
        if "." in attr:
            cls_name, method = attr.split(".")
            out[(module, attr)] = vars(getattr(homes[module], cls_name))[method]
    return out


def test_traced_circuit_run_builds_one_qadc_circuit_per_assembly_and_restores_every_name(
        monkeypatch):
    """A tiny circuit-exact classification run twice under the tracer, from
    no assembly plan: the first assembly at each (y, A) leaves a plan, the
    second reuses it, every assembly builds the F circuit once (its primed
    copy is F renamed), and uninstalling puts back every binding the tracer
    replaced."""
    monkeypatch.setattr(oracle, "_plans", {})
    tracing = _tracing()
    before = _bindings(tracing.PLAN)
    rng = np.random.default_rng([0, 9])
    states = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    train = qknn.TrainSet(states[:2], ["a", "b"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):  # the second run asks for the same (y, A) as the first
            qknn.qknn_classify(states[2], train, 1, qadc.PrecisionConfig(2),
                               kmax.SearchConfig(max_rounds=5, seed=0), mode="circuit-exact")
    finally:
        tracer.uninstall()
    after = _bindings(tracing.PLAN)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert tracer.calls("oracle.assemble") == 2 * len(oracle._plans) > 0
    assert tracer.calls("qadc.circuit_build") == tracer.calls("oracle.assemble")


@pytest.mark.parametrize("module,attr", [(entry[0], entry[1]) for entry in _plan()])
def test_tracer_plan_name_resolves(module, attr):
    home = importlib.import_module(f"qknn_sim.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(home, cls_name)), f"{attr} is not defined on the class"
    else:
        assert callable(getattr(home, attr, None)), f"qknn_sim.{module}.{attr} is gone"
