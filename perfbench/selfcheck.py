#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Asserts that:
- BENCHMARK.json lists exactly the workloads and metrics of catalog.py;
- every end-to-end metric is emitted with its unit for every workload, is
  never zero, and two runs give the same output digest;
- every per-layer metric is emitted with its unit, non-zero on each workload
  that exercises its layer and zero where the layer is not used (statevec on
  entanglement and sweep, datasets on circuit);
- the counts of two traced runs match exactly.
Each workload runs one fixed pass of its tiny operation list, so the
counts repeat.
"""
import json
import math
import sys

import run

SEED = 3
TIMED_UNITS = {"s", "s/op", "1/s", "%"}

# metric-name prefixes each workload must drive above zero
EXERCISED = {
    "entanglement": ["oracle.table_handle", "oracle.run_round", "kmax.", "qknn.similarity_table",
                     "qknn.top_k", "qknn.classical_knn", "qknn.qknn_classify", "qadc.quantize",
                     "datasets.gen_corpus", "datasets.states_per_s", "datasets.label",
                     "datasets.haar_accept_ratio"],
    "sweep": ["oracle.table_handle", "oracle.run_round", "kmax.", "qknn.similarity_table",
              "qknn.discriminate", "qadc.quantize", "datasets.discrimination_instance",
              "datasets.states_per_s", "datasets.haar_accept_ratio"],
    "circuit": ["statevec.", "oracle.", "kmax.", "qknn.similarity_table", "qknn.qknn_classify",
                "qadc.", "subroutines."],
}
# metric-name prefixes that must read zero on each workload
UNUSED = {
    "entanglement": ["statevec.", "oracle.assemble", "oracle.circuit_apps", "oracle.verify_apps",
                     "qadc.circuit_build", "subroutines.", "qknn.discriminate",
                     "datasets.discrimination_instance"],
    "sweep": ["statevec.", "oracle.assemble", "oracle.circuit_apps", "oracle.verify_apps",
              "qadc.circuit_build", "subroutines.", "qknn.classical_knn", "qknn.top_k",
              "qknn.qknn_classify", "datasets.gen_corpus", "datasets.label"],
    "circuit": ["datasets.", "oracle.table_handle", "qknn.classical_knn", "qknn.top_k", "qknn.discriminate"],
}

# zero when a tiny search never replaces a member of its starting set
MAY_BE_ZERO = {"kmax.round_success_ratio", "kmax.confirmation_tail_ratio"}


def _matches(name, prefixes):
    return any(name.startswith(p) for p in prefixes)


def check_benchmark_json(catalog) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_workloads = [{"name": n, "why": w} for n, w in catalog.WORKLOADS.items()]
    assert spec["workloads"] == want_workloads, "workloads differ from catalog.py"
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in catalog.END_TO_END]
    assert spec["end_to_end"] == want_e2e, "end_to_end differs from catalog.py"
    want_layer = [{"name": n, "unit": u, "better": b} for n, u, b, _ in catalog.PER_LAYER]
    assert spec["per_layer"] == want_layer, "per_layer differs from catalog.py"


def check_workload(name, catalog) -> None:
    import workloads

    ops = workloads.WORKLOADS[name](True).setup(SEED).digest_ops  # one full tiny pass
    a = run.measure(name, SEED, 0, tiny=True, ops=ops)
    b = run.measure(name, SEED, 0, tiny=True, ops=ops)
    for res in (a, b):
        assert res["run"].failed == 0, f"{name}: failed operations"
        assert set(res["metrics"]) == set(catalog.END_TO_END_UNITS), f"{name}: end-to-end keys"
        for metric, value in res["metrics"].items():
            assert math.isfinite(value) and value > 0, f"{name}: {metric} = {value}"
    assert a["digest"] is not None and a["digest"] == b["digest"], f"{name}: digests differ"

    t1 = run.measure_traced(name, SEED, 0, tiny=True, ops=ops)
    t2 = run.measure_traced(name, SEED, 0, tiny=True, ops=ops)
    for res in (t1, t2):
        assert set(res["metrics"]) == set(catalog.PER_LAYER_UNITS), f"{name}: per-layer keys"
    for metric, unit in catalog.PER_LAYER_UNITS.items():
        v1, v2 = t1["metrics"][metric], t2["metrics"][metric]
        assert math.isfinite(v1), f"{name}: {metric} = {v1}"
        if unit not in TIMED_UNITS:
            assert v1 == v2, f"{name}: count {metric} differs between traced runs: {v1} != {v2}"
        if metric.startswith("trace."):
            continue
        if _matches(metric, UNUSED[name]):
            assert v1 == 0, f"{name}: {metric} should be zero, got {v1}"
        elif _matches(metric, EXERCISED[name]) and metric not in MAY_BE_ZERO:
            assert v1 > 0, f"{name}: {metric} should be exercised, got {v1}"
    print(f"selfcheck {name}: ok (digest {a['digest'][:12]}, "
          f"{len(catalog.PER_LAYER)} layer metrics, counts repeat)")


def main() -> int:
    run.import_program()
    sys.path.insert(0, str(run.BENCH))
    import catalog

    check_benchmark_json(catalog)
    for name in catalog.WORKLOADS:
        check_workload(name, catalog)
    print("selfcheck: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
