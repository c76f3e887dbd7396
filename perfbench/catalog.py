"""Every metric the benchmark reports, with its unit, direction and bound.

END_TO_END metrics come from untraced runs (``--trace 0``); PER_LAYER
metrics come from the traced run (``--trace 1``). Each per-layer entry names
the end-to-end metric and workload it is expected to move, written down
before any optimisation is measured against it. BENCHMARK.json carries the
same names, units, directions and bounds; ``selfcheck.py`` keeps the two in
step.

Per-layer conventions:
- Operation-phase metrics are per operation ("/op" units), averaged over the
  traced operations, so that runs of different length compare.
- ``datasets.*`` metrics describe one traced set-up (inputs are generated in
  set-up), so their units carry no "/op".
- A name ending in ``_self_s`` is self time: the span's duration minus the
  time its traced children cover. Any other ``_s`` is inclusive time, with
  nested spans of the same metric counted once.
"""

WORKLOADS = {
    "entanglement": "criterion-8 loop, one corpus seed, all three schemes: table "
                    "path at M=1800-4500, top-k sort, SVD labeling; no statevec",
    "sweep": "criteria 6 and 7: thousands of small tie-free k_maxima tables and "
             "discrimination instances, per-round Python overhead dominates",
    "circuit": "circuit-exact classify at M=2, n=1, b=2, k=1 (14 qubits): the only "
               "workload that runs statevec kernels, oracle assembly and qadc circuits",
}

# (name, unit, better, bound). The timing bounds are the widest allowed
# because this is a shared 2-vCPU host: a fixed CPU-bound loop's speed swings
# by up to 1.7x within seconds, and the same run repeated minutes later can
# take up to 2.5x as long (circuit). In wall-clock time ten seeded runs of
# one commit spread by up to 0.3 (quartile distance over median) on the
# timing metrics, so setup_s, ops_per_s and op_ms.p50 are reported in
# host-normalized time (hostclock.py): each interval is scaled by a
# reference kernel timed around it. Their raw wall-clock values are printed
# and recorded, not gated.
#
# op_ms.p90 and wall_s are printed but not gated: every gated metric must be
# reported for every workload, circuit completes only about 14 operations per
# run (too few for a p90 with ten samples beyond it), and in a fixed
# --seconds window the run's wall time is set by the window.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("oracle_queries_per_op", "count", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, "end-to-end metric on workload it should move")
PER_LAYER = [
    # statevec: zero on entanglement and sweep (prediction: no change there)
    ("statevec.apply_circuit_s", "s/op", "lower", "op_ms.p50, ops_per_s on circuit"),
    ("statevec.gates", "count/op", "lower", "op_ms.p50, ops_per_s on circuit"),
    ("statevec.gates_per_s", "1/s", "higher", "op_ms.p50, ops_per_s on circuit"),
    ("statevec.gates.1q", "count/op", "lower", "op_ms.p50 on circuit"),
    ("statevec.gates.controlled", "count/op", "lower", "op_ms.p50 on circuit"),
    ("statevec.gates.multi_target", "count/op", "lower", "op_ms.p50 on circuit"),
    ("statevec.gates.perm", "count/op", "lower", "op_ms.p50 on circuit"),
    ("statevec.measure_s", "s/op", "lower", "op_ms.p50 on circuit"),
    ("statevec.bytes_moved_computed", "B/op", "lower", "op_ms.p50 on circuit"),
    # oracle, circuit path: caching may raise peak_rss_mb on circuit;
    # oracle_queries_per_op must not change
    ("oracle.assembles", "count/op", "lower", "op_ms.p50 on circuit"),
    ("oracle.assemble_s", "s/op", "lower", "op_ms.p50 on circuit"),
    ("oracle.gates_per_app", "count", "lower", "op_ms.p50 on circuit"),
    ("oracle.circuit_apps", "count/op", "lower", "op_ms.p50 on circuit"),
    ("oracle.verify_apps", "count/op", "lower", "op_ms.p50 on circuit"),
    ("oracle.apps_per_distinct_yA", "ratio", "lower", "op_ms.p50 on circuit"),
    # oracle, table path
    ("oracle.table_handles", "count/op", "lower",
     "ops_per_s on sweep; op_ms.p50 on entanglement"),
    ("oracle.table_handle_build_s", "s/op", "lower",
     "ops_per_s on sweep; op_ms.p50 on entanglement"),
    ("oracle.run_rounds", "count/op", "lower",
     "ops_per_s on sweep; op_ms.p50 on entanglement"),
    ("oracle.run_round_s", "s/op", "lower",
     "ops_per_s on sweep; op_ms.p50 on entanglement"),
    # kmax
    ("kmax.k_maxima_self_s", "s/op", "lower", "op_ms.p90 on entanglement; ops_per_s on sweep"),
    ("kmax.is_top_k_calls", "count/op", "lower", "op_ms.p90 on entanglement; ops_per_s on sweep"),
    ("kmax.is_top_k_s", "s/op", "lower", "op_ms.p90 on entanglement; ops_per_s on sweep"),
    ("kmax.thresholds", "count/op", "lower", "op_ms.p90 on entanglement; ops_per_s on sweep"),
    ("kmax.search_rounds", "count/op", "lower", "ops_per_s on sweep"),
    ("kmax.failed_rounds", "count/op", "lower", "ops_per_s on sweep"),
    ("kmax.iterations", "count/op", "lower", "ops_per_s on sweep"),
    ("kmax.round_success_ratio", "ratio", "higher", "ops_per_s on sweep"),
    ("kmax.confirmation_tail_ratio", "ratio", "lower", "oracle_queries_per_op on all"),
    ("kmax.oracle_queries", "count/op", "lower", "oracle_queries_per_op on all"),
    ("kmax.data_prep_queries", "count/op", "lower", "oracle_queries_per_op on all"),
    # qknn: negligible on circuit
    ("qknn.similarity_table_s", "s/op", "lower", "op_ms.p50 on entanglement"),
    ("qknn.top_k_s", "s/op", "lower", "op_ms.p50 on entanglement"),
    ("qknn.classical_knn_s", "s/op", "lower", "op_ms.p50 on entanglement"),
    ("qknn.qknn_classify_self_s", "s/op", "lower", "op_ms.p50 on entanglement"),
    ("qknn.discriminate_self_s", "s/op", "lower", "ops_per_s on sweep"),
    # qadc and subroutines: predicted small effect
    ("qadc.quantize_s", "s/op", "lower", "op_ms.p50 on entanglement and circuit"),
    ("qadc.circuit_build_s", "s/op", "lower", "op_ms.p50 on circuit"),
    ("subroutines.prep_build_s", "s/op", "lower", "op_ms.p50 on circuit"),
    # datasets: per traced set-up; zero on circuit
    ("datasets.gen_corpus_s", "s", "lower", "setup_s on entanglement"),
    ("datasets.states_per_s", "1/s", "higher", "setup_s on entanglement and sweep"),
    ("datasets.label_calls", "count", "lower", "setup_s on entanglement"),
    ("datasets.label_s", "s", "lower", "setup_s on entanglement"),
    ("datasets.haar_accept_ratio", "ratio", "higher", "setup_s on sweep"),
    ("datasets.discrimination_instance_s", "s", "lower", "setup_s on sweep"),
    # the tracer itself
    ("trace.overhead_pct", "%", "lower", "none: cost of the traced run"),
    ("trace.spans_per_op", "count/op", "lower", "none: size of the traced run"),
]

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
