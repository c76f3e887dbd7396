"""Span tracer that wraps the public calls of each qknn_sim module from outside.

Every wrapped call records a span: name, start, end, parent span and the id
of the benchmark operation it ran under. Spans stay in flat in-memory arrays
and are written out once, when the run ends. The same boundaries feed
per-metric counters, inclusive time and self time (span duration minus the
time its traced children cover).

Functions are replaced in every qknn_sim module that holds them, not only in
the defining one: ``qknn`` binds ``k_maxima``, ``assemble_O_yA``, ``make_V``
and others with ``from ... import``, and ``oracle`` does the same with
``fidelity_qadc_circuit``, so patching the home module alone would miss
those calls. Methods are replaced on their class.
"""
from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

AMP_BYTES = 16  # complex128


def _gate_kind(gate) -> str:
    if gate.perm is not None:
        return "perm"
    if len(gate.targets) > 1:
        return "multi_target"
    return "controlled" if gate.controls else "1q"


def _count_gates(tr: "Tracer", n: int, gates) -> None:
    """Gate counts by kind and the bytes each gate must at least read and
    write: its controlled block of 2**(n - controls) amplitudes, once each way."""
    for gate in gates:
        tr.counts["statevec.gates." + _gate_kind(gate)] += 1
        tr.counts["statevec.bytes_moved_computed"] += 2 * AMP_BYTES * 2 ** (n - len(gate.controls))


def _on_apply_circuit(tr, args, kwargs, result):
    state, circuit = args[0], args[1]
    tr.counts["statevec.bytes_moved_computed"] += 2 * AMP_BYTES * 2 ** state.num_qubits  # working copy
    _count_gates(tr, state.num_qubits, circuit)


def _on_apply(tr, args, kwargs, result):
    state, gate = args[0], args[1]
    tr.counts["statevec.bytes_moved_computed"] += 2 * AMP_BYTES * 2 ** state.num_qubits
    _count_gates(tr, state.num_qubits, [gate])


def _on_oracle_apply(tr, args, kwargs, result):
    oc = args[0]
    tr.counts["oracle.app_gates"] += len(oc.circuit)
    tr.distinct_yA.add((tr.op_id, oc.y, oc.A))


def _on_k_maxima(tr, args, kwargs, res):
    c = tr.counts
    c["kmax.thresholds"] += len(res.rounds)
    c["kmax.search_rounds"] += res.search_rounds
    c["kmax.iterations"] += res.iterations
    c["kmax.oracle_queries"] += res.oracle_queries
    c["kmax.data_prep_queries"] += res.data_prep_queries
    if res.queries_to_solution is not None:
        c["kmax.tail_queries"] += res.oracle_queries - res.queries_to_solution
        c["kmax.tail_base"] += res.oracle_queries


def _on_grover(tr, args, kwargs, res):
    found = res.found is not None
    tr.counts["kmax.successful_rounds"] += found
    tr.counts["kmax.failed_rounds"] += res.rounds - found


def _on_gen_corpus(tr, args, kwargs, corpus):
    tr.counts["datasets.states"] += len(corpus)


def _on_discrimination_instance(tr, args, kwargs, result):
    tr.counts["datasets.states"] += len(result[0])


# (module, attribute or Class.method, metric group, counter hook)
PLAN = [
    ("statevec", "StateVector.apply_circuit", "statevec.apply_circuit", _on_apply_circuit),
    ("statevec", "StateVector.apply", "statevec.apply_circuit", _on_apply),
    ("statevec", "StateVector.measure_probs", "statevec.measure", None),
    ("statevec", "StateVector.sample_measurement", "statevec.measure", None),
    ("oracle", "assemble_O_yA", "oracle.assemble", None),
    ("oracle", "OracleCircuit.apply", "oracle.circuit_app", _on_oracle_apply),
    ("oracle", "OracleCircuit.q3_distribution", "oracle.verify_app", None),
    ("oracle", "TableOracleHandle.__init__", "oracle.table_handle_build", None),
    ("oracle", "TableOracleHandle.run_round", "oracle.run_round", None),
    ("oracle", "CircuitOracleHandle.run_round", "oracle.run_round", None),
    ("kmax", "k_maxima", "kmax.k_maxima", _on_k_maxima),
    ("kmax", "grover_search_unknown", "kmax.grover_search", _on_grover),
    ("kmax", "TableBackend.is_top_k", "kmax.is_top_k", None),
    ("kmax", "CircuitBackend.is_top_k", "kmax.is_top_k", None),
    ("qknn", "FidelityTable.from_states", "qknn.similarity_table", None),
    ("qknn", "top_k_indices", "qknn.top_k", None),
    ("qknn", "classical_knn", "qknn.classical_knn", None),
    ("qknn", "qknn_classify", "qknn.qknn_classify", None),
    ("qknn", "discriminate", "qknn.discriminate", None),
    ("qadc", "quantize_array", "qadc.quantize", None),
    ("qadc", "fidelity_qadc_circuit", "qadc.circuit_build", None),
    ("subroutines", "make_V", "subroutines.prep_build", None),
    ("subroutines", "make_W", "subroutines.prep_build", None),
    ("datasets", "gen_corpus", "datasets.gen_corpus", _on_gen_corpus),
    ("datasets", "label_entanglement", "datasets.label", None),
    ("datasets", "haar_random_state", "datasets.haar", None),
    ("datasets", "gen_discrimination_instance", "datasets.discrimination_instance",
     _on_discrimination_instance),
]


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self.paused = False  # set while the benchmark checks an output
        self.counts: Counter = Counter()
        # per group: [open spans, calls, inclusive s, self s]
        self.groups: defaultdict = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self.distinct_yA: set = set()
        self._stack: list = []  # [span index, child time] per open span
        self._undo: list = []

    def calls(self, group: str) -> int:
        return self.groups[group][1]

    def inclusive(self, group: str) -> float:
        return self.groups[group][2]

    def self_time(self, group: str) -> float:
        return self.groups[group][3]

    # -- recording --

    def _wrap(self, name: str, group: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.groups[group]
        stack = self._stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_op, add_start, add_end = self.span_op.append, self.span_start.append, self.span_end.append
        ends = self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(ends)
            add_name(name_id)
            add_parent(stack[-1][0] if stack else -1)
            add_op(self.op_id)
            frame = [idx, 0.0]
            stack.append(frame)
            stats[0] += 1
            start = perf_counter()
            add_start(start)
            add_end(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
                stats[0] -= 1
                dur = end - start
                stats[1] += 1
                stats[3] += dur - frame[1]
                if not stats[0]:
                    stats[2] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- patching --

    def install(self) -> None:
        package = sys.modules["qknn_sim"]
        modules = [package] + [sys.modules[f"qknn_sim.{m}"] for m in
                               ("statevec", "subroutines", "qadc", "oracle", "kmax",
                                "qknn", "datasets", "cli") if f"qknn_sim.{m}" in sys.modules]
        for mod_name, attr, group, hook in PLAN:
            home = sys.modules[f"qknn_sim.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(f"{mod_name}.{attr}", group, raw.__func__, hook))
                else:
                    new = self._wrap(f"{mod_name}.{attr}", group, raw, hook)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
            else:
                orig = getattr(home, attr)
                new = self._wrap(f"{mod_name}.{attr}", group, orig, hook)
                for mod in modules:
                    if mod.__dict__.get(attr) is orig:
                        setattr(mod, attr, new)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    # -- output --

    def write_spans(self, path: str) -> None:
        """All spans as one .npz: ``names`` (span name table) and per span
        ``name`` (index into names), ``parent`` (span index or -1), ``op``
        (operation id, -1 in set-up), ``start_s`` and ``end_s``."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.array(self.span_name),
                 parent=np.array(self.span_parent), op=np.array(self.span_op),
                 start_s=np.array(self.span_start), end_s=np.array(self.span_end))

    def layer_metrics(self, n_ops: int, overhead_pct: float) -> dict:
        """Per-layer metrics; operation-phase values are divided by ``n_ops``."""
        inc, slf, calls, c = self.inclusive, self.self_time, self.calls, self.counts
        per = 1.0 / max(n_ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        gates = sum(c["statevec.gates." + k] for k in ("1q", "controlled", "multi_target", "perm"))
        apps = calls("oracle.circuit_app")
        made = c["datasets.states"]
        gen_s = inc("datasets.gen_corpus") + inc("datasets.discrimination_instance")
        return {
            "statevec.apply_circuit_s": inc("statevec.apply_circuit") * per,
            "statevec.gates": gates * per,
            "statevec.gates_per_s": ratio(gates, inc("statevec.apply_circuit")),
            "statevec.gates.1q": c["statevec.gates.1q"] * per,
            "statevec.gates.controlled": c["statevec.gates.controlled"] * per,
            "statevec.gates.multi_target": c["statevec.gates.multi_target"] * per,
            "statevec.gates.perm": c["statevec.gates.perm"] * per,
            "statevec.measure_s": inc("statevec.measure") * per,
            "statevec.bytes_moved_computed": c["statevec.bytes_moved_computed"] * per,
            "oracle.assembles": calls("oracle.assemble") * per,
            "oracle.assemble_s": inc("oracle.assemble") * per,
            "oracle.gates_per_app": ratio(c["oracle.app_gates"], apps),
            "oracle.circuit_apps": apps * per,
            "oracle.verify_apps": calls("oracle.verify_app") * per,
            "oracle.apps_per_distinct_yA": ratio(apps, len(self.distinct_yA)),
            "oracle.table_handles": calls("oracle.table_handle_build") * per,
            "oracle.table_handle_build_s": inc("oracle.table_handle_build") * per,
            "oracle.run_rounds": calls("oracle.run_round") * per,
            "oracle.run_round_s": inc("oracle.run_round") * per,
            "kmax.k_maxima_self_s": (slf("kmax.k_maxima") + slf("kmax.grover_search")) * per,
            "kmax.is_top_k_calls": calls("kmax.is_top_k") * per,
            "kmax.is_top_k_s": inc("kmax.is_top_k") * per,
            "kmax.thresholds": c["kmax.thresholds"] * per,
            "kmax.search_rounds": c["kmax.search_rounds"] * per,
            "kmax.failed_rounds": c["kmax.failed_rounds"] * per,
            "kmax.iterations": c["kmax.iterations"] * per,
            "kmax.round_success_ratio": ratio(c["kmax.successful_rounds"], c["kmax.search_rounds"]),
            "kmax.confirmation_tail_ratio": ratio(c["kmax.tail_queries"], c["kmax.tail_base"]),
            "kmax.oracle_queries": c["kmax.oracle_queries"] * per,
            "kmax.data_prep_queries": c["kmax.data_prep_queries"] * per,
            "qknn.similarity_table_s": inc("qknn.similarity_table") * per,
            "qknn.top_k_s": inc("qknn.top_k") * per,
            "qknn.classical_knn_s": inc("qknn.classical_knn") * per,
            "qknn.qknn_classify_self_s": slf("qknn.qknn_classify") * per,
            "qknn.discriminate_self_s": slf("qknn.discriminate") * per,
            "qadc.quantize_s": inc("qadc.quantize") * per,
            "qadc.circuit_build_s": inc("qadc.circuit_build") * per,
            "subroutines.prep_build_s": inc("subroutines.prep_build") * per,
            "datasets.gen_corpus_s": inc("datasets.gen_corpus"),
            "datasets.states_per_s": ratio(made, gen_s),
            "datasets.label_calls": calls("datasets.label"),
            "datasets.label_s": inc("datasets.label"),
            "datasets.haar_accept_ratio": ratio(made, calls("datasets.haar")),
            "datasets.discrimination_instance_s": inc("datasets.discrimination_instance"),
            "trace.overhead_pct": overhead_pct,
            "trace.spans_per_op": sum(1 for op in self.span_op if op >= 0) * per,
        }
