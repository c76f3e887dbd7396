"""Comparator circuits, membership gates, and the assembled threshold oracle."""
import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim import invariants
from qknn_sim import oracle as oracle_module
from qknn_sim.kmax import CircuitBackend, SearchConfig, k_maxima
from qknn_sim.oracle import (
    CircuitOracleHandle,
    SimulationError,
    TableOracleHandle,
    assemble_O_yA,
    build_J,
    classical_action,
    oracle_layout,
    prep_calls_per_oracle,
    qubit_accounting,
    u_gt_gates,
    u_neq_gates,
)
from qknn_sim.qadc import PrecisionConfig, quantize_array
from qknn_sim.statevec import Circuit, StateVector, hadamard, mcz, pauli_x
from qknn_sim.subroutines import make_V, make_W


def test_threshold_state_validation(monkeypatch):
    """assemble_O_yA accepts y = 1, A = {1, 2} at M = 4 and refuses a y
    outside A, a member of A outside [0, M) and an empty A before it builds
    any circuit."""
    layout = oracle_layout(2, 1, 2)
    V = make_V(np.array([1, 0], dtype=complex), layout, register="test")
    W = make_W(np.array([[1, 0], [0, 1], [0, 1], [1, 0]], dtype=complex), layout)
    cfg = PrecisionConfig(2)
    assert assemble_O_yA(V, W, layout, cfg, 1, {1, 2}).A == {1, 2}

    def no_build(*args):
        raise AssertionError("built a circuit for a refused (y, A)")
    monkeypatch.setattr(oracle_module, "fidelity_qadc_circuit", no_build)
    for y, A in ((0, {1, 2}), (0, {0, 9}), (0, set())):
        with pytest.raises(SimulationError):
            assemble_O_yA(V, W, layout, cfg, y, A)


@pytest.mark.parametrize("a,b,carry,expect_flip", [
    (1, 0, 1, True), (0, 0, 1, False), (0, 1, 1, False), (1, 1, 1, False),
    (1, 0, 0, False),
])
def test_u_gt_truth_table(a, b, carry, expect_flip):
    circ = Circuit(u_gt_gates(0, 1, 2, 3))
    for flag in (0, 1):
        x = a | (b << 1) | (carry << 2) | (flag << 3)
        y = classical_action(circ, 4, x)
        assert (y >> 3) & 1 == (flag ^ expect_flip)
        assert y & 0b111 == x & 0b111


@pytest.mark.parametrize("a,b,carry,expect_flip", [
    (0, 1, 1, True), (1, 0, 1, True), (0, 0, 1, False), (1, 1, 1, False),
    (0, 1, 0, False),
])
def test_u_neq_truth_table(a, b, carry, expect_flip):
    circ = Circuit(u_neq_gates(0, 1, 2, 3))
    for flag in (0, 1):
        x = a | (b << 1) | (carry << 2) | (flag << 3)
        y = classical_action(circ, 4, x)
        assert (y >> 3) & 1 == (flag ^ expect_flip)
        assert y & 0b111 == x & 0b111


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_J_exhaustive(width):
    """J computes [a > b] on all 2**(2*width) basis pairs, ancillas clean."""
    assert invariants.comparator_J(width) == 0


def test_J_known_comparisons():
    circ = build_J((0, 1, 2), (3, 4, 5), 6, (7, 8))
    assert (classical_action(circ, 9, 0b011101) >> 6) & 1 == 1   # 5 > 3
    assert (classical_action(circ, 9, 0b011011) >> 6) & 1 == 0   # 3 <= 3
    assert (classical_action(circ, 9, 0b111010) >> 6) & 1 == 0   # 2 < 7


@pytest.mark.parametrize("m", [1, 2, 3])
def test_D_cascade_membership_exhaustive(m):
    """Composed D gates compute the indicator of A on every basis input."""
    assert invariants.membership_D(m) == 0


def test_assembled_oracle_dyadic_family_b2():
    """Q3 equals f_{y,A}(j) deterministically for every j, y, A at b=2."""
    assert invariants.oracle_equivalence(bits=(2,)) < 1e-9


def test_assembled_oracle_reversibility():
    oc = invariants.dyadic_oracle(2, 1, {1})
    n = oc.layout.num_qubits
    rng = np.random.default_rng(17)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    v /= np.linalg.norm(v)
    state = StateVector(n, v, oc.layout)
    back = state.apply_circuit(oc.circuit).apply_circuit(oc.circuit.inverse())
    assert np.linalg.norm(back.amplitudes - v) < 1e-8


@pytest.mark.parametrize("m,n,b", [(1, 1, 2), (2, 1, 3)])
def test_fused_circuits_match_the_unfused_reduction(m, n, b):
    """The simulator's fused U and search oracle act on a random state of
    the search layout as the unfused ``fix_classical`` reduction of the
    model's U does, to 1e-12, and U runs in fewer gates."""
    rng = np.random.default_rng(m)
    M = 2 ** m
    layout = oracle_layout(m, n, b)
    states = rng.normal(size=(M + 1, 2 ** n)) + 1j * rng.normal(size=(M + 1, 2 ** n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    oc = assemble_O_yA(make_V(states[M], layout, register="test"), make_W(states[:M], layout),
                       layout, PrecisionConfig(b), 0, {0})
    # the model is U . T . U^dag with T three gates long
    model_U = Circuit(oc.circuit.gates[: (len(oc.circuit) - 3) // 2])
    reduced = oc.search_layout
    U = model_U.fix_classical(dict.fromkeys(layout.qubits("index_p"), 0),
                              layout.qubits_of(reduced.names))
    (s1,), (s2,) = reduced.qubits("Q1"), reduced.qubits("Q2")
    search = Circuit(U.gates + [pauli_x(s2), mcz((s1,), s2), pauli_x(s2)] + U.inverse().gates)
    size = reduced.num_qubits
    v = rng.normal(size=2 ** size) + 1j * rng.normal(size=2 ** size)
    state = StateVector(size, v / np.linalg.norm(v), reduced)
    for fused, unfused in ((oc.U, U), (oc.search, search)):
        np.testing.assert_allclose(state.apply_circuit(fused).amplitudes,
                                   state.apply_circuit(unfused).amplitudes, rtol=0, atol=1e-12)
    assert len(oc.U) < len(U)


def test_oracle_prep_counts_match_formula():
    b = 2
    oc = invariants.dyadic_oracle(b, 1, {1})
    assert oc.circuit.prep_counts() == prep_calls_per_oracle(b)


def test_oracle_evaluate_most_probable_outcome():
    oc = invariants.dyadic_oracle(2, 1, {1})
    assert oc.evaluate(0) == 1
    assert oc.evaluate(1) == 0


def test_oracle_netlist_mentions_core_pieces():
    oc = invariants.dyadic_oracle(2, 1, {1})
    text = oc.circuit.netlist()
    for token in ("W ", "V ", "IQFT", "QA[fidelity]", "TOFFOLI"):
        assert token in text
    for line in text.splitlines():
        name, rest = line.split(" ", 1)
        assert name and rest


def test_table_oracle_handle_examples():
    table = np.array([0.2, 0.8, 0.5, 0.7])
    h = TableOracleHandle(table, 3, {3})
    assert [h.evaluate(j) for j in range(4)] == [False, True, False, False]
    h = TableOracleHandle(table, 1, {1})      # y is the argmax: nothing beats it
    assert not any(h.evaluate(j) for j in range(4))
    tied = TableOracleHandle(np.array([3, 3, 1], dtype=np.int64), 0, {0})
    assert not tied.evaluate(1)             # strict comparison on quantized ties


def test_table_oracle_query_count_monotone():
    """A handle keeps no query count (k_maxima charges the queries), and
    rounds and verifications leave its draws and verdicts as they were."""
    h = TableOracleHandle(np.array([0.1, 0.9]), 0, {0})
    first = h.run_round(3, np.random.default_rng(0))
    assert h.evaluate(1) and not h.evaluate(0)
    assert h.run_round(3, np.random.default_rng(0)) == first
    assert not hasattr(h, "query_count")


@given(st.lists(st.integers(0, 4), min_size=2, max_size=40), st.data(),
       st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200)
def test_table_run_round_draw_matches_generator_choice(values, data, r, seed):
    """Twin generators: run_round's index draw gives what rng.choice on the
    same class gave, and leaves the stream at the same place."""
    table = np.array(values, dtype=np.int64)
    M = len(table)
    y = data.draw(st.integers(0, M - 1))
    A = data.draw(st.sets(st.integers(0, M - 1), max_size=M - 1)) | {y}
    handle = TableOracleHandle(table, y, frozenset(A))
    mine, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    got = handle.run_round(r, mine)

    marked = table > table[y]
    marked[list(A)] = False
    theta = math.asin(math.sqrt(marked.sum() / M))
    hit = reference.random() < math.sin((2 * r + 1) * theta) ** 2
    expected = int(reference.choice(np.flatnonzero(marked if hit else ~marked)))
    assert got == expected
    assert mine.random() == reference.random()


def test_circuit_handle_runs_search_round():
    oc = invariants.dyadic_oracle(2, 1, {1})
    handle = CircuitOracleHandle(oc)
    rng = np.random.default_rng(4)
    measured = handle.run_round(1, rng)   # one Grover iteration, t=1 of M=2
    assert measured in (0, 1)
    assert handle.evaluate(0) is True and handle.evaluate(1) is False
    assert not hasattr(handle, "query_count")


def test_qubit_accounting_report():
    oc = invariants.dyadic_oracle(3, 1, {1})
    rep = qubit_accounting(oc, n=1)
    assert rep.builder_peak == rep.layout_total == oc.layout.num_qubits
    assert rep.delta == rep.layout_total - rep.closed_form
    assert "Q1" in rep.explanation or "Q1" in rep.registers


def test_oracle_rejects_m_wider_than_b():
    layout = oracle_layout(3, 1, 2)   # m=3 chains cannot live in a 2-bit phase register
    psi = np.array([1, 0], dtype=complex)
    phis = np.stack([np.array([1, 0], dtype=complex)] * 8)
    V = make_V(psi, layout, register="test")
    W = make_W(phis, layout)
    with pytest.raises(SimulationError):
        assemble_O_yA(V, W, layout, PrecisionConfig(2), 0, {0})


class _CountingHandle(CircuitOracleHandle):
    """The cached handle, recording the depths, candidates and generator it is
    given, counting its verifications and the simulator work its own oracle
    copy does."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.depths, self.candidates, self.evaluations, self.rng = [], set(), 0, None
        self.calls = Counter()
        for name in ("apply", "q3_distribution"):
            def counted(*args, _method=getattr(oracle, name), _name=name):
                self.calls[_name] += 1
                return _method(*args)
            setattr(oracle, name, counted)

    def run_round(self, r, rng):
        self.depths.append(r)
        self.rng = rng
        return super().run_round(r, rng)

    def evaluate(self, j):
        self.candidates.add(j)
        self.evaluations += 1
        return super().evaluate(j)


class _RebuildingHandle(CircuitOracleHandle):
    """The brute-force reference: every round rebuilds its state from |0...0>
    and samples it, every verification simulates its candidate again."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.marginals, self.rng = {}, None

    def run_round(self, r, rng):
        self.rng = rng
        layout = self.oracle.search_layout
        state = StateVector.zero_state(layout).apply_circuit(
            Circuit([hadamard(q) for q in layout.qubits("index")]))
        for _ in range(r):
            state = self.oracle.apply(state).apply_circuit(self.oracle.diffusion)
        self.marginals[r] = state.measure_probs("index")
        return state.sample_measurement("index", rng)

    def evaluate(self, j):
        return bool(np.argmax(self.oracle.q3_distribution(j)))


class _HandleBackend(CircuitBackend):
    """CircuitBackend yielding ``handle_cls`` over a fresh copy of each
    assembled oracle, so no verdict is shared between handles."""

    def __init__(self, handle_cls, assemble, values, b):
        super().__init__(assemble, values, b)
        self.handle_cls, self.handles = handle_cls, []

    def oracle_for(self, y, A):
        handle = self.handle_cls(dataclasses.replace(self._assemble(y, frozenset(A))))
        self.handles.append(handle)
        return handle


FIVE_CASES = [("haar", 2, 1, 0), ("haar", 2, 1, 1), ("basis", 2, 1, 4), ("basis", 2, 1, 5),
              ("basis", 4, 2, 4)]


def _search_instance(kind, M, seed, b=2):
    """A cached (y, A) -> OracleCircuit assembler and the quantized table of
    one search instance: Haar-random or basis train and test states."""
    if kind == "haar":
        rng = np.random.default_rng([seed, 9])
        states = rng.normal(size=(M + 1, 2)) + 1j * rng.normal(size=(M + 1, 2))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
    else:
        states = np.array([[1, 0], [0, 1]] * (M // 2) + [[1, 0]], dtype=complex)
    layout = oracle_layout(M.bit_length() - 1, 1, b)
    V, W = make_V(states[M], layout, register="test"), make_W(states[:M], layout)
    cfg = PrecisionConfig(b)
    values = quantize_array(np.abs(states[:M].conj() @ states[M]) ** 2, b)
    return functools.cache(lambda y, A: assemble_O_yA(V, W, layout, cfg, y, A)), values


@pytest.mark.parametrize("kind,M,k,seed", FIVE_CASES)
def test_cached_search_matches_brute_force(kind, M, k, seed):
    """k_maxima over the cached circuit handle equals the rebuilding reference
    field by field and leaves the generator in the same state, while each
    handle simulates at most max(r) Grover iterations and each candidate once.

    Haar-random states give non-dyadic fidelities; basis states (fidelities
    1, 0, 1, 0 to a |0> test state) make these seeds replace a member of A
    before the final threshold, so the runs span two oracles.
    """
    assembled, values = _search_instance(kind, M, seed)
    search = SearchConfig(max_rounds=10, seed=seed)
    results = {}
    for cls in (_CountingHandle, _RebuildingHandle):
        backend = _HandleBackend(cls, assembled, values, 2)
        results[cls] = (k_maxima(backend, k, M, search), backend.handles)
    (got, cached), (want, reference) = results[_CountingHandle], results[_RebuildingHandle]
    for name in ("top_k", "rounds", "oracle_queries", "data_prep_queries", "iterations",
                 "search_rounds"):
        assert getattr(got, name) == getattr(want, name), name
    assert sum(sum(h.depths) + h.evaluations for h in cached) == got.oracle_queries
    assert cached[-1].rng.bit_generator.state == reference[-1].rng.bit_generator.state
    assert len(cached) == len(got.rounds)
    for handle in cached:
        grover_apps = handle.calls["apply"] - handle.calls["q3_distribution"]
        assert grover_apps <= max(handle.depths)
        assert handle.calls["q3_distribution"] <= len(handle.candidates)


def test_cached_rounds_match_rebuilt_rounds_at_any_depth():
    """Depths in any order, deeper and shallower than those cached, give the
    rebuilt state's index marginal bit for bit and the same draws; the
    deepest depth sets the number of Grover iterations simulated.

    One marked index of M = 4 (fidelities 1, 0, 0, 0, threshold y = 1)
    makes the marginal a point mass after 1 and 4 iterations and uniform
    after 0 and 3, so sampling the wrong depth changes the draws.
    """
    layout = oracle_layout(2, 1, 2)
    V = make_V(np.array([1, 0], dtype=complex), layout, register="test")
    W = make_W(np.array([[1, 0], [0, 1], [0, 1], [0, 1]], dtype=complex), layout)
    oc = assemble_O_yA(V, W, layout, PrecisionConfig(2), 1, {1})
    depths = [4, 0, 1, 3, 0]
    cached = _CountingHandle(dataclasses.replace(oc))
    reference = _RebuildingHandle(dataclasses.replace(oc))
    rng_cached, rng_reference = np.random.default_rng(6), np.random.default_rng(6)
    for r in depths:
        assert cached.run_round(r, rng_cached) == reference.run_round(r, rng_reference)
    assert rng_cached.bit_generator.state == rng_reference.bit_generator.state
    assert cached.calls["apply"] == max(depths)
    for r in depths:
        assert np.array_equal(cached._marginals[r], reference.marginals[r])
    assert cached._marginals[1][0] > 1 - 1e-9 and abs(cached._marginals[0][0] - 0.25) < 1e-9


class _KickbackHandle(CircuitOracleHandle):
    """The model as written: every round rebuilds the full state with Q3 in
    |->, applies the model circuit r times, and samples it; every
    verification runs the model circuit on its candidate."""

    def run_round(self, r, rng):
        self.rng = rng
        layout = self.oracle.layout
        (q3,) = layout.qubits("Q3")
        state = StateVector.zero_state(layout).apply_circuit(
            Circuit([pauli_x(q3), hadamard(q3)] + [hadamard(q) for q in layout.qubits("index")]))
        for _ in range(r):
            state = state.apply_circuit(self.oracle.circuit).apply_circuit(self.oracle.diffusion)
        return state.sample_measurement("index", rng)

    def evaluate(self, j):
        return bool(np.argmax(self.oracle.q3_distribution(j)))


@pytest.mark.parametrize("kind,M,k,seed", FIVE_CASES)
def test_phase_oracle_search_matches_kickback_model(kind, M, k, seed):
    """k_maxima over the Q3-free circuit handle equals k_maxima over the
    model circuit with Q3 in |-> field by field, and leaves the generator
    in the same state."""
    assembled, values = _search_instance(kind, M, seed)
    search = SearchConfig(max_rounds=10, seed=seed)
    results = {}
    for cls in (_CountingHandle, _KickbackHandle):
        backend = _HandleBackend(cls, assembled, values, 2)
        results[cls] = (k_maxima(backend, k, M, search), backend.handles)
    (got, handles), (want, reference) = results[_CountingHandle], results[_KickbackHandle]
    for name in ("top_k", "rounds", "oracle_queries", "data_prep_queries", "iterations",
                 "search_rounds"):
        assert getattr(got, name) == getattr(want, name), name
    assert handles[-1].rng.bit_generator.state == reference[-1].rng.bit_generator.state


class _OwnCircuitsBackend(_HandleBackend):
    """Each handle's oracle holds Circuit objects of its own, so the runs of
    each can be told apart by identity."""

    def oracle_for(self, y, A):
        oc = self._assemble(y, frozenset(A))
        fresh = dataclasses.replace(oc, circuit=Circuit(list(oc.circuit)),
                                    U=Circuit(list(oc.U)), search=Circuit(list(oc.search)))
        handle = self.handle_cls(fresh)
        self.handles.append(handle)
        return handle


@pytest.mark.parametrize("kind,M,k,seed", FIVE_CASES)
def test_each_handle_runs_max_depth_search_queries_and_one_U(monkeypatch, kind, M, k, seed):
    """Per handle: at most max(r) applications of the search oracle, at most
    one run of U for all verdicts, and no run of the model circuit."""
    applied = []  # every circuit run, kept alive so identities stay distinct
    apply_circuit = StateVector.apply_circuit

    def counted(state, circuit):
        applied.append(circuit)
        return apply_circuit(state, circuit)

    monkeypatch.setattr(StateVector, "apply_circuit", counted)
    assembled, values = _search_instance(kind, M, seed)
    backend = _OwnCircuitsBackend(_CountingHandle, assembled, values, 2)
    k_maxima(backend, k, M, SearchConfig(max_rounds=10, seed=seed))
    assert backend.handles
    for handle in backend.handles:
        oc = handle.oracle
        runs = Counter(name for c in applied for name in ("search", "U", "circuit")
                       if c is getattr(oc, name))
        assert runs["search"] <= max(handle.depths)
        assert runs["U"] == (1 if handle.candidates else 0)
        assert runs["circuit"] == handle.calls["q3_distribution"] == 0


def test_phase_oracle_vs_kickback_law():
    assert invariants.phase_oracle_vs_kickback(np.random.default_rng(0)) <= 1e-12


def test_reduced_search_matches_kickback_model_at_two_qubit_states():
    """At (m, n, b) = (2, 2, 2) the model has 18 qubits and the simulator 15,
    without Q3 and the primed index register. Over r <= 2 the handle's index
    marginals equal the full circuit's with Q3 in |-> to 1e-12, and every
    verdict is the most probable Q3 outcome of the full circuit on |j>. The
    instance marks index 0 (P = 0.58) and leaves index 3 near 0.35."""
    oc = invariants.haar_oracle(np.random.default_rng(43), 2, n=2)
    assert (oc.layout.num_qubits, oc.search_layout.num_qubits) == (18, 15)
    assert [oc.evaluate(j) for j in range(oc.M)] == [1, 0, 0, 0]
    assert invariants.kickback_gap(oc, depth=2) <= 1e-12
