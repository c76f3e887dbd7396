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
from qknn_sim import statevec as statevec_module
from qknn_sim.datasets import haar_random_state
from qknn_sim.kmax import CircuitBackend, SearchConfig, k_maxima
from qknn_sim.oracle import (
    OracleCircuit,
    SimulationError,
    TableOracleHandle,
    assemble_O_yA,
    build_J,
    classical_action,
    oracle_layout,
    prep_calls_per_oracle,
    qubit_accounting,
    search_layout,
    u_gt_gates,
    u_neq_gates,
)
from qknn_sim.qadc import PrecisionConfig, fidelity_qadc_circuit, quantize_array
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


def test_assembly_checks_unitarity_only_of_matrices_from_outside(monkeypatch):
    """A (2, 2, 3) assembly, V and W included, runs the unitarity check on
    V, W and the inverse QFT alone: G, its powers, the controlled copies,
    inverses, blocks and fused runs are derived from checked gates."""
    checked = []
    real_check = statevec_module._require_unitary

    def record(name, m):
        checked.append(name)
        real_check(name, m)
    monkeypatch.setattr(statevec_module, "_require_unitary", record)
    rng = np.random.default_rng(23)
    states = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    layout = oracle_layout(2, 2, 3)
    V, W = make_V(states[4], layout, register="test"), make_W(states[:4], layout)
    oc = assemble_O_yA(V, W, layout, PrecisionConfig(3), 1, {1, 2})
    assert len(oc.search) > len(oc.U) > 0
    assert sorted(checked) == ["IQFT", "V", "W"]


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
    reduced = search_layout(oc.layout)
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


class _FixedMarginalOracle(OracleCircuit):
    """The circuit oracle's draw over a given marginal at every depth."""

    def __init__(self, probs):
        self._cdfs, self.probs = {}, probs

    def marginal(self, r):
        return self.probs


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=16),
       st.sampled_from([1.0, 1 + 1e-13, 1 - 1e-13]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200)
def test_circuit_run_round_draw_matches_generator_choice(weights, total, seed):
    """Twin generators: run_round's draws from its cached CDF equal
    rng.choice's on the same marginal, draw for draw, and leave the stream
    at the same place, for marginals that sum to 1 or to 1 +- 1e-13."""
    probs = np.array(weights)
    if not probs.any():
        probs[0] = 1.0
    probs = probs / probs.sum() * total
    oracle = _FixedMarginalOracle(probs)
    mine, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for r in (0, 1, 0, 2, 1):
        assert oracle.run_round(r, mine) == int(reference.choice(len(probs),
                                                                  p=probs / probs.sum()))
    assert mine.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("probs,message", [
    ([0.5, np.nan], "NaN"), ([1.5, -0.5], "negative"), ([1e308, 1e308], "sums to"),
], ids=["nan", "negative", "sum"])
def test_circuit_run_round_refuses_what_generator_choice_refuses(probs, message):
    """A marginal rng.choice refuses is refused before any draw, and the
    generator does not move. A sum off 1 needs an overflow of p's sum: p
    is normalized first."""
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, p=np.array(probs) / np.sum(probs))
        with pytest.raises(SimulationError, match=message):
            _FixedMarginalOracle(np.array(probs)).run_round(0, rng)
    assert rng.bit_generator.state == before


def test_circuit_oracle_runs_search_round():
    oc = invariants.dyadic_oracle(2, 1, {1})
    rng = np.random.default_rng(4)
    measured = oc.run_round(1, rng)   # one Grover iteration, t=1 of M=2
    assert measured in (0, 1)
    assert oc.evaluate(0) == 1 and oc.evaluate(1) == 0
    assert not hasattr(oc, "query_count")


def test_qubit_accounting_report():
    oc = invariants.dyadic_oracle(3, 1, {1})
    rep = qubit_accounting(oc)
    assert rep.builder_peak == rep.layout_total == oc.layout.num_qubits
    assert rep.delta == rep.layout_total - rep.closed_form


# every (m, n, b) the circuit-exact rule admits: M in {2, 4, 8}, n <= 2, log2(M) <= b <= 3
CIRCUIT_EXACT_SHAPES = [(m, n, b) for m in (1, 2, 3) for n in (1, 2) for b in (2, 3) if m <= b]


def _haar_F(m, n, b, seed=0):
    """The unfused QADC operator F on the (m, n, b) layout for 2**m Haar
    train states and a Haar test state."""
    rng = np.random.default_rng(seed)
    layout = oracle_layout(m, n, b)
    states = np.stack([haar_random_state(n, rng) for _ in range(2 ** m + 1)])
    V, W = make_V(states[-1], layout, register="test"), make_W(states[:-1], layout)
    return layout, fidelity_qadc_circuit(V, W, layout, PrecisionConfig(b))


@pytest.mark.parametrize("m,n,b", CIRCUIT_EXACT_SHAPES)
def test_qubit_accounting_reads_m_n_and_b_from_the_layout(m, n, b):
    """The model circuit, built from F alone (no U, search oracle or state),
    touches every qubit of its layout, and the closed form takes m, n and b
    from that layout; the three dedicated flags Q1, Q2, Q3 are the delta."""
    layout, F = _haar_F(m, n, b)
    rep = qubit_accounting(OracleCircuit(layout, 0, frozenset({0}), F, Circuit(), Circuit()))
    assert rep.builder_peak == rep.layout_total == layout.num_qubits
    assert rep.closed_form == 2 * m + 2 * b + 1 + max(2 - m - b, 2 * n + b)
    assert rep.delta == 3


@pytest.mark.parametrize("m,n,b", [(1, 1, 2), (2, 2, 3), (3, 1, 3)])
def test_fidelity_qadc_circuit_is_its_own_inverse_gate_for_gate(m, n, b):
    """F mirrors E^amp and QPE around the XOR arithmetic step, so F^-1 is F
    gate for gate: equal targets, controls, prep counts and matrix or
    permutation bytes. The model's mirror half reuses F on this property."""
    def key(g):
        data = g.perm if g.matrix is None else g.matrix
        return g.targets, g.controls, g.prep_counts, g.matrix is None, data.tobytes()

    _, F = _haar_F(m, n, b)
    assert [key(g) for g in F.inverse().gates] == [key(g) for g in F.gates]


def test_oracle_rejects_m_wider_than_b():
    layout = oracle_layout(3, 1, 2)   # m=3 chains cannot live in a 2-bit phase register
    psi = np.array([1, 0], dtype=complex)
    phis = np.stack([np.array([1, 0], dtype=complex)] * 8)
    V = make_V(psi, layout, register="test")
    W = make_W(phis, layout)
    with pytest.raises(SimulationError):
        assemble_O_yA(V, W, layout, PrecisionConfig(2), 0, {0})


def _copy(cls, oc):
    """A ``cls`` oracle built from the init fields of ``oc``: the same
    circuits, none of its simulated states or verdicts."""
    return cls(*(getattr(oc, f.name) for f in dataclasses.fields(oc) if f.init))


class _CountingOracle(OracleCircuit):
    """The cached oracle, recording the depths, candidates and generator it is
    given, counting its verifications and the simulator work it does."""

    def __init__(self, *fields):
        super().__init__(*fields)
        self.depths, self.candidates, self.evaluations, self.rng = [], set(), 0, None
        self.calls = Counter()

    def apply(self, *args):
        self.calls["apply"] += 1
        return super().apply(*args)

    def q3_distribution(self, j):
        self.calls["q3_distribution"] += 1
        return super().q3_distribution(j)

    def run_round(self, r, rng):
        self.depths.append(r)
        self.rng = rng
        return super().run_round(r, rng)

    def evaluate(self, j):
        self.candidates.add(j)
        self.evaluations += 1
        return super().evaluate(j)


class _RebuildingOracle(OracleCircuit):
    """The brute-force reference: every round rebuilds its state from |0...0>
    and samples it, every verification simulates its candidate again."""

    def __init__(self, *fields):
        super().__init__(*fields)
        self.rebuilt, self.rng = {}, None

    def run_round(self, r, rng):
        self.rng = rng
        layout = search_layout(self.layout)
        state = StateVector.zero_state(layout).apply_circuit(
            Circuit([hadamard(q) for q in layout.qubits("index")]))
        for _ in range(r):
            state = self.apply(state).apply_circuit(self.diffusion)
        self.rebuilt[r] = state.measure_probs("index")
        return state.sample_measurement("index", rng)

    def evaluate(self, j):
        return int(np.argmax(self.q3_distribution(j)))


class _OracleBackend(CircuitBackend):
    """CircuitBackend yielding a fresh ``oracle_cls`` copy of each assembled
    oracle, so no state or verdict is shared between searches."""

    def __init__(self, oracle_cls, assemble, values, b):
        super().__init__(assemble, values, b)
        self.oracle_cls, self.oracles = oracle_cls, []

    def oracle_for(self, y, A):
        self.oracles.append(_copy(self.oracle_cls, self._assemble(y, frozenset(A))))
        return self.oracles[-1]


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
    """k_maxima over the cached circuit oracle equals the rebuilding reference
    field by field and leaves the generator in the same state, while each
    oracle simulates at most max(r) Grover iterations and each candidate once.

    Haar-random states give non-dyadic fidelities; basis states (fidelities
    1, 0, 1, 0 to a |0> test state) make these seeds replace a member of A
    before the final threshold, so the runs span two oracles.
    """
    assembled, values = _search_instance(kind, M, seed)
    search = SearchConfig(max_rounds=10, seed=seed)
    results = {}
    for cls in (_CountingOracle, _RebuildingOracle):
        backend = _OracleBackend(cls, assembled, values, 2)
        results[cls] = (k_maxima(backend, k, M, search), backend.oracles)
    (got, cached), (want, reference) = results[_CountingOracle], results[_RebuildingOracle]
    for name in ("top_k", "rounds", "oracle_queries", "data_prep_queries", "iterations",
                 "search_rounds"):
        assert getattr(got, name) == getattr(want, name), name
    assert sum(sum(h.depths) + h.evaluations for h in cached) == got.oracle_queries
    assert cached[-1].rng.bit_generator.state == reference[-1].rng.bit_generator.state
    assert len(cached) == len(got.rounds)
    for oc in cached:
        grover_apps = oc.calls["apply"] - oc.calls["q3_distribution"]
        assert grover_apps <= max(oc.depths)
        assert oc.calls["q3_distribution"] <= len(oc.candidates)


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
    cached, reference = _copy(_CountingOracle, oc), _copy(_RebuildingOracle, oc)
    rng_cached, rng_reference = np.random.default_rng(6), np.random.default_rng(6)
    for r in depths:
        assert cached.run_round(r, rng_cached) == reference.run_round(r, rng_reference)
    assert rng_cached.bit_generator.state == rng_reference.bit_generator.state
    assert cached.calls["apply"] == max(depths)
    for r in depths:
        assert np.array_equal(cached.marginal(r), reference.rebuilt[r])
    assert cached.marginal(1)[0] > 1 - 1e-9 and abs(cached.marginal(0)[0] - 0.25) < 1e-9


class _KickbackOracle(OracleCircuit):
    """The model as written: every round rebuilds the full state with Q3 in
    |->, applies the model circuit r times, and samples it; every
    verification runs the model circuit on its candidate."""

    def run_round(self, r, rng):
        self.rng = rng
        layout = self.layout
        (q3,) = layout.qubits("Q3")
        state = StateVector.zero_state(layout).apply_circuit(
            Circuit([pauli_x(q3), hadamard(q3)] + [hadamard(q) for q in layout.qubits("index")]))
        for _ in range(r):
            state = state.apply_circuit(self.circuit).apply_circuit(self.diffusion)
        return state.sample_measurement("index", rng)

    def evaluate(self, j):
        return int(np.argmax(self.q3_distribution(j)))


@pytest.mark.parametrize("kind,M,k,seed", FIVE_CASES)
def test_phase_oracle_search_matches_kickback_model(kind, M, k, seed):
    """k_maxima over the Q3-free circuit oracle equals k_maxima over the
    model circuit with Q3 in |-> field by field, and leaves the generator
    in the same state."""
    assembled, values = _search_instance(kind, M, seed)
    search = SearchConfig(max_rounds=10, seed=seed)
    results = {}
    for cls in (_CountingOracle, _KickbackOracle):
        backend = _OracleBackend(cls, assembled, values, 2)
        results[cls] = (k_maxima(backend, k, M, search), backend.oracles)
    (got, cached), (want, reference) = results[_CountingOracle], results[_KickbackOracle]
    for name in ("top_k", "rounds", "oracle_queries", "data_prep_queries", "iterations",
                 "search_rounds"):
        assert getattr(got, name) == getattr(want, name), name
    assert cached[-1].rng.bit_generator.state == reference[-1].rng.bit_generator.state


class _OwnCircuitsBackend(_OracleBackend):
    """Each oracle holds Circuit objects of its own, so the runs of each can
    be told apart by identity; a copied oracle builds its own model circuit."""

    def oracle_for(self, y, A):
        oc = self._assemble(y, frozenset(A))
        self.oracles.append(self.oracle_cls(oc.layout, oc.y, oc.A, oc.F, Circuit(list(oc.U)),
                                            Circuit(list(oc.search))))
        return self.oracles[-1]


@pytest.mark.parametrize("kind,M,k,seed", FIVE_CASES)
def test_each_handle_runs_max_depth_search_queries_and_one_U(monkeypatch, kind, M, k, seed):
    """Per oracle: at most max(r) applications of the search oracle, at most
    one run of U for all verdicts, and no run of the model circuit, which
    is not even built."""
    applied = []  # every circuit run, kept alive so identities stay distinct
    apply_circuit = StateVector.apply_circuit

    def counted(state, circuit):
        applied.append(circuit)
        return apply_circuit(state, circuit)

    monkeypatch.setattr(StateVector, "apply_circuit", counted)
    assembled, values = _search_instance(kind, M, seed)
    backend = _OwnCircuitsBackend(_CountingOracle, assembled, values, 2)
    k_maxima(backend, k, M, SearchConfig(max_rounds=10, seed=seed))
    assert backend.oracles
    for oc in backend.oracles:
        assert "circuit" not in vars(oc)
        runs = Counter(name for c in applied for name in ("search", "U", "circuit")
                       if c is getattr(oc, name))
        assert runs["search"] <= max(oc.depths)
        assert runs["U"] == (1 if oc.candidates else 0)
        assert runs["circuit"] == oc.calls["q3_distribution"] == 0


def test_first_query_continues_from_the_verdict_run_of_U(monkeypatch):
    """A depth-1 round and then every verdict run U once and the full search
    oracle never: the first query from the start state goes on from the U
    run the verdicts read. The marginal equals the rebuilt one bit for bit."""
    applied = []
    apply_circuit = StateVector.apply_circuit

    def counted(state, circuit):
        applied.append(circuit)
        return apply_circuit(state, circuit)

    assembled, _ = _search_instance("haar", 4, 0)
    oc = assembled(1, frozenset({1}))
    reference = _copy(_RebuildingOracle, oc)
    reference.run_round(1, np.random.default_rng(0))
    monkeypatch.setattr(StateVector, "apply_circuit", counted)
    oc.run_round(1, np.random.default_rng(0))
    verdicts = [oc.evaluate(j) for j in range(oc.M)]
    assert sum(c is oc.U for c in applied) == 1
    assert sum(c is oc.search for c in applied) == 0
    assert np.array_equal(oc.marginal(1), reference.rebuilt[1])
    assert verdicts == [int(np.argmax(oc.q3_distribution(j))) for j in range(oc.M)]


def test_assembling_and_handing_out_an_oracle_simulates_nothing(monkeypatch):
    """assemble_O_yA and CircuitBackend.oracle_for run no circuit on a state
    and measure nothing; the first round simulates, and so does the first
    verdict of a fresh oracle."""
    calls = Counter()
    for name in ("apply_circuit", "measure_probs"):
        def counted(*args, _method=getattr(StateVector, name), _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(StateVector, name, counted)
    assembled, values = _search_instance("haar", 4, 0)
    backend = CircuitBackend(assembled, values, 2)
    oc = backend.oracle_for(1, frozenset({1}))
    assert oc is assembled(1, frozenset({1}))
    assert calls == Counter()
    oc.run_round(0, np.random.default_rng(0))
    assert calls["apply_circuit"] > 0 and calls["measure_probs"] > 0
    calls.clear()
    fresh = backend.oracle_for(2, frozenset({2}))
    assert calls == Counter()
    fresh.evaluate(0)
    assert calls["apply_circuit"] > 0 and calls["measure_probs"] > 0


def test_phase_oracle_vs_kickback_law():
    assert invariants.phase_oracle_vs_kickback(np.random.default_rng(0)) <= 1e-12


def test_reduced_search_matches_kickback_model_at_two_qubit_states():
    """At (m, n, b) = (2, 2, 2) the model has 18 qubits and the simulator 15,
    without Q3 and the primed index register. Over r <= 2 the oracle's index
    marginals equal the full circuit's with Q3 in |-> to 1e-12, and every
    verdict is the most probable Q3 outcome of the full circuit on |j>. The
    instance marks index 0 (P = 0.58) and leaves index 3 near 0.35."""
    oc = invariants.haar_oracle(np.random.default_rng(43), 2, n=2)
    assert (oc.layout.num_qubits, search_layout(oc.layout).num_qubits) == (18, 15)
    assert [oc.evaluate(j) for j in range(oc.M)] == [1, 0, 0, 0]
    assert invariants.kickback_gap(oc, depth=2) <= 1e-12
