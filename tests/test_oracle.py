"""Comparator circuits, membership gates, and the assembled threshold oracle."""
import dataclasses
import functools
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim import invariants
from qknn_sim import qknn as qknn_module
from qknn_sim import oracle as oracle_module
from qknn_sim import statevec as statevec_module
from qknn_sim.datasets import haar_random_state
from qknn_sim.kmax import CircuitBackend, SearchConfig, k_maxima
from qknn_sim.oracle import (
    OracleCircuit,
    SimulationError,
    TableOracleHandle,
    assemble_O_yA,
    build_D,
    build_J,
    oracle_layout,
    prep_calls_per_oracle,
    qubit_accounting,
    search_layout,
    u_gt_gates,
    u_neq_gates,
)
from qknn_sim.qadc import PrecisionConfig, arithmetic_map, fidelity_qadc_circuit, quantize_array
from qknn_sim.statevec import (Circuit, StateVector, hadamard, mcz, pauli_x, permutation_run,
                               register_unitary)
from qknn_sim.subroutines import (build_G, fused_zero_reflection, inverse_qft, make_V, make_W,
                                  qpe_circuit)
from test_statevec import fix_classical

# every (m, n, b) the circuit-exact rule admits: M in {2, 4, 8}, n <= 2, log2(M) <= b <= 3
CIRCUIT_EXACT_SHAPES = [(m, n, b) for m in (1, 2, 3) for n in (1, 2) for b in (2, 3) if m <= b]


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


def _assemble_with_index_wider_than_b():
    layout = oracle_layout(3, 1, 2)
    V = make_V(np.array([1, 0], dtype=complex), layout, register="test")
    W = make_W(np.tile(np.eye(2, dtype=complex), (4, 1)), layout)
    assemble_O_yA(V, W, layout, PrecisionConfig(2), 1, {1})


@pytest.mark.parametrize("build,message", [
    (lambda: build_J((0, 1), (2,), 3, (4,)), "J operands must have equal width"),
    (lambda: build_J((0, 1, 2), (3, 4, 5), 6, (7,)), "J needs width-1 chain ancillas"),
    (lambda: build_D(0, (0, 1), (2,), (3, 4), 5),
     "D needs an m-qubit pattern register and m chain ancillas"),
    (lambda: build_D(0, (0, 1), (2, 3), (4,), 5),
     "D needs an m-qubit pattern register and m chain ancillas"),
    (lambda: build_D(4, (0, 1), (2, 3), (4, 5), 6), "D pattern out of range"),
    (lambda: build_D(-1, (0, 1), (2, 3), (4, 5), 6), "D pattern out of range"),
    (_assemble_with_index_wider_than_b, "hosts comparator chains in the phase register "
                                        r"and needs log2\(M\) <= b"),
], ids=["J-width", "J-chain", "D-pattern", "D-chain", "D-above", "D-below", "O-log2M-above-b"])
def test_comparator_refusals(build, message):
    """J, D and the assembled oracle refuse registers they cannot run on,
    each by its own message."""
    with pytest.raises(SimulationError, match=message):
        build()


def test_assembly_checks_unitarity_only_of_matrices_from_outside(monkeypatch):
    """A cold (2, 2, 3) assembly, V and W included, runs the unitarity check
    on V, W and the inverse QFT alone: G, its powers, the controlled copies,
    inverses, blocks and fused runs are derived from checked gates. A second
    assembly at the same (y, A), on the plan the first left, checks V and W
    alone: the inverse QFT is built and checked once per register."""
    monkeypatch.setattr(oracle_module, "_plans", {})
    inverse_qft.cache_clear()
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
    checked.clear()
    V, W = make_V(states[3], layout, register="test"), make_W(states[1:], layout)
    assert len(assemble_O_yA(V, W, layout, PrecisionConfig(3), 1, {1, 2}).U) == len(oc.U)
    assert sorted(checked) == ["V", "W"]


@pytest.mark.parametrize("a,b,carry,expect_flip", [
    (1, 0, 1, True), (0, 0, 1, False), (0, 1, 1, False), (1, 1, 1, False),
    (1, 0, 0, False),
])
def test_u_gt_truth_table(a, b, carry, expect_flip):
    perm = permutation_run(u_gt_gates(0, 1, 2, 3), "U_>").perm  # on all 4 qubits: x -> perm[x]
    for flag in (0, 1):
        x = a | (b << 1) | (carry << 2) | (flag << 3)
        y = perm[x]
        assert (y >> 3) & 1 == (flag ^ expect_flip)
        assert y & 0b111 == x & 0b111


@pytest.mark.parametrize("a,b,carry,expect_flip", [
    (0, 1, 1, True), (1, 0, 1, True), (0, 0, 1, False), (1, 1, 1, False),
    (0, 1, 0, False),
])
def test_u_neq_truth_table(a, b, carry, expect_flip):
    perm = permutation_run(u_neq_gates(0, 1, 2, 3), "U_!=").perm  # all 4 qubits
    for flag in (0, 1):
        x = a | (b << 1) | (carry << 2) | (flag << 3)
        y = perm[x]
        assert (y >> 3) & 1 == (flag ^ expect_flip)
        assert y & 0b111 == x & 0b111


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_J_exhaustive(width):
    """J computes [a > b] on all 2**(2*width) basis pairs, ancillas clean."""
    assert invariants.comparator_J(width) == 0


def test_J_known_comparisons():
    perm = permutation_run(build_J((0, 1, 2), (3, 4, 5), 6, (7, 8)).gates, "J").perm  # all 9 qubits
    assert (perm[0b011101] >> 6) & 1 == 1   # 5 > 3
    assert (perm[0b011011] >> 6) & 1 == 0   # 3 <= 3
    assert (perm[0b111010] >> 6) & 1 == 0   # 2 < 7


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


@pytest.mark.parametrize("m,n,b", CIRCUIT_EXACT_SHAPES)
def test_fused_circuits_match_the_unfused_reduction(m, n, b):
    """At every shape circuit-exact admits, the simulator's fused U and
    search oracle act on a random state of the search layout as the unfused
    reduction of the model's U does, to 1e-12, and U runs in fewer gates.
    The reduction is the test-local, gate-by-gate ``fix_classical``, which
    shares no code with ``restrict`` or ``permutation_run``. At y = M - 1
    and A = {M - 1, 1}, the D patterns XORed with y are not A, so a D
    restricted at index_p = y rather than 0 marks other indices. This is the
    reference an assembly that is not bit for bit the product of the
    model's gates is held to."""
    rng = np.random.default_rng(m)
    M = 2 ** m
    layout = oracle_layout(m, n, b)
    states = rng.normal(size=(M + 1, 2 ** n)) + 1j * rng.normal(size=(M + 1, 2 ** n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    oc = assemble_O_yA(make_V(states[M], layout, register="test"), make_W(states[:M], layout),
                       layout, PrecisionConfig(b), M - 1, {M - 1, 1})
    # the model is U . T . U^dag with T three gates long
    model_U = Circuit(oc.circuit.gates[: (len(oc.circuit) - 3) // 2])
    reduced = search_layout(oc.layout)
    U = fix_classical(model_U, dict.fromkeys(layout.qubits("index_p"), 0),
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


def _prep_calls_by_name(circuit):
    """V and W calls read from gate names: V, W and their inverses (any number
    of ``^-1``) are one call each; G^r and its inverses are 2r of each."""
    calls = Counter()
    for g in circuit:
        name = g.name
        while name.endswith("^-1"):
            name = name[:-len("^-1")]
        base, _, power = name.partition("^")
        if base in ("V", "W"):
            calls[base] += 1
        elif base == "G":
            calls.update({"V": 2 * int(power), "W": 2 * int(power)})
    return calls


def test_oracle_prep_counts_match_formula():
    """The model circuit's V and W calls, counted by gate name, are equal in
    number and sum to the closed form (84 + 84 at b = 2, 180 + 180 at b = 3)."""
    for b in (2, 3):
        calls = _prep_calls_by_name(invariants.dyadic_oracle(b, 1, {1}).circuit)
        assert calls["V"] == calls["W"]
        assert calls["V"] + calls["W"] == prep_calls_per_oracle(b)


def test_oracle_evaluate_most_probable_outcome():
    oc = invariants.dyadic_oracle(2, 1, {1})
    assert oc.evaluate(0) == 1
    assert oc.evaluate(1) == 0


def test_oracle_netlist_mentions_core_pieces():
    """The model netlist names its pieces and is pinned byte for byte: it
    holds names and qubit numbers only, so its digest needs no tolerance."""
    for b, gates, digest in (
            (2, 175, "29f23f05cb5a99a93456ce5068d81c309a25d8e1e53a74f2d4a00147cd666717"),
            (3, 233, "905596a5b65fe7757f81a65ff25d7032ddef51b5b8a76ef326a944554816a44d")):
        text = invariants.dyadic_oracle(b, 1, {1}).circuit.netlist()
        for token in ("W ", "V ", "IQFT", "QA[fidelity]", "TOFFOLI"):
            assert token in text
        for line in text.splitlines():
            name, rest = line.split(" ", 1)
            assert name and rest
        assert len(text.splitlines()) == gates
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("M,t,r", [(4, 2, 0), (4, 1, 1), (8, 0, 0), (8, 0, 3), (16, 1, 0),
                                   (16, 1, 2), (16, 3, 1), (64, 5, 3)])
def test_table_rounds_hit_at_the_grover_rate_within_each_class(M, t, r):
    """Over many seeded rounds, the share of marked draws lies within a
    binomial 5 sigma of sin^2((2r+1) theta), sin^2 theta = t/M, and the
    marked and unmarked draws are exactly the classes ``evaluate`` gives.
    The values are shuffled; A holds y and the largest value, which beats y
    but is left unmarked."""
    rng = np.random.default_rng([M, t, r])
    values = rng.permutation(M)
    y, top = (int(np.flatnonzero(values == v)[0]) for v in (M - 2 - t, M - 1))
    handle = TableOracleHandle(values, y, frozenset({y, top}))
    marked = np.array([handle.evaluate(j) for j in range(M)])
    assert marked.sum() == t
    draws = 8000
    got = np.array([handle.run_round(r, rng) for _ in range(draws)])
    p = math.sin((2 * r + 1) * math.asin(math.sqrt(t / M))) ** 2
    hits = int(marked[got].sum())
    assert abs(hits - draws * p) <= 5 * math.sqrt(draws * p * (1 - p)), (hits, draws * p)
    for members, share in ((marked, p), (~marked, 1 - p)):
        if share > 1e-12:  # each member of a class with a share is expected 20+ times
            assert set(got[members[got]].tolist()) == set(np.flatnonzero(members).tolist())


@pytest.mark.parametrize("m,n,b,rows,cases", [
    (1, 1, 2, [0, 1], [(0, {0}), (1, {1})]),
    (2, 2, 2, [0, 1, 2, 3], [(0, {0}), (1, {1})]),
    (2, 2, 3, [0, 1, 0, 2], [(0, {0}), (1, {1})]),
    (3, 2, 3, [0, 1, 0, 2, 3, 0, 1, 2], [(1, {1}), (1, {1, 0}), (1, {1, 0, 2})]),
])
def test_circuit_marginals_follow_the_table_grover_law(m, n, b, rows, cases):
    """On exact instances the simulated search is the table handle's closed
    form. Train state j is basis state rows[j] and the test state is |0>, so
    every fidelity is 0 or 1 and the QADC digitizes it without error. The
    index marginal after r iterations of the assembled oracle is then
    sin^2((2r+1) theta), sin^2 theta = t/M, spread evenly over the marked
    class of the handle's ``evaluate``, the rest evenly over the unmarked,
    to 1e-12 for r = 0 .. ceil(sqrt(M)) + 1, the depths the search's growing
    bound reaches. t = 0 and then 1, 1 and 2 at the first three shapes;
    t = 3, 2 and 1 at (3, 2, 3), 19 simulated qubits."""
    M, cfg = 2 ** m, PrecisionConfig(b)
    layout = oracle_layout(m, n, b)
    basis = np.eye(2 ** n, dtype=complex)
    V, W = make_V(basis[0], layout, register="test"), make_W(basis[rows], layout)
    values = quantize_array(np.abs(basis[rows, 0]) ** 2, b)
    for y, A in cases:
        handle = TableOracleHandle(values, y, frozenset(A))
        marked = np.array([handle.evaluate(j) for j in range(M)])
        oc = assemble_O_yA(V, W, layout, cfg, y, A)
        assert [oc.evaluate(j) for j in range(M)] == marked.tolist()
        t = int(marked.sum())
        theta = math.asin(math.sqrt(t / M))
        for r in range(math.ceil(math.sqrt(M)) + 2):
            hit = math.sin((2 * r + 1) * theta) ** 2
            want = np.where(marked, hit / max(t, 1), (1 - hit) / (M - t))
            np.testing.assert_allclose(oc.marginal(r), want, rtol=0, atol=1e-12,
                                       err_msg=f"y = {y}, A = {A}, t = {t}, r = {r}")


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
    assert rep.layout_total - rep.closed_form == 3  # Q1, Q2 and Q3


def _haar_VW(m, n, b, seed=0):
    """The (m, n, b) layout with V and W for 2**m Haar train states and a
    Haar test state."""
    rng = np.random.default_rng(seed)
    layout = oracle_layout(m, n, b)
    states = haar_random_state(n, [rng], 2 ** m + 1)
    return layout, make_V(states[-1], layout, register="test"), make_W(states[:-1], layout)


def _haar_F(m, n, b, seed=0):
    """The unfused QADC operator F on the (m, n, b) layout for 2**m Haar
    train states and a Haar test state."""
    layout, V, W = _haar_VW(m, n, b, seed)
    return layout, fidelity_qadc_circuit(V, W, layout, PrecisionConfig(b))


def _gate_key(g):
    """Everything a gate is: name, qubits, matrix or permutation bytes."""
    data = g.perm if g.matrix is None else g.matrix
    return g.name, g.targets, g.controls, g.matrix is None, data.tobytes()


def _assembly_keys(oc):
    return [[_gate_key(g) for g in circuit] for circuit in (oc.F, oc.U, oc.search)]


@pytest.mark.parametrize("m,n,b", CIRCUIT_EXACT_SHAPES)
def test_a_warm_plan_assembles_what_a_cold_one_does(m, n, b, monkeypatch):
    """At every shape circuit-exact admits and several (y, A), an assembly on a
    plan left by another test state and train set gives the cold assembly of
    the same inputs, gate for gate: names, qubits, matrix or permutation
    bytes, in F, U and search alike."""
    M, cfg = 2 ** m, PrecisionConfig(b)
    for y, A in {(0, (0,)), (M - 1, (M - 1, 0)), (M // 2, (M // 2, 1)), (1, tuple(range(M)))}:
        warming = _haar_VW(m, n, b, seed=10 + y)
        layout, V, W = _haar_VW(m, n, b, seed=20 + y)
        monkeypatch.setattr(oracle_module, "_plans", {})
        cold = _assembly_keys(assemble_O_yA(V, W, layout, cfg, y, A))
        monkeypatch.setattr(oracle_module, "_plans", {})
        assemble_O_yA(warming[1], warming[2], layout, cfg, y, A)
        assert len(oracle_module._plans) == 1
        assert _assembly_keys(assemble_O_yA(V, W, layout, cfg, y, A)) == cold, (y, A)


def _clear_shared_builds():
    """Empty every build shared across assemblies and classifications."""
    oracle_module._plans.clear()
    oracle_module._start.cache_clear()
    fused_zero_reflection.cache_clear()
    qknn_module._train_oracle.cache_clear()


@pytest.mark.parametrize("m,n,b", [(1, 1, 2), (1, 1, 3), (2, 1, 3), (2, 2, 3), (1, 2, 2)])
def test_a_cold_oracle_reads_what_a_warm_one_does(m, n, b):
    """With the plans, the start state per layout, W per train set and the
    fused zero reflection per register all cleared, an oracle's verdict
    probabilities and its index marginals at depths 0-2 equal those of the
    same oracle assembled warm, bit for bit."""
    rng = np.random.default_rng(100 * m + 10 * n + b)
    layout, M = oracle_layout(m, n, b), 2 ** m
    states = haar_random_state(n, [rng], M + 1)
    train = qknn_module.TrainSet(states[:M], list(range(M)))
    A = [int(i) for i in rng.permutation(M)[: max(1, M // 2)]]

    def read():
        W = qknn_module._train_oracle(train.states.tobytes(), layout)
        oc = assemble_O_yA(make_V(states[M], layout), W, layout, PrecisionConfig(b), A[0], A)
        return [oc.marked_probs] + [oc.marginal(r) for r in range(3)]

    _clear_shared_builds()
    cold = read()
    warm = read()
    assert len(oracle_module._plans) == 1
    assert qknn_module._train_oracle.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert all(np.array_equal(c, w) for c, w in zip(cold, warm))


def test_each_train_set_gets_its_own_W(monkeypatch):
    """W is kept for the last train set and layout only, keyed by the states'
    bytes: the same states give the same gate, from a new TrainSet too; other
    states, in another TrainSet or written into the same one, get their own
    make_W, bit for bit the gate make_W gives them."""
    layout, cfg = oracle_layout(1, 1, 2), PrecisionConfig(2)
    rng = np.random.default_rng(3)
    first = qknn_module.TrainSet(haar_random_state(1, [rng], 2), ["a", "b"])
    second = qknn_module.TrainSet(haar_random_state(1, [rng], 2), ["a", "b"])
    psi = haar_random_state(1, [rng], 1)[0]
    qknn_module._train_oracle.cache_clear()
    used = []

    def assemble(V, W, *args):
        used.append(W)
        return assemble_O_yA(V, W, *args)

    monkeypatch.setattr(qknn_module, "assemble_O_yA", assemble)
    for train in (first, qknn_module.TrainSet(first.states.copy(), ["a", "b"]), second):
        qknn_module.qknn_classify(psi, train, 1, cfg, mode="circuit-exact")
    Ws = list(dict.fromkeys(used))  # distinct gates, in order of first use
    assert len(Ws) == 2 and not np.array_equal(Ws[0].matrix, Ws[1].matrix)
    for W, train in zip(Ws, (first, second)):
        assert np.array_equal(W.matrix, make_W(train.states, layout).matrix)
    second.states[:] = first.states
    qknn_module.qknn_classify(psi, second, 1, cfg, mode="circuit-exact")
    assert used[-1] is not Ws[1] and np.array_equal(used[-1].matrix, Ws[0].matrix)


def test_shared_builds_are_read_only():
    """The start state and its marginal per layout, W per train set and the
    fused zero reflection per register are shared: a write into any of them
    raises instead of changing every later oracle."""
    layout = oracle_layout(1, 1, 2)
    train = qknn_module.TrainSet(haar_random_state(1, [np.random.default_rng(4)], 2), [0, 1])
    state, marginal = oracle_module._start(layout)
    shared = [state.amplitudes, marginal,
              qknn_module._train_oracle(train.states.tobytes(), layout).matrix,
              fused_zero_reflection(layout.qubits_of(["train", "test", "B"])).matrix]
    for data in shared:
        with pytest.raises(ValueError):
            data[0] = 5


def _index_mixing_W(layout, rng):
    """A Haar unitary on index + train: not block-diagonal in index."""
    qubits = layout.qubits("index") + layout.qubits("train")
    z = rng.normal(size=(2 ** len(qubits),) * 2) + 1j * rng.normal(size=(2 ** len(qubits),) * 2)
    q, r = np.linalg.qr(z)
    return register_unitary(qubits, q * (np.diag(r) / np.abs(np.diag(r))), "W")


# the one refusal of a W that is not block-diagonal in the index register
W_RULE = "FUSED6: moves index_p off y; W must be block-diagonal in the index register"


def test_a_warm_plan_refuses_what_a_cold_one_refuses(monkeypatch):
    """After a plan is warmed at (1, 1, 2), a W that mixes the index
    register is refused as a cold assembly refuses it, by the rule it
    breaks: the renamed F cannot be restricted to index_p = y."""
    monkeypatch.setattr(oracle_module, "_plans", {})
    layout, V, W = _haar_VW(1, 1, 2)
    cfg = PrecisionConfig(2)
    assemble_O_yA(V, W, layout, cfg, 1, {1})
    bad = _index_mixing_W(layout, np.random.default_rng(4))
    with pytest.raises(SimulationError, match=f"^{W_RULE}$"):
        assemble_O_yA(V, bad, layout, cfg, 1, {1})
    monkeypatch.setattr(oracle_module, "_plans", {})
    with pytest.raises(SimulationError, match=f"^{W_RULE}$"):
        assemble_O_yA(V, bad, layout, cfg, 1, {1})


def test_a_w_that_moves_the_index_is_assembled_as_on_no_plan(monkeypatch):
    """A W that swaps the two index values is classical on index, but F
    built from it moves index_p off y in its renamed copy, which no W that
    ``make_W`` makes does. It is refused, with a message that names the
    rule, on a cold assembly and on a plan a block-diagonal W left alike;
    after a cold refusal, the block-diagonal W assembles as on no plan."""
    layout, V, W = _haar_VW(1, 1, 2)
    cfg = PrecisionConfig(2)
    swap = register_unitary(W.targets, W.matrix[[1, 0, 3, 2]], "W")  # |j>|t> -> W|1-j>|t>
    monkeypatch.setattr(oracle_module, "_plans", {})
    cold = _assembly_keys(assemble_O_yA(V, W, layout, cfg, 0, {0}))
    for warm in (True, False):
        if not warm:
            monkeypatch.setattr(oracle_module, "_plans", {})
        with pytest.raises(SimulationError, match=f"^{W_RULE}$"):
            assemble_O_yA(V, swap, layout, cfg, 0, {0})
    assert _assembly_keys(assemble_O_yA(V, W, layout, cfg, 0, {0})) == cold


def test_every_assembly_composes_u_and_search_in_the_plan(monkeypatch):
    """Cold or warm, each assemble_O_yA call builds F with
    ``fidelity_qadc_circuit`` exactly once and reaches ``_Plan.assemble``
    exactly once, on that F's gates. The oracle's F is the very circuit the
    first call returned, and its U and search are the very circuits the
    second returned: no other path builds them."""
    monkeypatch.setattr(oracle_module, "_plans", {})
    built, returned = [], []
    real_build, real_assemble = fidelity_qadc_circuit, oracle_module._Plan.assemble

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    def assemble(plan, F):
        assert F is built[-1].gates
        returned.append(real_assemble(plan, F))
        return returned[-1]
    monkeypatch.setattr(oracle_module, "fidelity_qadc_circuit", build)
    monkeypatch.setattr(oracle_module._Plan, "assemble", assemble)
    for seed in (0, 1):  # the first pass is cold at each (y, A), the second warm
        layout, V, W = _haar_VW(2, 1, 2, seed)
        for y, A in ((0, {0}), (3, {3, 1})):
            calls = len(built), len(returned)
            oc = assemble_O_yA(V, W, layout, PrecisionConfig(2), y, A)
            assert (len(built), len(returned)) == (calls[0] + 1, calls[1] + 1)
            assert oc.F is built[-1]
            assert all(got is made for got, made in zip((oc.U, oc.search), returned[-1],
                                                        strict=True))
    assert len(oracle_module._plans) == 2


def _adjoint_key(g):
    """``_gate_key`` of g's inverse but its name: qubits, and the bytes of
    conj().T of g's matrix or of the inverse of g's permutation."""
    data = np.argsort(g.perm) if g.matrix is None else g.matrix.conj().T
    return g.targets, g.controls, g.matrix is None, data.tobytes()


@pytest.mark.parametrize("m,n,b", CIRCUIT_EXACT_SHAPES)
def test_u_builds_each_mirrored_half_once(m, n, b, monkeypatch):
    """U's F part is a palindrome of adjoint pairs: the j-th gate from its
    end is the j-th gate's inverse, byte for byte, and the middle gate,
    which holds QA, is its own. The cut P + c + P^-1 + J + P + c^-1 + P^-1
    + D holds each copy of P and of P^-1 as the same gate objects, and P^-1
    and c^-1 as the inverses of P and c. A warm assembly fuses exactly the
    runs of F that touch G's registers (index, train, test, B), where V, W
    and G's powers act, all of them before QA; the plan keeps the others,
    and each mirror gate is taken as an inverse."""
    M, cfg = 2 ** m, PrecisionConfig(b)
    y, A = M - 1, frozenset({M - 1, 0})
    monkeypatch.setattr(oracle_module, "_plans", {})
    layout, V, W = _haar_VW(m, n, b, seed=1)
    U = assemble_O_yA(V, W, layout, cfg, y, A).U.gates
    (plan,) = oracle_module._plans.values()
    half = len(plan.runs) - 1  # the forward runs; then the middle one
    for j in range(half):
        assert _gate_key(U[2 * half - j])[1:] == _adjoint_key(U[j]), j
    middle = U[half]
    if middle.matrix is None:
        assert np.array_equal(np.argsort(middle.perm), middle.perm)
    else:
        np.testing.assert_allclose(middle.matrix, middle.matrix.conj().T, rtol=0, atol=1e-12)
    tail, J, D = U[2 * half + 1:], [t[0] for t in plan.J], [t[0] for t in plan.D]
    p = (len(tail) - len(J) - len(D) - 2) // 4
    P, c, P_inv = tail[:p], tail[p], tail[p + 1: 2 * p + 1]
    assert [_gate_key(g)[1:] for g in P_inv] == [_adjoint_key(g) for g in P[::-1]]
    second = 2 * p + 1 + len(J)
    assert all(g is h for g, h in zip(tail[second:], P + [None] + P_inv + D, strict=True)
               if h is not None)
    assert _gate_key(tail[second + p])[1:] == _adjoint_key(c)
    assert tail[2 * p + 1: second] == J
    calls = []
    real = oracle_module.fuse_run
    monkeypatch.setattr(oracle_module, "fuse_run", lambda gates: calls.append(gates) or real(gates))
    _, V, W = _haar_VW(m, n, b, seed=2)
    F = assemble_O_yA(V, W, layout, cfg, y, A).F.gates
    where = {id(g): i for i, g in enumerate(F)}
    runs = [[where.get(id(g)) for g in gates] for gates in calls if len(gates) > 1]
    runs = [pos for pos in runs if None not in pos]  # the others fuse P, which no F gate is in
    assert runs and all(max(pos) < len(F) // 2 for pos in runs), runs
    data = set(layout.qubits_of(["index", "train", "test", "B"]))
    made = [list(range(*run)) for run in plan.runs if data & Circuit(F[slice(*run)]).qubits()]
    assert runs == [pos for pos in made if len(pos) > 1], (runs, made)


@pytest.mark.parametrize("m,n,b", CIRCUIT_EXACT_SHAPES)
def test_the_plan_runs_each_classical_part_as_one_gate(m, n, b, monkeypatch):
    """J and D are reversible classical circuits: the plan holds each as one
    uncontrolled permutation gate, J on fid, fid_p, Q1 and its b - 1 chain
    qubits (3b), D on index, its m chain qubits and Q2 (2m + 1), each with
    its inverse, and U and search run them so. The sign S and the
    diffusion's reflection about |0...0> are one dense gate each, with
    every entry 0 or +-1."""
    M, cfg = 2 ** m, PrecisionConfig(b)
    monkeypatch.setattr(oracle_module, "_plans", {})
    layout, V, W = _haar_VW(m, n, b, seed=3)
    oc = assemble_O_yA(V, W, layout, cfg, M - 1, frozenset({M - 1, 0}))
    (plan,) = oracle_module._plans.values()
    reduced = search_layout(layout)
    (s1,), (s2,) = reduced.qubits("Q1"), reduced.qubits("Q2")
    J_qubits = reduced.qubits_of(["fid", "fid_p", "Q1"]) + reduced.qubits("phase")[: b - 1]
    D_qubits = reduced.qubits("index") + reduced.qubits("phase")[:m] + (s2,)
    for pairs, qubits in ((plan.J, J_qubits), (plan.D, D_qubits)):
        ((gate, inverse),) = pairs
        assert gate.matrix is None and inverse.matrix is None and not gate.controls
        assert gate.targets == tuple(sorted(qubits))
        assert np.array_equal(inverse.perm, np.argsort(gate.perm))
        assert sum(g is gate for g in oc.U) == 1 and sum(g is inverse for g in oc.search) == 1
    ((S,),) = [oc.search.gates[len(oc.U): len(oc.search) - len(oc.U)]]
    assert S.targets == (s1, s2) and not S.controls
    reflections = oc.diffusion.gates[m: len(oc.diffusion) - m]
    assert len(reflections) == 1 and reflections[0].targets == layout.qubits("index")
    for gate in (S, reflections[0]):
        assert np.array_equal(np.abs(gate.matrix), np.eye(len(gate.matrix)))
        assert set(np.diag(gate.matrix).real) <= {1, -1}


def test_the_plan_holds_at_most_its_bound(monkeypatch):
    """More distinct (y, A) than PLAN_LIMIT: the plan never holds more
    entries than the bound, and the newest (y, A) are the ones it keeps."""
    monkeypatch.setattr(oracle_module, "_plans", {})
    layout, V, W = _haar_VW(3, 1, 3)
    cfg = PrecisionConfig(3)
    keys = [(y, frozenset({y} | set(rest))) for y in range(8)
            for rest in ((), ((y + 1) % 8,), ((y + 3) % 8,), ((y + 1) % 8, (y + 2) % 8),
                         ((y + 5) % 8,))]
    assert len(keys) > oracle_module.PLAN_LIMIT
    for y, A in keys:
        assemble_O_yA(V, W, layout, cfg, y, A)
        assert len(oracle_module._plans) <= oracle_module.PLAN_LIMIT
    assert [key[1:] for key in oracle_module._plans] == keys[-oracle_module.PLAN_LIMIT:]


@pytest.mark.parametrize("m,n,b", [(1, 1, 2), (2, 2, 3)])
def test_fidelity_qadc_circuit_is_amp_qpe_arithmetic_and_their_inverses(m, n, b):
    """F is E^amp -> QPE(G) -> QA -> QPE^-1 -> E^amp^-1, gate for gate, with
    E^amp the prep circuit G reflects about."""
    layout, V, W = _haar_VW(m, n, b)
    cfg = PrecisionConfig(b)
    G = build_G(V, W, layout)
    qpe = qpe_circuit(G.gate, layout.qubits("phase"))
    want = (G.amp_circuit.gates + qpe.gates + [arithmetic_map(cfg, layout)]
            + qpe.inverse().gates + G.amp_circuit.inverse().gates)
    got = fidelity_qadc_circuit(V, W, layout, cfg).gates
    assert [_gate_key(g) for g in got] == [_gate_key(g) for g in want]


@pytest.mark.parametrize("m,n,b", CIRCUIT_EXACT_SHAPES)
def test_qubit_accounting_reads_m_n_and_b_from_the_layout(m, n, b):
    """The model circuit, built from F alone (no U, search oracle or state),
    touches every qubit of its layout, and the closed form takes m, n and b
    from that layout; the three dedicated flags Q1, Q2, Q3 are the delta."""
    layout, F = _haar_F(m, n, b)
    rep = qubit_accounting(OracleCircuit(layout, 0, frozenset({0}), F, Circuit(), Circuit()))
    assert rep.builder_peak == rep.layout_total == layout.num_qubits
    assert rep.closed_form == 2 * m + 2 * b + 1 + max(2 - m - b, 2 * n + b)
    assert rep.layout_total - rep.closed_form == 3


@pytest.mark.parametrize("m,n,b", [(1, 1, 2), (2, 2, 3), (3, 1, 3)])
def test_fidelity_qadc_circuit_is_its_own_inverse_gate_for_gate(m, n, b):
    """F mirrors E^amp and QPE around the XOR arithmetic step, so F^-1 is F
    gate for gate: equal targets, controls, prep counts and matrix or
    permutation bytes. The model's mirror half reuses F on this property."""
    def key(g):
        return _gate_key(g)[1:]   # the inverse's names carry ^-1

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
    and measure nothing. A depth-0 round reads the start marginal its layout
    shares and runs no circuit either; a depth-1 round simulates, and so
    does the first verdict of a fresh oracle."""
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
    oracle_module._start(oc.layout)  # built once per layout: here, or by an earlier test
    calls.clear()
    oc.run_round(0, np.random.default_rng(0))
    assert calls == Counter()
    oc.run_round(1, np.random.default_rng(0))
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
