"""Engine-level checks: gates, measurement, dense unitaries, persistence."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim.oracle import classical_action
from qknn_sim.statevec import (
    MAX_DENSE_QUBITS,
    Circuit,
    RegisterLayout,
    SimulationError,
    StateVector,
    _apply_gate,
    basis_permutation,
    circuit_to_matrix,
    cnot,
    cswap,
    hadamard,
    mcz,
    pauli_x,
    register_unitary,
    toffoli,
)

INV_SQRT2 = 1 / np.sqrt(2)


def random_state(n, rng):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def test_hadamard_on_zero():
    out = StateVector.zero_state(1).apply(hadamard(0))
    np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_x_preserves_uniform_superposition():
    plus = StateVector.zero_state(1).apply(hadamard(0))
    out = plus.apply(pauli_x(0))
    np.testing.assert_allclose(out.amplitudes, plus.amplitudes, atol=1e-15)


def test_cswap_swaps_on_control_one():
    rng = np.random.default_rng(7)
    psi, phi = random_state(1, rng), random_state(1, rng)
    layout = RegisterLayout.from_sizes([("c", 1), ("a", 1), ("b", 1)])
    state = StateVector.zero_state(layout).apply(pauli_x(0))
    state = state.apply(register_unitary((1,), _prep(psi), "P"))
    state = state.apply(register_unitary((2,), _prep(phi), "P"))
    swapped = state.apply(cswap(0, 1, 2))
    expected = StateVector.zero_state(layout).apply(pauli_x(0))
    expected = expected.apply(register_unitary((1,), _prep(phi), "P"))
    expected = expected.apply(register_unitary((2,), _prep(psi), "P"))
    np.testing.assert_allclose(swapped.amplitudes, expected.amplitudes, atol=1e-12)


def _prep(psi):
    from qknn_sim.subroutines import unitary_with_first_column
    return unitary_with_first_column(psi)


def test_gate_rejects_out_of_range_index():
    with pytest.raises(SimulationError):
        StateVector.zero_state(2).apply(pauli_x(5))


@pytest.mark.parametrize("make", [
    lambda: StateVector.zero_state(40),
    lambda: StateVector.zero_state(RegisterLayout.from_sizes([("a", 20), ("b", 20)])),
    lambda: classical_action(Circuit([pauli_x(0)]), 40, 0),
])
def test_state_size_cap_refuses_before_allocating(make):
    with pytest.raises(SimulationError, match="40-qubit state"):
        make()


def test_gate_rejects_non_unitary_matrix():
    with pytest.raises(SimulationError):
        register_unitary((0,), np.array([[1, 1], [0, 1]], dtype=complex), "U1")


def test_gate_rejects_non_bijective_permutation():
    with pytest.raises(SimulationError):
        basis_permutation((0, 1), np.array([0, 0, 1, 2]), "bad")


def test_measure_probs_single_qubit_plus():
    plus = StateVector.zero_state(RegisterLayout.from_sizes([("q", 1)])).apply(hadamard(0))
    np.testing.assert_allclose(plus.measure_probs("q"), [0.5, 0.5], atol=1e-12)


def test_measure_probs_unknown_register():
    state = StateVector.zero_state(RegisterLayout.from_sizes([("q", 1)]))
    with pytest.raises(SimulationError):
        state.measure_probs("nope")


def test_sampling_is_seed_deterministic():
    layout = RegisterLayout.from_sizes([("q", 2)])
    state = StateVector.zero_state(layout).apply(hadamard(0)).apply(hadamard(1))
    runs = [[state.sample_measurement("q", np.random.default_rng(9))[0] for _ in range(20)]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_sampling_matches_born_rule():
    layout = RegisterLayout.from_sizes([("q", 1)])
    plus = StateVector.zero_state(layout).apply(hadamard(0))
    rng = np.random.default_rng(3)
    hits = sum(plus.sample_measurement("q", rng)[0] == 0 for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_deterministic_state_always_measures_zero():
    layout = RegisterLayout.from_sizes([("q", 1)])
    state = StateVector.zero_state(layout)
    for seed in range(5):
        assert state.sample_measurement("q", seed)[0] == 0


def test_zero_probability_collapse_raises():
    layout = RegisterLayout.from_sizes([("q", 1)])
    with pytest.raises(SimulationError):
        StateVector.zero_state(layout).collapse("q", 1)


def _random_circuit(n, gates, rng):
    circ = Circuit()
    for _ in range(gates):
        kind = rng.integers(0, 5)
        qubits = rng.choice(n, size=3, replace=False)
        if kind == 0:
            circ.append(hadamard(int(qubits[0])))
        elif kind == 1:
            circ.append(cnot(int(qubits[0]), int(qubits[1])))
        elif kind == 2:
            circ.append(toffoli(int(qubits[0]), int(qubits[1]), int(qubits[2])))
        elif kind == 3:
            circ.append(cswap(int(qubits[0]), int(qubits[1]), int(qubits[2])))
        else:
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            circ.append(register_unitary((int(qubits[0]),), q, "U1"))
    return circ


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_norm_preserved_under_random_circuits(seed):
    """Twenty random gates on up to 12 qubits keep the norm within 1e-9."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    circ = _random_circuit(n, 20, rng)
    out = StateVector.zero_state(n).apply_circuit(circ)
    assert abs(out.norm() - 1.0) < 1e-9


def test_unitarity_round_trip():
    rng = np.random.default_rng(11)
    circ = _random_circuit(6, 20, rng)
    state = StateVector(6, random_state(6, rng))
    back = state.apply_circuit(circ).apply_circuit(circ.inverse())
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-10


def test_marginal_consistency_with_full_distribution():
    """Register marginals equal the contraction of the full Born distribution."""
    rng = np.random.default_rng(5)
    layout = RegisterLayout.from_sizes([("a", 2), ("b", 3), ("c", 2)])
    state = StateVector(7, random_state(7, rng), layout)
    full = np.abs(state.amplitudes) ** 2
    for reg, start, size in [("a", 0, 2), ("b", 2, 3), ("c", 5, 2)]:
        got = state.measure_probs(reg)
        want = np.zeros(2 ** size)
        for idx, p in enumerate(full):
            want[(idx >> start) & (2 ** size - 1)] += p
        np.testing.assert_allclose(got, want, atol=1e-12)
    joint = state.measure_probs(["a", "c"])
    want = np.zeros(16)
    for idx, p in enumerate(full):
        want[(idx & 3) | (((idx >> 5) & 3) << 2)] += p
    np.testing.assert_allclose(joint, want, atol=1e-12)


def test_permutation_gate_matches_matrix_gate():
    perm = np.array([1, 0, 3, 2])  # X on low qubit of the pair
    rng = np.random.default_rng(2)
    state = StateVector(3, random_state(3, rng))
    via_perm = state.apply(basis_permutation((0, 1), perm, "swap01"))
    via_gate = state.apply(pauli_x(0))
    np.testing.assert_allclose(via_perm.amplitudes, via_gate.amplitudes, atol=1e-14)


def test_dense_unitary_cap_refuses_before_allocating():
    """10 qubits build; 11 (a 64 MiB column block) are refused with no large allocation."""
    assert MAX_DENSE_QUBITS == 10
    assert circuit_to_matrix(Circuit([pauli_x(9)]), tuple(range(10))).shape == (1024, 1024)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match="at most 10 qubits"):
            circuit_to_matrix(Circuit([pauli_x(10)]), tuple(range(11)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_circuit_to_matrix_matches_application():
    rng = np.random.default_rng(8)
    circ = _random_circuit(4, 10, rng)
    mat = circuit_to_matrix(circ, (0, 1, 2, 3))
    state = random_state(4, rng)
    direct = StateVector(4, state).apply_circuit(circ).amplitudes
    np.testing.assert_allclose(mat @ state, direct, atol=1e-12)


def _random_gate(labels, span, rng):
    """A 1-qubit, controlled, multi-target or permutation gate on at most
    ``span`` of ``labels``."""
    kind = int(rng.integers(0, 4)) if span > 1 else int(rng.choice([0, 3]))
    qubits = [int(q) for q in rng.permutation(labels)]
    t = 1 if kind < 2 else int(rng.integers(1 if kind == 3 else 2, min(span, 3) + 1))
    c = int(rng.integers(1 if kind == 1 else 0, span - t + 1)) if kind else 0
    targets, controls = tuple(qubits[:t]), tuple(qubits[t:t + c])
    if kind == 3:
        return basis_permutation(targets, rng.permutation(2 ** t), "P", controls)
    z = rng.normal(size=(2 ** t, 2 ** t)) + 1j * rng.normal(size=(2 ** t, 2 ** t))
    return register_unitary(targets, np.linalg.qr(z)[0], f"U{t}", controls)


def _per_column_matrix(circuit, qubits):
    """circuit_to_matrix's reference: every gate applied to one basis column at a time."""
    k = len(qubits)
    local = {q: i for i, q in enumerate(qubits)}
    cols = np.eye(2 ** k, dtype=complex)
    for gate in circuit:
        tgt = tuple(local[q] for q in gate.targets)
        ctl = tuple(local[q] for q in gate.controls)
        for j in range(2 ** k):
            col = cols[:, j].copy()
            _apply_gate(col, k, gate, tgt, ctl)
            cols[:, j] = col
    return cols


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_circuit_to_matrix_equals_per_column_reference(seed):
    """The batched dense unitary equals the per-column one on 1-5 qubits drawn
    from a larger label set, in any order: bit for bit while every gate leaves
    a local qubit free, to 1e-12 otherwise (numpy multiplies a single-row
    block by another kernel, so that column rounds differently)."""
    rng = np.random.default_rng(seed)
    qubits = tuple(int(q) for q in rng.choice(8, size=int(rng.integers(1, 6)), replace=False))
    span = int(rng.integers(1, len(qubits) + 1))
    circ = Circuit([_random_gate(qubits, span, rng) for _ in range(int(rng.integers(1, 12)))])
    got, want = circuit_to_matrix(circ, qubits), _per_column_matrix(circ, qubits)
    if all(len(g.qubits()) < len(qubits) for g in circ):
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_json_round_trip():
    layout = RegisterLayout.from_sizes([("a", 1), ("b", 2)])
    state = StateVector.zero_state(layout).apply(hadamard(0)).apply(cnot(0, 2))
    loaded = StateVector.load_json(state.dump_json())
    np.testing.assert_allclose(loaded.amplitudes, state.amplitudes, atol=1e-15)
    assert loaded.layout.to_json_obj() == layout.to_json_obj()


def test_netlist_format():
    circ = Circuit([hadamard(0), cnot(0, 1), mcz((0, 1), 2)])
    lines = circ.netlist().splitlines()
    assert lines == ["H 0", "CNOT 1 [0]", "MCZ 2 [0 1]"]
