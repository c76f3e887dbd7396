"""Engine-level checks: gates, measurement, dense unitaries."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim.oracle import oracle_layout
from qknn_sim.qadc import PrecisionConfig, fidelity_qadc_circuit
from qknn_sim.statevec import (
    FUSE_QUBITS,
    MAX_DENSE_QUBITS,
    Circuit,
    Gate,
    RegisterLayout,
    SimulationError,
    StateVector,
    _apply_gate,
    basis_permutation,
    circuit_to_matrix,
    cnot,
    cswap,
    fuse_run,
    hadamard,
    mcx,
    mcz,
    pauli_x,
    pauli_z,
    permutation_run,
    register_unitary,
    restrict,
    toffoli,
)
from qknn_sim.subroutines import make_V, make_W

INV_SQRT2 = 1 / np.sqrt(2)


def one_register(n):
    return RegisterLayout.from_sizes([("q", n)])


def fuse(circuit, width=FUSE_QUBITS):
    """The circuit with each of its ``fusion_runs`` made one gate (``fuse_run``)."""
    return Circuit([fuse_run(circuit.gates[start:stop])
                    for start, stop in circuit.fusion_runs(width)])


def fix_classical(circuit, values, keep):
    """A reference reduction that shares no code with ``restrict`` or
    ``permutation_run``: the circuit on the ``keep`` qubits, renumbered
    keep[i] -> i, for inputs in which each qubit q of ``values`` is in basis
    state values[q]. Those qubits are followed gate by gate as classical
    bits: a control among them that reads 0 drops its gate, one that reads 1
    is removed, and a gate with targets among them becomes the dense block
    of its matrix from their value in to their value out, which they take."""
    bits, renumber, out = dict(values), {q: i for i, q in enumerate(keep)}, []
    for gate in circuit:
        if any(bits.get(c) == 0 for c in gate.controls):
            continue
        dim = 2 ** len(gate.targets)
        matrix = gate.matrix if gate.perm is None else np.eye(dim, dtype=complex)[:, gate.perm]
        tracked = [(i, q) for i, q in enumerate(gate.targets) if q in bits]
        key = np.zeros(dim, dtype=np.int64)
        for j, (i, _) in enumerate(tracked):
            key |= ((np.arange(dim) >> i) & 1) << j
        k_in = sum(bits[q] << j for j, (_, q) in enumerate(tracked))
        cols = np.flatnonzero(key == k_in)
        (k_out,) = set(key[matrix[:, cols].any(axis=1)].tolist())  # they stay classical
        for j, (_, q) in enumerate(tracked):
            bits[q] = (k_out >> j) & 1
        block = matrix[np.ix_(np.flatnonzero(key == k_out), cols)]
        targets = tuple(renumber[q] for q in gate.targets if q not in bits)
        controls = tuple(renumber[c] for c in gate.controls if c not in bits)
        assert k_out == k_in or not controls, f"{gate.name} moves a tracked qubit under a control"
        if targets:
            out.append(Gate(gate.name, targets, controls, matrix=block))
        else:
            assert block[0, 0] == 1, f"{gate.name} leaves a phase on tracked qubits only"
    assert bits == values, "tracked qubits do not end at their start values"
    return Circuit(out)


def random_state(n, rng):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def test_hadamard_on_zero():
    out = StateVector.zero_state(one_register(1)).apply(hadamard(0))
    np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_x_preserves_uniform_superposition():
    plus = StateVector.zero_state(one_register(1)).apply(hadamard(0))
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
    """The range check lives in the cached view plan, which keeps no error:
    the same out-of-range shape raises each time it is applied."""
    state = StateVector.zero_state(one_register(2))
    for gate in (pauli_x(5), cnot(0, 5), cnot(0, 5)):
        with pytest.raises(SimulationError, match="qubit index 5 out of range for 2 qubits"):
            state.apply(gate)


@pytest.mark.parametrize("make", [
    lambda: StateVector.zero_state(one_register(40)),
    lambda: StateVector.zero_state(RegisterLayout.from_sizes([("a", 20), ("b", 20)])),
    lambda: permutation_run([mcx(tuple(range(39)), 39)], "R"),
])
def test_state_size_cap_refuses_before_allocating(make):
    with pytest.raises(SimulationError, match="40-qubit state"):
        make()


def test_state_size_cap_names_the_size_of_a_state_no_float_can_hold():
    with pytest.raises(SimulationError, match="1100-qubit state needs inf MiB"):
        StateVector.zero_state(one_register(1100))


def test_gate_rejects_non_unitary_matrix():
    with pytest.raises(SimulationError):
        register_unitary((0,), np.array([[1, 1], [0, 1]], dtype=complex), "U1")


@pytest.mark.parametrize("build", [
    lambda matrix: Gate("bad", (0, 1), (2,), matrix=matrix),
    lambda matrix: register_unitary((0, 1), matrix, "bad", controls=(2,)),
], ids=["Gate", "register_unitary"])
def test_public_constructors_refuse_a_non_unitary_matrix(build):
    """Only gates derived from a checked gate skip the unitarity check; a
    matrix handed in from outside is checked by both public constructors,
    under controls too."""
    matrix = np.eye(4, dtype=complex)
    matrix[0, 1] = 1e-6
    with pytest.raises(SimulationError, match="not unitary"):
        build(matrix)


@pytest.mark.parametrize("build", [
    lambda: hadamard(0), lambda: pauli_x(0), lambda: mcz((1,), 0), lambda: cswap(2, 0, 1),
    lambda: Circuit([pauli_x(0)]).remap({0: 3}).gates[0],
], ids=["H", "X", "MCZ", "CSWAP", "remap"])
def test_fixed_gate_matrices_are_read_only(build):
    """Every fixed gate shares one module matrix, and so do the gates remap
    makes from it: a write through any of them raises instead of changing
    every gate of that kind."""
    gate = build()
    with pytest.raises(ValueError):
        gate.matrix[0, 0] = 5
    assert np.array_equal(build().matrix, gate.matrix)


@pytest.mark.parametrize("matrix", [np.diag([1 + 4e-6, 1]), np.diag([np.nan, 1])])
def test_gate_rejects_matrix_off_unitary_by_more_than_the_tolerance(matrix):
    """The unitarity tolerance is absolute on every entry of M^dag M - I,
    the diagonal included, and NaN is never within it."""
    with pytest.raises(SimulationError, match="not unitary within 1e-12"):
        Gate("bad", (0,), matrix=matrix.astype(complex))


@pytest.mark.parametrize("m,n,b", [(2, 2, 3), (3, 3, 8)])
def test_gate_accepts_the_dense_reflection_powers_of_the_fidelity_digitizer(m, n, b):
    """The controlled G^k gates fidelity_qadc_circuit builds on Haar states
    pass the strict unitarity check, up to G^128 on the largest dense G
    (10 qubits) at the widest phase register. Each squaring about doubles
    the error: the worst measured there is 4e-13 against the 1e-12 bound."""
    rng = np.random.default_rng(3)
    layout = oracle_layout(m, n, b)
    M = 2 ** m
    states = np.stack([random_state(n, rng) for _ in range(M + 1)])
    circ = fidelity_qadc_circuit(make_V(states[M], layout, register="test"),
                                 make_W(states[:M], layout), layout, PrecisionConfig(b))
    dense = [g for g in circ if g.matrix is not None and len(g.targets) > 1]
    assert len(dense) >= b
    for g in dense:
        Gate(g.name, g.targets, g.controls, matrix=g.matrix)


def test_gate_rejects_non_bijective_permutation():
    with pytest.raises(SimulationError):
        basis_permutation((0, 1), np.array([0, 0, 1, 2]), "bad")


_X2 = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.mark.parametrize("build", [Gate, Gate.derived], ids=["Gate", "derived"])
@pytest.mark.parametrize("targets,controls,matrix,perm,message", [
    ((0, 0), (), np.eye(4, dtype=complex), None, "bad: repeated target qubits"),
    ((0,), (1, 1), _X2, None, "bad: repeated control qubits"),
    ((0,), (0,), _X2, None, "bad: control/target overlap"),
    ((0,), (), None, None, "bad: exactly one of matrix/perm required"),
    ((0,), (), _X2, np.array([1, 0]), "bad: exactly one of matrix/perm required"),
    ((0,), (), np.eye(4, dtype=complex), None, r"bad: matrix shape \(4, 4\) != \(2,2\)"),
    ((0,), (), None, np.array([0, 1, 2]), "bad: permutation is not a bijection on 2 basis states"),
], ids=["target", "control", "overlap", "neither", "both", "shape", "perm-length"])
def test_gate_structure_refusals(build, targets, controls, matrix, perm, message):
    """Both constructors refuse a malformed gate by the same message:
    ``Gate.derived`` skips only the unitarity check."""
    with pytest.raises(SimulationError, match=f"^{message}$"):
        build("bad", targets, controls, matrix, perm)


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
    runs = [[state.sample_measurement("q", np.random.default_rng(9)) for _ in range(20)]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_sampling_matches_born_rule():
    layout = RegisterLayout.from_sizes([("q", 1)])
    plus = StateVector.zero_state(layout).apply(hadamard(0))
    rng = np.random.default_rng(3)
    hits = sum(plus.sample_measurement("q", rng) == 0 for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_deterministic_state_always_measures_zero():
    layout = RegisterLayout.from_sizes([("q", 1)])
    state = StateVector.zero_state(layout)
    for seed in range(5):
        assert state.sample_measurement("q", np.random.default_rng(seed)) == 0


def _random_circuit(n, gates, rng):
    circ = Circuit()
    for _ in range(gates):
        kind = rng.integers(0, 5)
        qubits = rng.choice(n, size=3, replace=False)
        if kind == 0:
            circ.gates.append(hadamard(int(qubits[0])))
        elif kind == 1:
            circ.gates.append(cnot(int(qubits[0]), int(qubits[1])))
        elif kind == 2:
            circ.gates.append(toffoli(int(qubits[0]), int(qubits[1]), int(qubits[2])))
        elif kind == 3:
            circ.gates.append(cswap(int(qubits[0]), int(qubits[1]), int(qubits[2])))
        else:
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            circ.gates.append(register_unitary((int(qubits[0]),), q, "U1"))
    return circ


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_norm_preserved_under_random_circuits(seed):
    """Twenty random gates on up to 12 qubits keep the norm within 1e-9."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    circ = _random_circuit(n, 20, rng)
    out = StateVector.zero_state(one_register(n)).apply_circuit(circ)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


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


def _moveaxis_apply_gate(amps, n, gate, targets, controls):
    """_apply_gate's reference: the kernel that builds its view with
    np.moveaxis on every call."""
    c, t = len(controls), len(targets)
    src = [n - 1 - q for q in controls] + [n - 1 - q for q in targets]
    dst = list(range(c)) + [n - 1 - i for i in range(t)]
    moved = np.moveaxis(amps.reshape((2,) * n), src, dst)
    block = moved[(1,) * c]
    flat = np.ascontiguousarray(block).reshape(-1, 2 ** t)
    if gate.matrix is not None:
        out = flat @ gate.matrix.T
    else:
        out = np.empty_like(flat)
        out[:, gate.perm] = flat
    moved[(1,) * c] = out.reshape(block.shape)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_apply_gate_equals_the_moveaxis_kernel(seed):
    """The cached view plan gives the moveaxis kernel's amplitudes bit for
    bit on 1-8 qubits, for matrix and permutation gates on random distinct
    targets and controls, applied twice so the second call reads the plan."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    gate = _random_gate(list(range(n)), n, rng)
    state = random_state(n, rng)
    want = state.copy()
    got = state.copy()
    for _ in range(2):
        _moveaxis_apply_gate(want, n, gate, gate.targets, gate.controls)
        _apply_gate(got, n, gate, gate.targets, gate.controls)
        assert np.array_equal(got, want)


def _full_width_apply_circuit(state, circuit):
    """``StateVector.apply_circuit``'s reference: every gate on all 2**n
    amplitudes."""
    amps = state.amplitudes.copy()
    for gate in circuit:
        _apply_gate(amps, state.num_qubits, gate, gate.targets, gate.controls)
    return amps


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_lazy_width_equals_the_full_width_loop(seed):
    """On a 1-10 qubit state that is exactly zero at and above a random
    qubit, ``apply_circuit`` runs each gate on the prefix its qubits need;
    over a random list of dense, controlled and permutation gates, each on
    qubits below a random bound, the amplitudes are the full-width loop's
    bit for bit, in a state of the full size."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    low = int(rng.integers(0, n + 1))
    amps = np.zeros(2 ** n, dtype=complex)
    amps[: 2 ** low] = random_state(low, rng)
    gates = []
    for _ in range(int(rng.integers(1, 9))):
        top = int(rng.integers(1, n + 1))
        gates.append(_random_gate(list(range(top)), min(top, 4), rng))
    state = StateVector(n, amps)
    got = state.apply_circuit(Circuit(gates))
    assert got.num_qubits == n and got.amplitudes.shape == (2 ** n,)
    assert np.array_equal(got.amplitudes, _full_width_apply_circuit(state, Circuit(gates)))
    assert np.array_equal(state.amplitudes, amps)  # the input is not touched


@pytest.mark.parametrize("n", [8, 11, 14])
def test_permutation_kernel_equals_the_dense_kernel_on_its_matrix(n):
    """A permutation gate, applied by index gather, moves the amplitudes the
    dense kernel moves with its 0/1 matrix, bit for bit: 1-6 targets, 0-3
    controls, non-adjacent and out of order, at 8-14 qubits."""
    rng = np.random.default_rng(n)
    for t, c in ((1, 0), (2, 3), (4, 1), (5, 0), (6, 2)):
        qubits = [int(q) for q in rng.permutation(n)]
        targets, controls = tuple(qubits[:t]), tuple(qubits[t:t + c])
        perm = rng.permutation(2 ** t)
        matrix = np.zeros((2 ** t, 2 ** t), dtype=complex)
        matrix[perm, np.arange(2 ** t)] = 1
        state = random_state(n, rng)
        gathered, dense = state.copy(), state.copy()
        _apply_gate(gathered, n, basis_permutation(targets, perm, "P", controls), targets, controls)
        _apply_gate(dense, n, register_unitary(targets, matrix, "M", controls), targets, controls)
        assert np.array_equal(gathered, dense), (t, c)
        assert not np.array_equal(gathered, state) or np.array_equal(perm, np.arange(2 ** t))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_permutation_run_is_the_classical_run_as_one_gate(seed):
    """X, CNOT, Toffoli, CSWAP and permutation gates on up to 7 qubits, made
    one permutation gate on their sorted qubits: the same amplitudes as the
    gates one by one, bit for bit."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    gates = []
    for _ in range(int(rng.integers(1, 12))):
        a, b, c = (int(q) for q in rng.choice(n, size=3, replace=False))
        kind = int(rng.integers(0, 5))
        gates.append([pauli_x(a), cnot(a, b), toffoli(a, b, c), cswap(a, b, c),
                      basis_permutation((a, b), rng.permutation(4), "P", (c,))][kind])
    run = permutation_run(gates, "R")
    assert run.matrix is None and run.targets == tuple(sorted(Circuit(gates).qubits()))
    state = StateVector(n, random_state(n, rng))
    assert np.array_equal(state.apply(run).amplitudes, state.apply_circuit(Circuit(gates)).amplitudes)


@pytest.mark.parametrize("gates", [[hadamard(0)], [cnot(0, 1), pauli_z(1)], [mcz((0,), 1)]])
def test_permutation_run_refuses_a_run_that_mixes_or_signs(gates):
    """H mixes basis states (labels no longer integers); a sign leaves a
    negative label, which is no bijection."""
    with pytest.raises(SimulationError, match="R: .*(not a basis permutation|not a bijection)"):
        permutation_run(gates, "R")


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


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_remap_is_the_same_circuit_on_renamed_qubits(seed):
    """Under a random qubit bijection, the renamed circuit's dense unitary on
    the mapped qubits is bit for bit the original's on its own qubits, and
    every gate keeps its name and matrix or permutation."""
    rng = np.random.default_rng(seed)
    qubits = tuple(int(q) for q in rng.choice(8, size=int(rng.integers(1, 6)), replace=False))
    span = int(rng.integers(1, len(qubits) + 1))
    gates = [_random_gate(qubits, span, rng) for _ in range(int(rng.integers(1, 12)))]
    gates.append(register_unitary(qubits[:1], np.eye(2), "W"))
    circ = Circuit(gates)
    image = tuple(int(q) for q in rng.permutation(10)[: len(qubits)])
    renamed = circ.remap(dict(zip(qubits, image)))
    assert np.array_equal(circuit_to_matrix(renamed, image), circuit_to_matrix(circ, qubits))
    for old, new in zip(circ, renamed, strict=True):
        assert new.name == old.name
        assert new.matrix is old.matrix and new.perm is old.perm


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_fuse_is_the_same_unitary_in_gates_of_at_most_width_qubits(seed):
    """Random 1-qubit, controlled, multi-target and permutation gates on up
    to 8 qubits, with one gate wider than ``width`` at a random position:
    the fused circuit has the same dense unitary to 1e-12, no fused gate
    spans more than ``width`` qubits, and the wide gate comes through as the
    same object."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, FUSE_QUBITS + 1))
    n = int(rng.integers(width + 1, 9))
    qubits = tuple(range(n))
    gates = [_random_gate(qubits, int(rng.integers(1, width + 1)), rng)
             for _ in range(int(rng.integers(0, 16)))]
    span = tuple(int(q) for q in rng.permutation(n)[: int(rng.integers(width + 1, n + 1))])
    wide = basis_permutation(span[:1], np.array([1, 0]), "WIDE", span[1:])
    gates.insert(int(rng.integers(0, len(gates) + 1)), wide)
    circ = Circuit(gates)
    fused = fuse(circ, width)
    np.testing.assert_allclose(circuit_to_matrix(fused, qubits), circuit_to_matrix(circ, qubits),
                               rtol=0, atol=1e-12)
    assert all(len(g.qubits()) <= width for g in fused if g is not wide)
    assert sum(g is wide for g in fused) == 1
    assert len(fused) <= len(circ)


def test_fuse_keeps_an_empty_circuit_empty_and_a_lone_gate_as_itself():
    gate = cnot(0, 1)
    assert len(fuse(Circuit())) == 0
    assert fuse(Circuit([gate])).gates[0] is gate
    fused = fuse(Circuit([hadamard(2), gate, pauli_x(2)]))
    assert [(g.targets, g.controls) for g in fused] == [((0, 1, 2), ())]


@pytest.mark.parametrize("gate,mapping", [
    (cnot(0, 1), {1: 0}),                                   # control onto target
    (cswap(0, 1, 2), {2: 1}),                               # two targets merged
    (mcz((0, 1), 2), {1: 0}),                               # two controls merged
    (basis_permutation((0, 1), np.array([1, 0, 3, 2]), "P", (2,)), {2: 0}),
])
def test_remap_refuses_to_merge_qubits_of_one_gate(gate, mapping):
    with pytest.raises(SimulationError):
        Circuit([hadamard(5), gate]).remap(mapping)


def test_netlist_format():
    circ = Circuit([hadamard(0), cnot(0, 1), mcz((0, 1), 2)])
    lines = circ.netlist().splitlines()
    assert lines == ["H 0", "CNOT 1 [0]", "MCZ 2 [0 1]"]


def _classical_circuit(rng):
    """A random circuit on 2-7 qubits with some qubits tracked: gates on the
    free qubits under tracked and free controls, X gates and bijections of
    the tracked values, and dense gates block-diagonal in their tracked
    targets. Every tracked qubit stays in a basis state, and closing X gates
    return it to its start value. Returns (circuit, start values, free qubits)."""
    def pick(pool, low, high):
        size = int(rng.integers(low, min(len(pool), high) + 1))
        return [int(q) for q in rng.choice(pool, size=size, replace=False)]

    n = int(rng.integers(2, 8))
    qubits = [int(q) for q in rng.permutation(n)]
    cut = int(rng.integers(1, n))
    tracked, free = qubits[:cut], qubits[cut:]
    values = {q: int(rng.integers(0, 2)) for q in tracked}
    bits = dict(values)
    gates = []
    for _ in range(int(rng.integers(1, 16))):
        kind = int(rng.integers(0, 4))
        tctl = tuple(pick(tracked, 0, 1))
        live = all(bits[q] for q in tctl)
        targets = [q for q in tracked if q not in tctl]
        if kind == 0 or not targets:  # a free gate, under tracked controls as well
            g = _random_gate(free, int(rng.integers(1, len(free) + 1)), rng)
            gates.append(Gate(g.name, g.targets, g.controls + tctl, g.matrix, g.perm))
        elif kind == 1:  # X on a tracked qubit, under tracked controls only
            gates.append(mcx(tctl, targets[0]))
            bits[targets[0]] ^= live
        else:
            # a dense gate needs a free target to carry its blocks' phases
            t_tr, t_fr = pick(targets, 1, 2), pick(free, kind == 2, 2)
            tgt = tuple(int(q) for q in rng.permutation(t_tr + t_fr))
            local = np.arange(2 ** len(tgt))
            key = sum(((local >> tgt.index(q)) & 1) << i for i, q in enumerate(t_tr))
            if kind == 2:  # one unitary block per tracked value, free controls allowed
                fctl = tuple(q for q in free if q not in t_fr)[: int(rng.integers(0, 2))]
                matrix = np.zeros((len(local), len(local)), dtype=complex)
                for k in range(2 ** len(t_tr)):
                    rows = np.flatnonzero(key == k)
                    z = rng.normal(size=(len(rows),) * 2) + 1j * rng.normal(size=(len(rows),) * 2)
                    matrix[np.ix_(rows, rows)] = np.linalg.qr(z)[0]
                gates.append(register_unitary(tgt, matrix, "B", tctl + fctl))
            else:  # a bijection of the tracked values, any bijection within each block
                sigma = rng.permutation(2 ** len(t_tr))
                perm = np.empty(len(local), dtype=np.int64)
                for k in range(2 ** len(t_tr)):
                    dst = np.flatnonzero(key == sigma[k])
                    perm[key == k] = dst[rng.permutation(len(dst))]
                gates.append(basis_permutation(tgt, perm, "P", tctl))
                if live:
                    k_out = int(sigma[sum(bits[q] << i for i, q in enumerate(t_tr))])
                    for i, q in enumerate(t_tr):
                        bits[q] = (k_out >> i) & 1
    gates += [pauli_x(q) for q in tracked if bits[q] != values[q]]
    return Circuit(gates), values, free


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_fix_classical_equals_the_tracked_slice_of_the_full_unitary(seed):
    """The reference reduction ``fix_classical`` is right: on inputs whose
    tracked qubits hold their start values, the reduced circuit on the kept
    qubits (renumbered in a random order) is the full circuit's unitary
    restricted to that slice, to 1e-12."""
    rng = np.random.default_rng(seed)
    circ, values, free = _classical_circuit(rng)
    keep = tuple(int(q) for q in rng.permutation(free))
    reduced = fix_classical(circ, values, keep)
    n = len(values) + len(keep)
    full = circuit_to_matrix(circ, tuple(range(n)))
    base = sum(v << q for q, v in values.items())
    local = np.arange(2 ** len(keep))
    idx = base + sum(((local >> i) & 1) << q for i, q in enumerate(keep))
    got = circuit_to_matrix(reduced, tuple(range(len(keep))))
    np.testing.assert_allclose(got, full[np.ix_(idx, idx)], rtol=0, atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_restrict_is_the_sector_slice_of_the_full_unitary(seed):
    """A dense gate, under controls or not, or a permutation gate,
    block-diagonal in random fixed targets: restricted to random values of
    them and renumbered in a random order, it is the slice of its full
    unitary at those values, exactly (the sign of a zero aside, which the
    full unitary's products set). One off-block entry of 1e-9 on the
    sector, or one permutation image outside it, is refused."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    qubits = [int(q) for q in rng.permutation(n)]
    t = int(rng.integers(1, n + 1))
    targets, controls = tuple(qubits[:t]), tuple(qubits[t:t + int(rng.integers(0, n - t + 1))])
    fixed = [q for q in targets if rng.random() < 0.5]
    values = {q: int(rng.integers(0, 2)) for q in fixed}
    local = np.arange(2 ** t)
    key = np.zeros(2 ** t, dtype=np.int64)
    for i, q in enumerate(fixed):
        key |= ((local >> targets.index(q)) & 1) << i
    blocks = [np.flatnonzero(key == k) for k in range(2 ** len(fixed))]
    dense = bool(rng.integers(0, 2))
    if dense:
        matrix = np.zeros((2 ** t, 2 ** t), dtype=complex)
        for rows in blocks:
            z = rng.normal(size=(len(rows),) * 2) + 1j * rng.normal(size=(len(rows),) * 2)
            matrix[np.ix_(rows, rows)] = np.linalg.qr(z)[0]
        gate = register_unitary(targets, matrix, "B", controls)
    else:
        perm = np.empty(2 ** t, dtype=np.int64)
        for rows in blocks:
            perm[rows] = rows[rng.permutation(len(rows))]
        gate = basis_permutation(targets, perm, "P", controls)
    kept = [q for q in targets + controls if q not in values]
    renumber = dict(zip(kept, (int(i) for i in rng.permutation(len(kept)))))
    span = tuple(sorted(targets + controls))
    full = circuit_to_matrix(Circuit([gate]), span)
    reduced = np.arange(2 ** len(kept))
    idx = np.full(len(reduced), sum(v << span.index(q) for q, v in values.items()))
    for q in kept:
        idx |= ((reduced >> renumber[q]) & 1) << span.index(q)
    got = circuit_to_matrix(Circuit([restrict(gate, values, renumber)]), tuple(range(len(kept))))
    assert np.array_equal(got, full[np.ix_(idx, idx)])
    if not fixed:
        return
    value = sum(values[q] << i for i, q in enumerate(fixed))
    a, b = int(blocks[value][0]), int(blocks[value ^ 1][0])  # in and out of the sector
    if dense:
        leaky = matrix.copy()
        leaky[b, a] = 1e-9
        bad = Gate.derived("B", targets, controls, leaky)
    else:
        swapped = perm.copy()
        swapped[[a, b]] = perm[[b, a]]
        bad = basis_permutation(targets, swapped, "P", controls)
    with pytest.raises(SimulationError, match="off their basis values"):
        restrict(bad, values, renumber)


def _off_block_rotation(angle):
    """A 2-qubit gate on (fixed 0, free 1), block-diagonal in qubit 0 but
    for a rotation by ``angle`` between the two values of qubit 0 at qubit 1 = 0."""
    c, s = np.cos(angle), np.sin(angle)
    matrix = np.eye(4, dtype=complex)
    matrix[np.ix_([0, 1], [0, 1])] = [[c, -s], [s, c]]
    return register_unitary((0, 1), matrix, "R")


@pytest.mark.parametrize("gate,values,renumber", [
    (hadamard(0), {0: 0}, {}),                                  # superposition of a fixed qubit
    (pauli_x(0), {0: 1}, {}),                                   # a fixed qubit flipped
    (cnot(1, 0), {0: 0}, {1: 0}),                               # flipped under a free control
    (_off_block_rotation(1e-9), {0: 0}, {1: 0}),                # off-block entry of 1e-9
    (cswap(2, 0, 1), {0: 1, 1: 0}, {2: 0}),                     # two fixed targets exchanged
    (basis_permutation((0, 1), np.array([0, 3, 2, 1]), "P", (2,)), {1: 0}, {0: 0, 2: 1}),
], ids=["H", "X", "CNOT", "off-block", "CSWAP", "perm"])
def test_restrict_refuses_a_gate_that_leaves_the_sector(gate, values, renumber):
    """Each way a gate can move an input off the fixed targets' basis
    values is refused, in a dense matrix or a permutation, whether or not
    the gate is controlled."""
    with pytest.raises(SimulationError, match=r"moves qubits \[.*\] off their basis values"):
        restrict(gate, values, renumber)


def test_fix_classical_drops_and_strips_tracked_controls():
    """In the reference reduction, controls reading 0 drop the gate, controls
    reading 1 are removed, an uncontrolled X moves the tracked bit, and the
    kept qubits are renumbered."""
    circ = Circuit([toffoli(0, 1, 3), pauli_x(0), toffoli(0, 1, 3), cnot(0, 2), pauli_x(0)])
    reduced = fix_classical(circ, {0: 0}, (3, 1, 2))
    assert reduced.netlist().splitlines() == ["TOFFOLI 0 [1]", "CNOT 2"]
