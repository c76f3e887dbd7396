"""Swap/Hadamard test laws, the reflection operators, and phase estimation."""
import math

import numpy as np
import pytest

from qknn_sim import invariants
from qknn_sim.statevec import RegisterLayout, SimulationError, StateVector, pauli_x, register_unitary
from qknn_sim.subroutines import (
    build_G,
    build_U,
    eigen_law_error,
    eigenphase,
    g_block_matrix,
    hadamard_test_apply,
    make_V,
    make_W,
    qpe_circuit,
    swap_test_apply,
    unitary_with_first_column,
    zero_reflection,
)
from qknn_sim.statevec import circuit_to_matrix

RNG = np.random.default_rng(20240917)


def haar(n, rng=RNG):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def real_unit(n, rng=RNG):
    v = rng.normal(size=2 ** n)
    return (v / np.linalg.norm(v)).astype(complex)


def _swap_layout(n):
    return RegisterLayout.from_sizes([("train", n), ("test", n), ("B", 1)])


def _loaded_pair(psi, phi, layout):
    state = StateVector.zero_state(layout)
    state = state.apply(register_unitary(layout.qubits("train"),
                                         unitary_with_first_column(phi), "P"))
    state = state.apply(register_unitary(layout.qubits("test"),
                                         unitary_with_first_column(psi), "P"))
    return state


def test_unitary_with_first_column_edge_cases():
    for psi in (np.array([0, 1], dtype=complex),
                np.array([0, 0, 1j, 0], dtype=complex),
                haar(2)):
        u = unitary_with_first_column(psi)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(len(psi)), atol=1e-12)
        np.testing.assert_allclose(u[:, 0], psi, atol=1e-14)


@pytest.mark.parametrize("psi,phi,pr0", [
    (np.array([1, 0]), np.array([1, 0]), 1.0),
    (np.array([1, 0]), np.array([0, 1]), 0.5),
    (np.array([1, 0]), np.array([1, 1]) / math.sqrt(2), 0.75),
])
def test_swap_test_known_probabilities(psi, phi, pr0):
    layout = _swap_layout(1)
    out = swap_test_apply(_loaded_pair(psi.astype(complex), phi.astype(complex), layout), layout)
    assert abs(out.measure_probs("B")[0] - pr0) < 1e-12


def test_swap_test_law_random_pairs():
    """Pr(B=0) = (1 + F)/2 to 1e-10 over random pairs, n up to 3."""
    assert invariants.swap_test_law(RNG, 60, sizes=(1, 2, 3)) < 1e-10


def test_swap_test_rejects_dirty_control():
    layout = _swap_layout(1)
    state = StateVector.zero_state(layout).apply(pauli_x(layout.qubits("B")[0]))
    with pytest.raises(SimulationError):
        swap_test_apply(state, layout)


def test_swap_test_rejects_register_size_mismatch():
    layout = RegisterLayout.from_sizes([("train", 2), ("test", 1), ("B", 1)])
    with pytest.raises(SimulationError):
        swap_test_apply(StateVector.zero_state(layout), layout)


def _dot_setup(v, us):
    m = int(round(math.log2(len(us))))
    n = int(round(math.log2(len(v))))
    layout = RegisterLayout.from_sizes([("index", m), ("data", n), ("B", 1)])
    V = make_V(np.asarray(v, dtype=complex), layout, register="data")
    W = make_W(np.asarray(us, dtype=complex), layout, index="index", train="data")
    return layout, V, W


@pytest.mark.parametrize("case", ["equal", "opposite", "hadamard"])
def test_hadamard_test_known_probabilities(case):
    v = np.array([1.0, 0.0])
    if case == "equal":
        u, pr0 = v, 1.0
    elif case == "opposite":
        u, pr0 = -v, 0.0
    else:
        u, pr0 = np.array([1.0, 1.0]) / math.sqrt(2), (1 + 1 / math.sqrt(2)) / 2
    layout, V, W = _dot_setup(v, np.stack([u, u]))
    out = hadamard_test_apply(StateVector.zero_state(layout), layout, V, W)
    assert abs(out.measure_probs("B")[0] - pr0) < 1e-10


def test_hadamard_test_law_random_real_pairs():
    """Pr(B=0) = (1 + Re<v|u_j>)/2 to 1e-10, checked per index branch."""
    assert invariants.hadamard_test_law(RNG, 25) < 1e-10


def test_validate_W_exhaustive():
    """W|j>|0> = |j>|phi_j> on every index j, to 1e-10."""
    layout = RegisterLayout.from_sizes([("index", 3), ("train", 2)])
    states = np.stack([haar(2) for _ in range(8)])
    w_mat = circuit_to_matrix(make_W(states, layout).circuit, layout.qubits_of(["index", "train"]))
    for j in range(8):
        expected = np.zeros(32, dtype=complex)
        expected[j::8] = states[j]  # index on the low bits: local value j + t*M
        assert np.linalg.norm(w_mat[:, j] - expected) <= 1e-10


def test_W_acts_as_identity_on_index():
    layout = RegisterLayout.from_sizes([("index", 2), ("train", 1)])
    states = np.stack([haar(1) for _ in range(4)])
    w_mat = circuit_to_matrix(make_W(states, layout).circuit, (0, 1, 2))
    # every column keeps its index-block: entries across different j vanish
    for j in range(4):
        for t in range(2):
            col = w_mat[:, j + 4 * t]
            for idx in range(8):
                if (idx & 3) != j:
                    assert abs(col[idx]) < 1e-12


def _g_setup(psi, phis, n):
    m = int(round(math.log2(len(phis))))
    layout = RegisterLayout.from_sizes([("index", m), ("train", n), ("test", n), ("B", 1)])
    V = make_V(psi, layout, register="test")
    W = make_W(phis, layout)
    return layout, V, W, build_G(V, W, layout)


def test_G_block_eigenphases_match_fidelity():
    """Known angles: F=1 gives theta=1/2, F=0 gives 1/4, F=1/2 gives 1/3."""
    psi = np.array([1, 0], dtype=complex)
    phis = np.array([[1, 0], [0, 1]], dtype=complex)
    # F = 1 is degenerate: the B=1 branch vanishes and psi0 alone has eigenvalue -1
    assert abs(eigenphase(1.0) - 0.5) < 1e-12
    assert invariants.g_eigen_law(psi, phis[0]) < 1e-9
    assert abs(eigenphase(0.0) - 0.25) < 1e-12
    assert invariants.g_eigen_law(psi, phis[1]) < 1e-9
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    assert abs(eigenphase(abs(np.vdot(plus, phis[0])) ** 2) - 1 / 3) < 1e-12
    assert invariants.g_eigen_law(plus, phis[0]) < 1e-9


def test_G_acts_block_diagonally():
    """|G(|j> (x) v) - |j> (x) G_j v| < 1e-10 for all j and random v."""
    rng = np.random.default_rng(77)
    for n, M in ((1, 2), (2, 4)):
        assert invariants.g_block_diagonality(rng, n, M) < 1e-10


def test_W_S0_Wdag_expands_to_controlled_reflections():
    """W S0 W^dag equals sum_k |k><k| (x) S_k as matrices."""
    rng = np.random.default_rng(13)
    n, M = 1, 4
    psi = haar(n, rng)
    phis = np.stack([haar(n, rng) for _ in range(M)])
    layout, V, W, _ = _g_setup(psi, phis, n)
    from qknn_sim.statevec import Circuit
    circ = Circuit()
    circ.extend(W.circuit.inverse())
    circ.extend(zero_reflection(layout.qubits_of(["train", "test", "B"])))
    circ.extend(W.circuit)
    got = circuit_to_matrix(circ, layout.qubits_of(["index", "train", "test", "B"]))
    dim = 2 ** (2 * n + 1)
    want = np.zeros_like(got)
    for k in range(M):
        w = np.zeros(dim, dtype=complex)
        w[: 2 ** n] = phis[k]
        s_k = np.eye(dim) - 2 * np.outer(w, w.conj())
        for a in range(dim):
            for b_ in range(dim):
                want[k + a * M, k + b_ * M] = s_k[a, b_]
    assert np.abs(got - want).max() < 1e-10


def test_H_acts_block_diagonally():
    assert invariants.h_block_diagonality(np.random.default_rng(31)) < 1e-10


def test_qpe_z_eigenstate_is_exact():
    layout = RegisterLayout.from_sizes([("sys", 1), ("phase", 3)])
    from qknn_sim.statevec import pauli_z
    out = StateVector.zero_state(layout).apply_circuit(
        qpe_circuit(pauli_z(0), layout.qubits("phase")))
    assert abs(out.measure_probs("phase")[0] - 1.0) < 1e-10


def test_qpe_on_G_dyadic_phases():
    """F=0 concentrates on t in {2, 6} at b=3; F=1 on t=2 at b=2."""
    psi = np.array([1, 0], dtype=complex)
    phis = np.array([[1, 0], [0, 1]], dtype=complex)
    for b, j, outcomes in ((3, 1, {2: 0.5, 6: 0.5}), (2, 0, {2: 1.0})):
        layout = RegisterLayout.from_sizes([
            ("index", 1), ("train", 1), ("test", 1), ("B", 1), ("phase", b)])
        V = make_V(psi, layout, register="test")
        W = make_W(phis, layout)
        G = build_G(V, W, layout)
        state = StateVector.zero_state(layout)
        if j:
            state = state.apply(pauli_x(0))
        state = state.apply_circuit(W.circuit).apply_circuit(build_U(V, layout))
        probs = state.apply_circuit(qpe_circuit(G.gate, layout.qubits("phase"))).measure_probs(
            "phase")
        for t, p in outcomes.items():
            assert abs(probs[t] - p) < 1e-9
        assert abs(probs.sum() - 1) < 1e-12
        assert sum(probs[t] for t in outcomes) > 1 - 1e-9


def test_qpe_non_dyadic_peaks_near_theta():
    """Most probable outcome neighbors theta or 1-theta for random pairs, b=5."""
    rng = np.random.default_rng(99)
    b = 5
    layout = RegisterLayout.from_sizes([("train", 1), ("test", 1), ("B", 1), ("phase", b)])
    for _ in range(50):
        psi, phi = haar(1, rng), haar(1, rng)
        F = abs(np.vdot(psi, phi)) ** 2
        theta = math.asin(math.sqrt((1 + F) / 2)) / math.pi
        gj = g_block_matrix(psi, phi, RegisterLayout.from_sizes(
            [("train", 1), ("test", 1), ("B", 1)]))
        gate = register_unitary((0, 1, 2), gj, "Gj")
        sym = np.kron(psi, phi) + np.kron(phi, psi)
        anti = np.kron(psi, phi) - np.kron(phi, psi)
        amp = np.concatenate([sym, anti]) / 2.0
        state_vec = np.zeros(2 ** layout.num_qubits, dtype=complex)
        state_vec[: 8] = amp
        state = StateVector(layout.num_qubits, state_vec, layout)
        probs = state.apply_circuit(qpe_circuit(gate, layout.qubits("phase"))).measure_probs(
            "phase")
        t_star = int(np.argmax(probs))
        near = min(abs(t_star / 2 ** b - theta), abs(t_star / 2 ** b - (1 - theta)))
        assert near <= 2 ** (-b) + 1e-12


def test_eigenpair_invariant():
    for F in (0.0, 0.3, 0.65, 1.0):
        alpha = math.sin(math.pi * eigenphase(F))
        assert abs(alpha ** 2 - (1 + F) / 2) < 1e-10
        assert abs(alpha - math.sqrt((1 + F) / 2)) < 1e-12


def test_verify_eigendecomposition_matches_target_fidelity():
    """F = 0.3 gives eigenphases +/- arcsin(sqrt(0.65))/pi."""
    psi = np.array([1, 0], dtype=complex)
    phi = np.array([math.sqrt(0.3), math.sqrt(0.7)], dtype=complex)
    theta = math.asin(math.sqrt(0.65)) / math.pi
    assert abs(eigenphase(abs(np.vdot(psi, phi)) ** 2) - theta) < 1e-12
    assert invariants.g_eigen_law(psi, phi) < 1e-9


def test_eigendecomposition_property_sweep():
    """100 random instances all verify within 1e-9."""
    rng = np.random.default_rng(4242)
    assert invariants.eigenstructure_law(rng, 100, 0, sizes=(1, 2)) < 1e-9


def test_dot_eigendecomposition_and_degenerate_edges():
    rng = np.random.default_rng(7)
    assert invariants.eigenstructure_law(rng, 0, 30) < 1e-9
    v = real_unit(2, rng)
    assert invariants.h_eigen_law(v, -v) < 1e-9       # X = -1 edge: psi1 alone, eigenvalue +1
    assert invariants.h_eigen_law(v, v) < 1e-9        # X = +1, theta = 1/2
    assert abs(eigenphase(1.0) - 0.5) < 1e-12


def test_eigen_law_reads_the_operator():
    """The law holds for G_j, edges included, but G_j^dag is off by
    2|sin(2 pi theta)| and the identity at F = 0 (theta = 1/4) by sqrt(2)."""
    rng = np.random.default_rng(11)
    block = RegisterLayout.from_sizes([("train", 1), ("test", 1), ("B", 1)])
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    for psi, phi in [(zero, one), (zero, zero)] + [(haar(1, rng), haar(1, rng)) for _ in range(20)]:
        F = abs(np.vdot(psi, phi)) ** 2
        branches = (np.kron(psi, phi) + np.kron(phi, psi), np.kron(psi, phi) - np.kron(phi, psi))
        gj = g_block_matrix(psi, phi, block)
        assert eigen_law_error(gj, F, *branches) < 1e-9
        adjoint = eigen_law_error(gj.conj().T, F, *branches)
        assert abs(adjoint - 2 * abs(math.sin(2 * math.pi * eigenphase(F)))) < 1e-9
        if F < 1e-12:
            assert adjoint >= 1 and eigen_law_error(np.eye(8), F, *branches) >= 1
