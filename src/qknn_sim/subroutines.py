"""Quantum primitives for the classifier: state preparation, interference
tests, the fidelity/dot-product reflection operators, and phase estimation.

The central object is the reflection operator built from the state-prep
oracles. For the fidelity path it is

    G = U W S0 W^dag U^dag Z_B,    S0 = 1 - 2|0..0><0..0| on (train,test,B),

where U prepares the test state and runs the swap-test network. Restricted
to the index-j block, G rotates a two-dimensional subspace by angle
2*pi*theta_j with sin(pi*theta_j) = sqrt((1+F_j)/2), so phase estimation on
G digitizes the fidelity F_j. The dot-product analogue H uses the Hadamard
test and sin(pi*theta_j) = sqrt((1+X_j)/2) with X_j the real inner product.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    Circuit,
    Gate,
    RegisterLayout,
    SimulationError,
    StateVector,
    circuit_to_matrix,
    cswap,
    hadamard,
    mcz,
    pauli_x,
    pauli_z,
    register_unitary,
)


def unitary_with_first_column(psi: np.ndarray) -> np.ndarray:
    """Complete |psi> to a full unitary whose first column is exactly psi."""
    psi = np.asarray(psi, dtype=complex)
    d = len(psi)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise SimulationError("state-prep target is not normalized")
    q, _ = np.linalg.qr(np.column_stack([psi, np.eye(d, dtype=complex)]))
    phase = np.vdot(q[:, 0], psi)
    q[:, 0] *= phase / abs(phase)
    # kill the residual O(eps) mismatch so V|0> reproduces psi to ~1e-16
    q[:, 0] = psi
    return q


@dataclass(eq=False)
class StatePrepOracle:
    """A state-preparation oracle: V for the test state, W for the train set.

    V maps |0^n> to the stored test state on its register. W is multiplexed:
    |j>|0^n> -> |j>|phi_j> for every index j, realized as a block-diagonal
    unitary on (index, train); each use is accounted as a single W query.
    """

    kind: str  # "V" | "W"
    circuit: Circuit
    registers: tuple[str, ...]
    states: np.ndarray  # V: (2**n,), W: (M, 2**n)

    def inverse_circuit(self) -> Circuit:
        return self.circuit.inverse()


def make_V(psi: np.ndarray, layout: RegisterLayout, register: str = "test") -> StatePrepOracle:
    qubits = layout.qubits(register)
    mat = unitary_with_first_column(psi)
    gate = register_unitary(qubits, mat, "V", prep_counts=(("V", 1),))
    return StatePrepOracle("V", Circuit([gate]), (register,), np.asarray(psi, dtype=complex))


def make_W(phis: np.ndarray, layout: RegisterLayout, index: str = "index",
           train: str = "train") -> StatePrepOracle:
    phis = np.asarray(phis, dtype=complex)
    M, dim = phis.shape
    m = layout.size(index)
    if M != 2 ** m:
        raise SimulationError(f"W needs M = 2**{m} train states, got {M}")
    if dim != 2 ** layout.size(train):
        raise SimulationError("train state dimension does not match train register")
    blocks = np.zeros((M * dim, M * dim), dtype=complex)
    for j in range(M):
        # index register sits on the low bits: local value = j + t*M
        blocks += np.kron(unitary_with_first_column(phis[j]), _basis_projector(M, j))
    qubits = layout.qubits(index) + layout.qubits(train)
    gate = register_unitary(qubits, blocks, "W", prep_counts=(("W", 1),))
    return StatePrepOracle("W", Circuit([gate]), (index, train), phis)


def _basis_projector(dim: int, j: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[j, j] = 1.0
    return p


def validate_W(W: StatePrepOracle, layout: RegisterLayout, atol: float = 1e-10) -> None:
    """Exhaustively check W|j>|0> = |j>|phi_j> and identity on the index register."""
    index, train = W.registers
    m, n = layout.size(index), layout.size(train)
    if m > 3 or n > 3:
        raise SimulationError("exhaustive W validation limited to M <= 8, n <= 3")
    wmat = circuit_to_matrix(W.circuit, layout.qubits(index) + layout.qubits(train))
    M, dim = 2 ** m, 2 ** n
    for j in range(M):
        col = wmat[:, j]  # input |j>|0>
        expected = np.zeros(M * dim, dtype=complex)
        for t in range(dim):
            expected[j + t * M] = W.states[j][t]
        if np.linalg.norm(col - expected) > atol:
            raise SimulationError(f"W action wrong on index {j}")


# --- interference tests ------------------------------------------------------


def swap_test_circuit(layout: RegisterLayout, train: str = "train", test: str = "test",
                      b: str = "B") -> Circuit:
    tr, ts, (bq,) = layout.qubits(train), layout.qubits(test), layout.qubits(b)
    if len(tr) != len(ts):
        raise SimulationError("train/test register size mismatch")
    circ = Circuit([hadamard(bq)])
    for q1, q2 in zip(tr, ts):
        circ.append(cswap(bq, q1, q2))
    circ.append(hadamard(bq))
    return circ


def swap_test_apply(state: StateVector, layout: RegisterLayout, train: str = "train",
                    test: str = "test", b: str = "B") -> StateVector:
    """Apply the swap-test network (sans measurement) with B as control."""
    if not state.register_is_zero(b):
        raise SimulationError("swap test control register B is not fresh")
    return state.apply_circuit(swap_test_circuit(layout, train, test, b))


def build_U(V: StatePrepOracle, layout: RegisterLayout, train: str = "train",
            test: str = "test", b: str = "B") -> Circuit:
    """Test-state preparation followed by the swap-test network."""
    circ = Circuit()
    circ.extend(V.circuit)
    circ.extend(swap_test_circuit(layout, train, test, b))
    return circ


def hadamard_test_circuit(V: StatePrepOracle, W: StatePrepOracle, layout: RegisterLayout,
                          data: str = "data", b: str = "B") -> Circuit:
    """Prepare the test state, then interfere it with the indexed train state.

    Combined unitary of the preparation and Hadamard-test steps: on input
    |j>|0^n>|0>_B the output is (1/2)[(|v>+|u_j>)|0>_B + (|v>-|u_j>)|1>_B].
    """
    (bq,) = layout.qubits(b)
    v_gate = V.circuit.gates[0]
    w_gate = W.circuit.gates[0]
    if v_gate.targets != layout.qubits(data):
        raise SimulationError("test-state oracle does not act on the data register")
    circ = Circuit()
    circ.extend(V.circuit)
    circ.append(hadamard(bq))
    circ.append(Gate("V^-1", v_gate.targets, (bq,), matrix=v_gate.matrix.conj().T,
                     prep_counts=(("V", 1),)))
    circ.append(Gate("W", w_gate.targets, (bq,), matrix=w_gate.matrix,
                     prep_counts=(("W", 1),)))
    circ.append(hadamard(bq))
    return circ


def hadamard_test_apply(state: StateVector, layout: RegisterLayout, V: StatePrepOracle,
                        W: StatePrepOracle, data: str = "data", b: str = "B") -> StateVector:
    if not state.register_is_zero(b):
        raise SimulationError("Hadamard test control register B is not fresh")
    if not state.register_is_zero(data):
        raise SimulationError("Hadamard test data register is not fresh")
    return state.apply_circuit(hadamard_test_circuit(V, W, layout, data, b))


# --- reflection operators ----------------------------------------------------


def zero_reflection(qubits: tuple[int, ...]) -> Circuit:
    """S0 = 1 - 2|0..0><0..0| on the given qubits, via X-conjugated multi-Z."""
    circ = Circuit([pauli_x(q) for q in qubits])
    if len(qubits) == 1:
        circ.append(pauli_z(qubits[0]))
    else:
        circ.append(mcz(qubits[:-1], qubits[-1]))
    circ.extend([pauli_x(q) for q in qubits])
    return circ


@dataclass(eq=False)
class ReflectionOperator:
    """A compiled reflection operator (G or H) plus the pieces QADC needs."""

    kind: str                      # "fidelity" | "dot"
    circuit: Circuit               # one application, as gates
    support: tuple[int, ...]       # qubits the operator acts on
    matrix: np.ndarray             # dense unitary on the support
    amp_circuit: Circuit           # the E^amp circuit (uncomputed at the end)
    work_registers: tuple[str, ...]
    layout: RegisterLayout
    prep_per_application: Counter = field(default_factory=Counter)


def build_G(V: StatePrepOracle, W: StatePrepOracle, layout: RegisterLayout,
            index: str = "index", train: str = "train", test: str = "test",
            b: str = "B") -> ReflectionOperator:
    """G = U W S0 W^dag U^dag Z_B on (index, train, test, B)."""
    for reg in (index, train, test, b):
        layout.range(reg)
    (bq,) = layout.qubits(b)
    u_circ = build_U(V, layout, train, test, b)
    circ = Circuit([pauli_z(bq)])
    circ.extend(u_circ.inverse())
    circ.extend(W.inverse_circuit())
    circ.extend(zero_reflection(layout.qubits_of([train, test, b])))
    circ.extend(W.circuit)
    circ.extend(u_circ)
    support = layout.qubits_of([index, train, test, b])
    matrix = circuit_to_matrix(circ, support)
    amp = Circuit()
    amp.extend(W.circuit)
    amp.extend(u_circ)
    return ReflectionOperator("fidelity", circ, support, matrix, amp,
                              (train, test, b), layout, circ.prep_counts())


def build_H_dot(V: StatePrepOracle, W: StatePrepOracle, layout: RegisterLayout,
                index: str = "index", data: str = "data", b: str = "B") -> ReflectionOperator:
    """H = V_c S0 V_c^dag Z_B with V_c the prepare-and-interfere unitary."""
    (bq,) = layout.qubits(b)
    vc = hadamard_test_circuit(V, W, layout, data, b)
    circ = Circuit([pauli_z(bq)])
    circ.extend(vc.inverse())
    circ.extend(zero_reflection(layout.qubits_of([data, b])))
    circ.extend(vc)
    support = layout.qubits_of([index, data, b])
    matrix = circuit_to_matrix(circ, support)
    return ReflectionOperator("dot", circ, support, matrix, vc,
                              (data, b), layout, circ.prep_counts())


# --- quantum phase estimation ------------------------------------------------


def qft_inverse_matrix(b: int) -> np.ndarray:
    d = 2 ** b
    x, t = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(-2j * np.pi * x * t / d) / math.sqrt(d)


def qpe_circuit(op: ReflectionOperator | Gate, phase_qubits: tuple[int, ...]) -> Circuit:
    """Standard phase estimation: controlled powers by repeated composition,
    then the inverse quantum Fourier transform on the phase register."""
    if isinstance(op, Gate):
        base_matrix = op.matrix
        base_support = op.targets
        base_prep: Counter = Counter(dict(op.prep_counts))
        name = op.name
    else:
        base_matrix, base_support, base_prep, name = (
            op.matrix, op.support, op.prep_per_application, "G")
    b = len(phase_qubits)
    circ = Circuit([hadamard(q) for q in phase_qubits])
    power = base_matrix
    reps = 1
    for k, ctl in enumerate(phase_qubits):
        if k > 0:
            power = power @ power  # compose, never diagonalize
            reps *= 2
        counts = tuple((tag, cnt * reps) for tag, cnt in base_prep.items())
        circ.append(register_unitary(base_support, power, f"{name}^{reps}",
                                     controls=(ctl,), prep_counts=counts))
    circ.append(register_unitary(phase_qubits, qft_inverse_matrix(b), "IQFT"))
    return circ


def qpe_apply(state: StateVector, layout: RegisterLayout, op: ReflectionOperator | Gate,
              phase: str = "phase") -> StateVector:
    if not state.register_is_zero(phase):
        raise SimulationError("phase register is not fresh")
    return state.apply_circuit(qpe_circuit(op, layout.qubits(phase)))


# --- eigenstructure ----------------------------------------------------------


@dataclass(eq=False)
class EigenPair:
    """Analytic eigenstructure of a G_j/H_j block for similarity value s."""

    similarity: float          # F_j in [0,1] or X_j in [-1,1]
    theta: float               # phase units, sin(pi*theta) = sqrt((1+s)/2)
    alpha: float
    beta: float

    @classmethod
    def from_similarity(cls, s: float) -> "EigenPair":
        s = min(max(s, -1.0), 1.0)
        alpha = math.sqrt((1.0 + s) / 2.0)
        beta = math.sqrt(max(1.0 - alpha ** 2, 0.0))
        theta = math.asin(min(alpha, 1.0)) / math.pi
        return cls(s, theta, alpha, beta)


@dataclass(eq=False)
class EigenReport:
    similarity: float
    theta_expected: float
    theta_measured: tuple[float, float] | None
    eigenphase_error: float
    decomposition_error: float
    degenerate: bool


def _block_report(block: np.ndarray, pair: EigenPair, psi0: np.ndarray | None,
                  psi1: np.ndarray | None) -> EigenReport:
    """Check a G_j/H_j block against its analytic eigenstructure.

    The block is restricted to span(psi0, psi1); its eigenphases must be
    +/-theta (differences taken mod 1), and alpha*psi0 + beta*psi1 must
    recompose from the two eigenvectors. At the degenerate edges one vector
    is None and the survivor must be an eigenvector on its own: psi0 with
    eigenvalue -1 (theta = 1/2) or psi1 with eigenvalue +1 (theta = 0).
    """
    if psi1 is None:
        resid = float(np.linalg.norm(block @ psi0 + psi0))
        return EigenReport(pair.similarity, pair.theta, None, resid, 0.0, True)
    if psi0 is None:
        resid = float(np.linalg.norm(block @ psi1 - psi1))
        return EigenReport(pair.similarity, pair.theta, None, resid, 0.0, True)
    basis = np.column_stack([psi0, psi1])
    evals, _ = np.linalg.eig(basis.conj().T @ block @ basis)
    measured = tuple(sorted((float(np.angle(val)) / (2 * np.pi)) % 1.0 for val in evals))
    expected = tuple(sorted((pair.theta % 1.0, (-pair.theta) % 1.0)))
    phase_err = max(min(abs(a - b), 1.0 - abs(a - b)) for a, b in zip(measured, expected))
    plus = (psi0 + 1j * psi1) / math.sqrt(2)
    minus = (psi0 - 1j * psi1) / math.sqrt(2)
    recomposed = (-1j / math.sqrt(2)) * (
        np.exp(1j * np.pi * pair.theta) * plus - np.exp(-1j * np.pi * pair.theta) * minus)
    direct = pair.alpha * psi0 + pair.beta * psi1
    decomp_err = float(np.linalg.norm(recomposed - direct))
    return EigenReport(pair.similarity, pair.theta, measured, phase_err, decomp_err, False)


def g_block_matrix(psi: np.ndarray, phi: np.ndarray, layout: RegisterLayout,
                   train: str = "train", test: str = "test", b: str = "B") -> np.ndarray:
    """Dense G_j = U S_j U^dag Z_B on the (train, test, B) qubits."""
    n = layout.size(train)
    V = make_V(psi, layout, register=test)
    u_mat = circuit_to_matrix(build_U(V, layout, train, test, b),
                              layout.qubits_of([train, test, b]))
    dim = 2 ** (2 * n + 1)
    w = np.zeros(dim, dtype=complex)
    w[: 2 ** n] = phi                       # |phi>_tr |0>_tst |0>_B
    s_j = np.eye(dim, dtype=complex) - 2.0 * np.outer(w, w.conj())
    z_b = np.diag(np.where((np.arange(dim) >> (2 * n)) & 1 == 1, -1.0, 1.0)).astype(complex)
    return u_mat @ s_j @ u_mat.conj().T @ z_b


def h_block_matrix(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Dense H_j = (1 - 2|Psi_j><Psi_j|) Z_B on the (data, B) qubits."""
    dim = len(v)
    psi_j = np.concatenate([(v + u) / 2.0, (v - u) / 2.0])  # B on the high bit
    full = 2 * dim
    z_b = np.diag(np.concatenate([np.ones(dim), -np.ones(dim)])).astype(complex)
    return (np.eye(full, dtype=complex) - 2.0 * np.outer(psi_j, psi_j.conj())) @ z_b


def verify_eigendecomposition_dot(v: np.ndarray, u: np.ndarray) -> EigenReport:
    """H_j analogue of the fidelity-path eigenstructure check (real states).

    X = +1 or -1 collapses the block onto one branch (flagged degenerate).
    """
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    pair = EigenPair.from_similarity(float(np.vdot(v, u).real))
    zeros = np.zeros(len(v))
    psi0 = (np.concatenate([(v + u) / (2 * pair.alpha), zeros])
            if pair.alpha > 1e-9 else None)
    psi1 = (np.concatenate([zeros, (v - u) / (2 * pair.beta)])
            if pair.beta > 1e-9 else None)
    return _block_report(h_block_matrix(v, u), pair, psi0, psi1)


def verify_eigendecomposition(psi: np.ndarray, phi: np.ndarray,
                              layout: RegisterLayout | None = None) -> EigenReport:
    """Diagonalize the constructed G_j block and compare with the analytic
    eigenphases and the two-eigenvector decomposition of the swap-test state.

    The B=1 branch follows the swap-test circuit's sign convention:
    (|phi>_tr|psi>_tst - |psi>_tr|phi>_tst)/2. F = 1 collapses the block
    onto the symmetric branch (flagged degenerate).
    """
    n = int(round(math.log2(len(psi))))
    if layout is None:
        layout = RegisterLayout.from_sizes([("train", n), ("test", n), ("B", 1)])
    if 2 * n + 1 > 12:
        raise SimulationError("instance too large for dense eigendecomposition")
    sym = np.kron(psi, phi) + np.kron(phi, psi)      # test register on the high bits
    anti = np.kron(psi, phi) - np.kron(phi, psi)
    pair = EigenPair.from_similarity(abs(np.vdot(psi, phi)) ** 2)
    zeros = np.zeros(len(sym))
    psi0 = np.concatenate([sym, zeros]) / (2 * pair.alpha)
    psi1 = np.concatenate([zeros, anti]) / (2 * pair.beta) if pair.beta > 1e-9 else None
    return _block_report(g_block_matrix(psi, phi, layout), pair, psi0, psi1)
