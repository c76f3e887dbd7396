"""Quantum primitives for the classifier: state preparation, interference
tests, the reflection operators G and H, and phase estimation.

The central object is the reflection operator built from the state-prep
oracles. For the fidelity path it is

    G = U W S0 W^dag U^dag Z_B,    S0 = 1 - 2|0..0><0..0| on (train,test,B),

where U prepares the test state and runs the swap-test network. Restricted
to the index-j block, G rotates a two-dimensional subspace by angle
2*pi*theta_j with sin(pi*theta_j) = sqrt((1+F_j)/2), so phase estimation on
G digitizes the fidelity F_j. The analogue H uses the Hadamard test and
sin(pi*theta_j) = sqrt((1+X_j)/2) with X_j the real inner product; no
classifier digitizes it, and it is kept for its eigenstructure laws.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .statevec import (
    Circuit,
    Gate,
    RegisterLayout,
    SimulationError,
    circuit_to_matrix,
    cswap,
    fuse_run,
    hadamard,
    mcz,
    pauli_x,
    pauli_z,
    register_unitary,
    require_fits,
    require_unit_states,
)


def unitary_with_first_column(psi: np.ndarray) -> np.ndarray:
    """Complete a unit state |psi> (within 1e-9, as every train and test state)
    to a full unitary whose first column is psi / |psi|."""
    psi = np.asarray(psi, dtype=complex)
    require_unit_states(psi, "state-prep target")
    psi = psi / np.linalg.norm(psi)
    d = len(psi)
    q, _ = np.linalg.qr(np.column_stack([psi, np.eye(d, dtype=complex)]))
    # QR gives psi's direction up to a phase and O(eps); V|0> must be psi exactly
    q[:, 0] = psi
    return q


def make_V(psi: np.ndarray, layout: RegisterLayout, register: str = "test") -> Gate:
    """V, the test-state oracle: |0^n> -> |psi> on ``register``."""
    mat = unitary_with_first_column(psi)
    return register_unitary(layout.qubits(register), mat, "V")


def make_W(phis: np.ndarray, layout: RegisterLayout, train: str = "train") -> Gate:
    """W, the train-set oracle: |j>|0^n> -> |j>|phi_j> as one gate and one query."""
    phis = np.asarray(phis, dtype=complex)
    M, dim = phis.shape
    m = layout.size("index")
    if M != 2 ** m:
        raise SimulationError(f"W needs M = 2**{m} train states, got {M}")
    if dim != 2 ** layout.size(train):
        raise SimulationError("train state dimension does not match train register")
    blocks = np.zeros((M * dim, M * dim), dtype=complex)
    for j in range(M):
        # index register sits on the low bits: block j holds local values j + t*M
        blocks[j::M, j::M] = unitary_with_first_column(phis[j])
    qubits = layout.qubits("index") + layout.qubits(train)
    return register_unitary(qubits, blocks, "W")


# --- interference tests ------------------------------------------------------


def swap_test_circuit(layout: RegisterLayout) -> Circuit:
    tr, ts, (bq,) = layout.qubits("train"), layout.qubits("test"), layout.qubits("B")
    if len(tr) != len(ts):
        raise SimulationError("train/test register size mismatch")
    return Circuit([hadamard(bq)] + [cswap(bq, q1, q2) for q1, q2 in zip(tr, ts)]
                   + [hadamard(bq)])


def build_U(V: Gate, layout: RegisterLayout) -> Circuit:
    """Test-state preparation followed by the swap-test network."""
    return Circuit([V] + swap_test_circuit(layout).gates)


def hadamard_test_circuit(V: Gate, W: Gate, layout: RegisterLayout) -> Circuit:
    """Prepare the test state, then interfere it with the indexed train state.

    Combined unitary of the preparation and Hadamard-test steps: on input
    |j>|0^n>|0>_B the output is (1/2)[(|v>+|u_j>)|0>_B + (|v>-|u_j>)|1>_B].
    """
    (bq,) = layout.qubits("B")
    if V.targets != layout.qubits("data"):
        raise SimulationError("test-state oracle does not act on the data register")
    v_inv, w = (Gate.derived(g.name, g.targets, (bq,), g.matrix)
                for g in (V.inverse(), W))  # controlled on B
    return Circuit([V, hadamard(bq), v_inv, w, hadamard(bq)])


# --- reflection operators ----------------------------------------------------


def zero_reflection(qubits: tuple[int, ...]) -> Circuit:
    """S0 = 1 - 2|0..0><0..0| on the given qubits, via X-conjugated multi-Z."""
    flips = [pauli_x(q) for q in qubits]
    core = pauli_z(qubits[0]) if len(qubits) == 1 else mcz(qubits[:-1], qubits[-1])
    return Circuit(flips + [core] + flips)


@functools.cache
def fused_zero_reflection(qubits: tuple[int, ...]) -> Gate:
    """``zero_reflection`` as one dense gate, built once per register and
    read-only. Its entries are exactly 0 or +-1, so applying it rounds
    nothing the gate-by-gate circuit would not."""
    gate = fuse_run(zero_reflection(qubits).gates)
    gate.matrix.setflags(write=False)
    return gate


@dataclass(eq=False)
class ReflectionOperator:
    """A reflection operator (G or H) plus the prep circuit it reflects about."""

    gate: Gate                     # dense G or H on its support
    amp_circuit: Circuit           # the prep circuit: E^amp, uncomputed at the end


def reflection_operator(name: str, prep: Circuit, layout: RegisterLayout,
                        work: tuple[str, ...], support: tuple[str, ...]) -> ReflectionOperator:
    """prep S0 prep^dag Z_B on the ``support`` registers, as one dense gate
    called ``name``.

    S0 reflects about |0..0> on the ``work`` registers, whose last one is
    the interference ancilla B (``fused_zero_reflection``).
    """
    (bq,) = layout.qubits(work[-1])
    circ = Circuit([pauli_z(bq)] + prep.inverse().gates
                   + [fused_zero_reflection(layout.qubits_of(work))] + prep.gates)
    qubits = layout.qubits_of(support)
    gate = Gate.derived(name, qubits, (), circuit_to_matrix(circ, qubits))
    return ReflectionOperator(gate, prep)


def build_G(V: Gate, W: Gate, layout: RegisterLayout) -> ReflectionOperator:
    """G = U W S0 W^dag U^dag Z_B on (index, train, test, B)."""
    prep = Circuit([W] + build_U(V, layout).gates)
    return reflection_operator("G", prep, layout, ("train", "test", "B"),
                               ("index", "train", "test", "B"))


def build_H_dot(V: Gate, W: Gate, layout: RegisterLayout) -> ReflectionOperator:
    """H = V_c S0 V_c^dag Z_B with V_c the prepare-and-interfere unitary."""
    return reflection_operator("H", hadamard_test_circuit(V, W, layout), layout,
                               ("data", "B"), ("index", "data", "B"))


# --- quantum phase estimation ------------------------------------------------


def qpe_circuit(op: Gate, phase_qubits: tuple[int, ...]) -> Circuit:
    """Standard phase estimation of an uncontrolled unitary gate: op^(2^k)
    controlled on phase_qubits[k], each the square of the one before
    (composed, never diagonalized), then the inverse quantum Fourier
    transform on the phase register (``inverse_qft``)."""
    if op.matrix is None or op.controls:
        raise SimulationError(f"{op.name}: phase estimation needs an uncontrolled matrix gate")
    iqft = inverse_qft(phase_qubits)  # a register too wide is refused before any power
    gates, power = [hadamard(q) for q in phase_qubits], op.matrix
    for k, ctl in enumerate(phase_qubits):
        if k > 0:
            power = power @ power
        gates.append(Gate.derived(f"{op.name}^{2 ** k}", op.targets, (ctl,), power))
    return Circuit(gates + [iqft])


@functools.cache
def inverse_qft(phase_qubits: tuple[int, ...]) -> Gate:
    """The inverse QFT on ``phase_qubits``, built and checked once per
    register: every phase estimation there shares its read-only matrix."""
    b, d = len(phase_qubits), 2 ** len(phase_qubits)
    require_fits(f"a {b}-qubit inverse QFT", d * d)
    x, t = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    gate = register_unitary(phase_qubits, np.exp(-2j * np.pi * x * t / d) / math.sqrt(d), "IQFT")
    gate.matrix.setflags(write=False)
    return gate


# --- eigenstructure ----------------------------------------------------------


def eigenphase(s: float) -> float:
    """theta in [0, 1/2] with sin(pi*theta) = sqrt((1+s)/2), s clamped to [-1, 1]."""
    return math.asin(math.sqrt((1.0 + min(max(s, -1.0), 1.0)) / 2.0)) / math.pi


def eigen_law_error(block: np.ndarray, s: float, branch0: np.ndarray,
                    branch1: np.ndarray) -> float:
    """Worst ||B v - e^{+-2 pi i theta} v|| of a G_j/H_j block B over
    v+- = (psi0 +- i psi1)/sqrt(2), theta = eigenphase(s).

    psi0 = |branch0>|0>_B and psi1 = |branch1>|1>_B, each normalized, with B
    the block's highest qubit. At a degenerate edge one branch vanishes and
    the survivor must be an eigenvector on its own, with e^{2 pi i theta}:
    psi0 with -1 (theta = 1/2) or psi1 with +1 (theta = 0).
    """
    zeros = np.zeros(len(branch0), dtype=complex)
    n0, n1 = np.linalg.norm(branch0), np.linalg.norm(branch1)
    psi0 = np.concatenate([branch0 / n0, zeros]) if n0 > 1e-9 else None
    psi1 = np.concatenate([zeros, branch1 / n1]) if n1 > 1e-9 else None
    if psi0 is None or psi1 is None:  # degenerate edge: one eigenvector survives
        cases = [(psi1 if psi0 is None else psi0, 1)]
    else:
        cases = [((psi0 + sign * 1j * psi1) / math.sqrt(2), sign) for sign in (1, -1)]
    phase = 2j * math.pi * eigenphase(s)
    return max(float(np.linalg.norm(block @ v - np.exp(sign * phase) * v)) for v, sign in cases)


def g_block_matrix(psi: np.ndarray, phi: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Dense G_j = U S_j U^dag Z_B on the (train, test, B) qubits."""
    n = layout.size("train")
    V = make_V(psi, layout, register="test")
    u_mat = circuit_to_matrix(build_U(V, layout), layout.qubits_of(["train", "test", "B"]))
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
