"""Analog-to-digital conversion of similarity values.

The chain has two halves. E^amp loads the train/test interference state so
that the similarity (fidelity or real inner product) sits in the amplitude
of an ancilla; E^dig runs phase estimation on the reflection operator,
converts the estimated phase to the similarity with a reversible arithmetic
permutation, and uncomputes every work register. ``qadc_circuit`` is their
one composition; it maps |j>|0> -> |j>|F_j> (or |j>|X_j> for the
dot-product variant).

Digital encodings:
- fidelity: unsigned fixed point in [0, 1 - 2**-b]; F = 1 saturates to the
  all-ones string (order is preserved, which is all the comparator needs).
- dot product: offset binary round_b((X+1)/2), so one comparator works for
  both paths.
Rounding is to nearest, ties to even. The arithmetic permutation evaluates
on the folded phase representative min(t, 2**b - t), which makes the
theta <-> 1-theta branch invariance exact by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import (
    MAX_DENSE_QUBITS,
    Circuit,
    Gate,
    RegisterLayout,
    SimulationError,
    StateVector,
    basis_permutation,
    hadamard,
)
from .subroutines import (
    ReflectionOperator,
    StatePrepOracle,
    build_G,
    make_V,
    make_W,
    qpe_circuit,
)

CIRCUIT_MAX_BITS = 8  # phase/fid register width cap at desk scale


@dataclass(frozen=True)
class PrecisionConfig:
    """Bit width of the phase and similarity registers; epsilon = 2**-b."""

    b: int

    def __post_init__(self):
        if not 2 <= self.b <= 30:
            raise SimulationError("precision bits must be in [2, 30]")

    @property
    def epsilon(self) -> float:
        return 2.0 ** (-self.b)

    def require_circuit_scale(self) -> None:
        if self.b > CIRCUIT_MAX_BITS:
            raise SimulationError(
                f"circuit-level registers support b <= {CIRCUIT_MAX_BITS}, got {self.b}")


def round_bits(x: float, b: int) -> int:
    """Nearest b-bit fraction (ties to even), saturating into [0, 2**b - 1]."""
    t = int(np.round(x * 2 ** b))
    return min(max(t, 0), 2 ** b - 1)


def quantize_fidelity(F: float, b: int) -> int:
    return round_bits(min(max(F, 0.0), 1.0), b)


def quantize_dot(X: float, b: int) -> int:
    return round_bits((min(max(X, -1.0), 1.0) + 1.0) / 2.0, b)


def quantize_array(values: np.ndarray, b: int, measure: str = "fidelity") -> np.ndarray:
    """Vectorized digitization of a similarity table."""
    x = np.asarray(values, dtype=float)
    x = np.clip(x, 0.0, 1.0) if measure == "fidelity" else (np.clip(x, -1.0, 1.0) + 1.0) / 2.0
    return np.clip(np.round(x * 2 ** b), 0, 2 ** b - 1).astype(np.int64)


def _phase_to_similarity(t: int, b: int) -> float:
    """2*sin^2(pi*theta) - 1 evaluated on the folded phase representative."""
    folded = min(t, 2 ** b - t) if t else 0
    theta = folded / 2 ** b
    return 2.0 * math.sin(math.pi * theta) ** 2 - 1.0


def arithmetic_table(cfg: PrecisionConfig, mode: str = "fidelity") -> np.ndarray:
    """Digital output g(t) for each b-bit phase value t."""
    out = np.empty(2 ** cfg.b, dtype=np.int64)
    for t in range(2 ** cfg.b):
        v = _phase_to_similarity(t, cfg.b)
        if mode == "fidelity":
            out[t] = quantize_fidelity(v, cfg.b)
        elif mode == "dot":
            out[t] = quantize_dot(v, cfg.b)
        elif mode == "abs":
            out[t] = quantize_fidelity(math.sqrt(max(v, 0.0)), cfg.b)
        else:
            raise SimulationError(f"unknown arithmetic mode {mode!r}")
    return out


def arithmetic_map(cfg: PrecisionConfig, layout: RegisterLayout, mode: str = "fidelity",
                   fid: str = "fid") -> Gate:
    """Reversible |t>|z> -> |t>|z XOR g(t)> permutation on (phase, fid).

    On a fresh fid register this writes the digitized similarity; the XOR
    completion extends the map to a bijection on every other input.
    """
    cfg.require_circuit_scale()
    table = arithmetic_table(cfg, mode)
    b = cfg.b
    if layout.size("phase") != b or layout.size(fid) != b:
        raise SimulationError("phase/fid register width does not match precision")
    size = 2 ** (2 * b)
    local = np.arange(size)
    t = local & (2 ** b - 1)
    z = local >> b
    perm = t | ((z ^ table[t]) << b)
    targets = layout.qubits("phase") + layout.qubits(fid)
    return basis_permutation(targets, perm, f"QA[{mode}]")


# --- the QADC composition -----------------------------------------------------


def qadc_circuit(op: ReflectionOperator, layout: RegisterLayout, cfg: PrecisionConfig,
                 fid: str = "fid", mode: str | None = None) -> Circuit:
    """E^dig E^amp as one gate list: amp -> QPE -> arithmetic -> QPE^-1 -> amp^-1.

    ``op`` is the reflection operator (G for fidelity, H for the dot product);
    its ``amp_circuit`` is E^amp. ``mode`` picks the arithmetic table and
    defaults to the operator's kind.
    """
    cfg.require_circuit_scale()
    qpe = qpe_circuit(op.gate, layout.qubits("phase"))
    circ = Circuit()
    circ.extend(op.amp_circuit)
    circ.extend(qpe)
    circ.append(arithmetic_map(cfg, layout, mode or op.kind, fid))
    circ.extend(qpe.inverse())
    circ.extend(op.amp_circuit.inverse())
    return circ


def apply_qadc(state: StateVector, op: ReflectionOperator, layout: RegisterLayout,
               cfg: PrecisionConfig, mode: str | None = None) -> StateVector:
    """|j>|0> -> |j>|s_j> on a state whose work, phase and fid registers are fresh."""
    for reg in op.work_registers + ("phase", "fid"):
        if not state.register_is_zero(reg):
            raise SimulationError(f"register {reg!r} is not fresh")
    return state.apply_circuit(qadc_circuit(op, layout, cfg, mode=mode))


def fidelity_qadc_circuit(V: StatePrepOracle, W: StatePrepOracle, layout: RegisterLayout,
                          cfg: PrecisionConfig, index: str = "index",
                          fid: str = "fid") -> Circuit:
    """The full F operator |j>|0> -> |j>|F_j> as a gate sequence, on the
    ``index``/``fid`` pair (the oracle's second F uses the primed pair)."""
    G = build_G(V, W, layout, index)
    return qadc_circuit(G, layout, cfg, fid, "fidelity")


# --- standalone abs-QADC ------------------------------------------------------


@dataclass(eq=False)
class QadcResult:
    state: StateVector
    layout: RegisterLayout
    branch_distributions: np.ndarray  # (d, 2**b) conditional fid distributions


def abs_qadc(prep_unitary: np.ndarray, cfg: PrecisionConfig) -> QadcResult:
    """Digitize |c_i| for the state prepared by ``prep_unitary``.

    Output approximates (1/sqrt(d)) sum_i |i>|r_i> with r_i the b-bit
    value nearest |c_i|; exact whenever the induced phases are dyadic.
    The train-register role is played by a basis copy of the index.
    """
    cfg.require_circuit_scale()
    prep_unitary = np.asarray(prep_unitary, dtype=complex)
    d = prep_unitary.shape[0]
    n = d.bit_length() - 1
    if prep_unitary.shape != (d, d) or d < 2 or d != 2 ** n:
        raise SimulationError(f"abs_qadc needs a square d x d preparation with d a power of "
                              f"two >= 2, got shape {prep_unitary.shape}")
    if 3 * n + 1 > MAX_DENSE_QUBITS:
        raise SimulationError(f"abs_qadc at d = {d} needs a {3 * n + 1}-qubit reflection "
                              f"operator; dense operators allow at most {MAX_DENSE_QUBITS} "
                              f"qubits (d <= {2 ** ((MAX_DENSE_QUBITS - 1) // 3)})")
    layout = RegisterLayout.from_sizes([
        ("index", n), ("train", n), ("test", n), ("B", 1),
        ("phase", cfg.b), ("fid", cfg.b),
    ])
    state = StateVector.zero_state(layout)  # size check before W's d**2 x d**2 matrix
    psi = prep_unitary[:, 0]
    V = make_V(psi, layout, register="test")
    copies = np.eye(d, dtype=complex)  # |j>|0> -> |j>|j>
    W = make_W(copies, layout)
    for q in layout.qubits("index"):
        state = state.apply(hadamard(q))
    state = apply_qadc(state, build_G(V, W, layout), layout, cfg, mode="abs")
    branch = np.array([fid_distribution(state, i) for i in range(d)])
    return QadcResult(state, layout, branch)


def fid_distribution(state: StateVector, index_value: int) -> np.ndarray:
    """Conditional distribution over fid outcomes given an index outcome."""
    probs = state.measure_probs(["index", "fid"])
    m = state.layout.size("index")
    arr = probs.reshape(-1, 2 ** m)[:, index_value]
    total = arr.sum()
    if total <= 0:
        raise SimulationError(f"index value {index_value} has zero probability")
    return arr / total
