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

from .statevec import Circuit, Gate, RegisterLayout, SimulationError, basis_permutation
from .subroutines import ReflectionOperator, build_G, qpe_circuit

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
        else:
            raise SimulationError(f"unknown arithmetic mode {mode!r}")
    return out


def arithmetic_map(cfg: PrecisionConfig, layout: RegisterLayout, mode: str = "fidelity") -> Gate:
    """Reversible |t>|z> -> |t>|z XOR g(t)> permutation on (phase, fid).

    On a fresh fid register this writes the digitized similarity; the XOR
    completion extends the map to a bijection on every other input.
    """
    cfg.require_circuit_scale()
    table = arithmetic_table(cfg, mode)
    b = cfg.b
    if layout.size("phase") != b or layout.size("fid") != b:
        raise SimulationError("phase/fid register width does not match precision")
    size = 2 ** (2 * b)
    local = np.arange(size)
    t = local & (2 ** b - 1)
    z = local >> b
    perm = t | ((z ^ table[t]) << b)
    targets = layout.qubits("phase") + layout.qubits("fid")
    return basis_permutation(targets, perm, f"QA[{mode}]")


# --- the QADC composition -----------------------------------------------------


def qadc_circuit(op: ReflectionOperator, layout: RegisterLayout, cfg: PrecisionConfig) -> Circuit:
    """E^dig E^amp as one gate list: amp -> QPE -> arithmetic -> QPE^-1 -> amp^-1.

    ``op`` is the reflection operator (G for fidelity, H for the dot product);
    its ``amp_circuit`` is E^amp, and its ``kind`` picks the arithmetic table.
    """
    cfg.require_circuit_scale()
    qpe = qpe_circuit(op.gate, layout.qubits("phase"))
    return Circuit(op.amp_circuit.gates + qpe.gates
                   + [arithmetic_map(cfg, layout, op.kind)]
                   + qpe.inverse().gates + op.amp_circuit.inverse().gates)


def fidelity_qadc_circuit(V: Gate, W: Gate, layout: RegisterLayout,
                          cfg: PrecisionConfig) -> Circuit:
    """The full F operator |j>|0> -> |j>|F_j> as a gate sequence on the
    index/fid pair; the oracle's second F is this circuit with its qubits
    renamed onto the primed pair (``Circuit.remap``)."""
    return qadc_circuit(build_G(V, W, layout), layout, cfg)
