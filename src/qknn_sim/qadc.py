"""Analog-to-digital conversion of similarity values.

The chain has two halves. E^amp loads the train/test interference state so
that the similarity (fidelity or real inner product) sits in the amplitude
of an ancilla; E^dig runs phase estimation on the reflection operator,
converts the estimated phase to the similarity with a reversible arithmetic
permutation, and uncomputes every work register. ``qadc_circuit`` is their
one composition; it maps |j>|0> -> |j>|F_j> (or |j>|X_j> for the
dot-product variant).

Digital encodings, both owned by ``quantize_array``, the one b-bit rounding
rule: it digitizes the similarity table every mode ranks, and it computes
the arithmetic permutation's table.
- fidelity: unsigned fixed point in [0, 1 - 2**-b]; F = 1 saturates to the
  all-ones string (order is preserved, which is all the comparator needs).
- dot product: offset binary round_b((X+1)/2), so one comparator works for
  both paths.
Rounding is to nearest, ties to even. The arithmetic permutation evaluates
on the folded phase representative min(t, 2**b - t), which makes the
theta <-> 1-theta branch invariance exact by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import (Circuit, Gate, RegisterLayout, SimulationError, basis_permutation,
                       require_count, require_fits)
from .subroutines import ReflectionOperator, build_G, qpe_circuit


@dataclass(frozen=True)
class PrecisionConfig:
    """Bit width of the phase and similarity registers."""

    b: int

    def __post_init__(self):
        require_count("precision bits", self.b, low=None)  # the range has its own message
        if not 2 <= self.b <= 30:
            raise SimulationError("precision bits must be in [2, 30]")


def quantize_array(values: np.ndarray, b: int, measure: str = "fidelity") -> np.ndarray:
    """The one b-bit digitizer: fidelity clipped to [0, 1] or dot product as offset
    binary (X+1)/2, rounded to nearest (ties to even), saturated at 2**b - 1.
    A NaN or infinite value is refused."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise SimulationError(f"cannot digitize non-finite {measure} values, "
                              f"got {x[~np.isfinite(x)][0]}")
    if measure == "fidelity":
        x = np.clip(x, 0.0, 1.0)
    elif measure == "dot":
        x = (np.clip(x, -1.0, 1.0) + 1.0) / 2.0
    else:
        raise SimulationError(f"unknown measure {measure!r}")
    return np.clip(np.round(x * 2 ** b), 0, 2 ** b - 1).astype(np.int64)


def arithmetic_table(cfg: PrecisionConfig, measure: str = "fidelity") -> np.ndarray:
    """Digital output g(t) for each b-bit phase value t: 2*sin^2(pi*theta) - 1
    on the folded phase theta = min(t, 2**b - t) / 2**b, digitized."""
    t = np.arange(2 ** cfg.b)
    theta = np.minimum(t, 2 ** cfg.b - t) / 2 ** cfg.b
    return quantize_array(2.0 * np.sin(np.pi * theta) ** 2 - 1.0, cfg.b, measure)


def arithmetic_map(cfg: PrecisionConfig, layout: RegisterLayout,
                   measure: str = "fidelity") -> Gate:
    """Reversible |t>|z> -> |t>|z XOR g(t)> permutation on (phase, fid).

    On a fresh fid register this writes the digitized similarity; the XOR
    completion extends the map to a bijection on every other input.
    """
    b = cfg.b
    if layout.size("phase") != b or layout.size("fid") != b:
        raise SimulationError("phase/fid register width does not match precision")
    size = 2 ** (2 * b)
    require_fits(f"a {2 * b}-qubit arithmetic permutation", size, 8)
    table = arithmetic_table(cfg, measure)
    local = np.arange(size)
    t = local & (2 ** b - 1)
    z = local >> b
    perm = t | ((z ^ table[t]) << b)
    targets = layout.qubits("phase") + layout.qubits("fid")
    return basis_permutation(targets, perm, f"QA[{measure}]")


# --- the QADC composition -----------------------------------------------------


def qadc_circuit(op: ReflectionOperator, layout: RegisterLayout, cfg: PrecisionConfig) -> Circuit:
    """E^dig E^amp as one gate list: amp -> QPE -> arithmetic -> QPE^-1 -> amp^-1.

    ``op`` is the reflection operator (G for fidelity, H for the dot product);
    its ``amp_circuit`` is E^amp, and its ``kind`` picks the arithmetic table.
    """
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
