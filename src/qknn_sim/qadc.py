"""Analog-to-digital conversion of the fidelity.

The chain has two halves. E^amp loads the train/test swap-test state so
that the fidelity F_j sits in the amplitude of an ancilla; E^dig runs phase
estimation on the reflection operator G, converts the estimated phase to
the fidelity with a reversible arithmetic permutation, and uncomputes every
work register. ``fidelity_qadc_circuit`` is their one composition; it maps
|j>|0> -> |j>|F_j>, and every circuit-exact oracle assembly calls it. Its
two gates that depend on neither V nor W are built once and shared: the
inverse QFT per phase register, the arithmetic permutation per precision
and layout.

``quantize_array`` is the one b-bit rounding rule: it digitizes the
similarity table every mode ranks, and it computes the arithmetic
permutation's table. The encoding is unsigned fixed point in
[0, 1 - 2**-b]; F = 1 saturates to the all-ones string (order is preserved,
which is all the comparator needs). Rounding is to nearest, ties to even.
The arithmetic permutation evaluates on the folded phase representative
min(t, 2**b - t), which makes the theta <-> 1-theta branch invariance exact
by construction.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .statevec import (Circuit, Gate, RegisterLayout, SimulationError, basis_permutation,
                       require_count, require_fits)
from .subroutines import build_G, qpe_circuit


@dataclass(frozen=True)
class PrecisionConfig:
    """Bit width of the phase and similarity registers."""

    b: int

    def __post_init__(self):
        require_count("precision bits", self.b, low=None)  # the range has its own message
        if not 2 <= self.b <= 30:
            raise SimulationError(f"precision bits must be in [2, 30], got {self.b}")


def quantize_array(values: np.ndarray, b: int) -> np.ndarray:
    """The one b-bit digitizer: fidelity clipped to [0, 1], rounded to nearest
    (ties to even), saturated at 2**b - 1. A NaN or infinite value is refused."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise SimulationError("cannot digitize non-finite fidelity values, "
                              f"got {x[~np.isfinite(x)][0]}")
    x = np.clip(x, 0.0, 1.0)
    return np.clip(np.round(x * 2 ** b), 0, 2 ** b - 1).astype(np.int64)


def arithmetic_table(cfg: PrecisionConfig) -> np.ndarray:
    """Digital output g(t) for each b-bit phase value t: 2*sin^2(pi*theta) - 1
    on the folded phase theta = min(t, 2**b - t) / 2**b, digitized."""
    t = np.arange(2 ** cfg.b)
    theta = np.minimum(t, 2 ** cfg.b - t) / 2 ** cfg.b
    return quantize_array(2.0 * np.sin(np.pi * theta) ** 2 - 1.0, cfg.b)


@functools.cache
def arithmetic_map(cfg: PrecisionConfig, layout: RegisterLayout) -> Gate:
    """Reversible |t>|z> -> |t>|z XOR g(t)> permutation on (phase, fid).

    On a fresh fid register this writes the digitized fidelity; the XOR
    completion extends the map to a bijection on every other input. Built
    once per (cfg, layout) and shared by every F there: its permutation is
    read-only.
    """
    b = cfg.b
    if layout.size("phase") != b or layout.size("fid") != b:
        raise SimulationError("phase/fid register width does not match precision")
    size = 2 ** (2 * b)
    require_fits(f"a {2 * b}-qubit arithmetic permutation", size, 8)
    table = arithmetic_table(cfg)
    local = np.arange(size)
    t = local & (2 ** b - 1)
    z = local >> b
    perm = t | ((z ^ table[t]) << b)
    gate = basis_permutation(layout.qubits("phase") + layout.qubits("fid"), perm, "QA[fidelity]")
    gate.perm.setflags(write=False)
    return gate


def fidelity_qadc_circuit(V: Gate, W: Gate, layout: RegisterLayout,
                          cfg: PrecisionConfig) -> Circuit:
    """The full F operator |j>|0> -> |j>|F_j> as one gate list on the
    index/fid pair: E^amp -> QPE(G) -> QA -> QPE^-1 -> E^amp^-1. The
    oracle's second F is this circuit with its qubits renamed onto the
    primed pair (``Circuit.remap``)."""
    G = build_G(V, W, layout)
    qpe = qpe_circuit(G.gate, layout.qubits("phase"))
    return Circuit(G.amp_circuit.gates + qpe.gates + [arithmetic_map(cfg, layout)]
                   + qpe.inverse().gates + G.amp_circuit.inverse().gates)

