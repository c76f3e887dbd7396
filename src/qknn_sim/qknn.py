"""End-to-end classifier: the classical baseline and the quantum search path.

Both paths rank train states by a similarity table (fidelity |<psi|phi_j>|^2
or real inner product). The classical baseline sorts the table; the quantum
path runs k-maxima over the threshold oracle on the b-bit quantized table
(oracle-abstract) or on the fully assembled circuit (circuit-exact, tiny
instances only). Ties are broken deterministically: by lowest index in the
ranking, and a voting tie goes to the class of the nearest neighbor among
the tied classes.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .kmax import CircuitBackend, KMaxResult, SearchConfig, TableBackend, k_maxima
from .oracle import assemble_O_yA, oracle_layout
from .qadc import PrecisionConfig, quantize_array
from .statevec import SimulationError, require_unit_states
from .subroutines import make_V, make_W

REAL_ATOL = 1e-12
# Similarity bits for discrimination: high enough that the generator's pairwise
# fidelity gap (1e-6) cannot collide with the saturated maximum after quantization.
DISCRIMINATION_BITS = 20


@dataclass(eq=False)
class TrainSet:
    """M labeled pure states. M must be a power of two only for the circuit
    path (the multiplexed preparation oracle needs a full index register)."""

    states: np.ndarray  # (M, 2**n) complex
    labels: list

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.ndim != 2 or len(self.labels) != self.states.shape[0]:
            raise SimulationError("states/labels shape mismatch")
        require_unit_states(self.states, "train states")

    @property
    def M(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return int(round(math.log2(self.states.shape[1])))

    def require_power_of_two(self) -> int:
        m = int(round(math.log2(self.M)))
        if 2 ** m != self.M:
            raise SimulationError("circuit path requires M = 2**m train states")
        return m

    def require_real(self) -> None:
        if np.abs(self.states.imag).max() > REAL_ATOL:
            raise SimulationError("dot-product path requires real-amplitude states")


@dataclass(eq=False)
class FidelityTable:
    """Exact similarity table plus its b-bit digitization."""

    exact: np.ndarray
    quantized: np.ndarray | None

    @classmethod
    def from_states(cls, test_state: np.ndarray, train: TrainSet,
                    measure: str = "fidelity", b: int | None = None) -> "FidelityTable":
        if b is not None:
            PrecisionConfig(b)  # refuses b outside [2, 30], as the quantum path does
        test_state = np.asarray(test_state, dtype=complex)
        if test_state.shape != train.states.shape[1:]:
            raise SimulationError(f"test state shape {test_state.shape} != train state shape")
        require_unit_states(test_state, "test state")
        overlaps = train.states.conj() @ test_state
        if measure == "fidelity":
            exact = np.abs(overlaps) ** 2
        elif measure == "dot":
            train.require_real()
            if np.abs(test_state.imag).max() > REAL_ATOL:
                raise SimulationError("dot-product path requires a real-amplitude test state")
            exact = overlaps.real.copy()
        else:
            raise SimulationError(f"unknown measure {measure!r}")
        quant = quantize_array(exact, b, measure) if b is not None else None
        return cls(exact, quant)

    def ranking_values(self) -> np.ndarray:
        return self.quantized if self.quantized is not None else self.exact


@dataclass(eq=False)
class Classification:
    label: object
    neighbors: tuple       # nearest first
    neighbor_values: tuple
    oracle_queries: int
    data_prep_queries: int
    mode: str


def top_k_indices(values: np.ndarray, k: int) -> list[int]:
    """Top k by value, descending; ties resolved toward the lowest index."""
    return np.lexsort((np.arange(len(values)), -values))[:k].tolist()


def majority_vote(neighbor_labels: list):
    """Majority label; a tie goes to the nearest neighbor among tied classes."""
    if not neighbor_labels:
        raise SimulationError("cannot vote over an empty neighbor list")
    counts = Counter(neighbor_labels)
    best = max(counts.values())
    tied = {label for label, c in counts.items() if c == best}
    for label in neighbor_labels:  # nearest-first order
        if label in tied:
            return label
    raise AssertionError("unreachable")


def classical_knn(test_state: np.ndarray, train: TrainSet, k: int,
                  measure: str = "fidelity", b: int | None = None) -> Classification:
    """Exact top-k by the chosen similarity plus deterministic majority vote."""
    if train.M == 0:
        raise SimulationError("empty train set")
    if k > train.M:
        raise SimulationError("k cannot exceed the number of train states")
    table = FidelityTable.from_states(test_state, train, measure, b)
    values = table.ranking_values()
    neighbors = top_k_indices(values, k)
    label = majority_vote([train.labels[i] for i in neighbors])
    return Classification(label, tuple(neighbors),
                          tuple(float(table.exact[i]) for i in neighbors),
                          0, 0, "classical")


def qknn_classify(test_state: np.ndarray, train: TrainSet, k: int,
                  cfg: PrecisionConfig, search: SearchConfig = SearchConfig(),
                  mode: str = "oracle-abstract", measure: str = "fidelity") -> Classification:
    """Quantum-path classification: k-maxima search over the threshold oracle."""
    if k > train.M:
        raise SimulationError("k cannot exceed the number of train states")
    table = FidelityTable.from_states(test_state, train, measure, cfg.b)
    if mode == "oracle-abstract":
        backend = TableBackend(table.quantized, b=cfg.b)
    elif mode == "circuit-exact":
        if measure != "fidelity":
            raise SimulationError("circuit-exact path implements the fidelity oracle")
        if not (2 <= train.M <= 8 and train.n <= 2 and math.log2(train.M) <= cfg.b <= 3):
            raise SimulationError("circuit-exact mode is limited to M <= 8, n <= 2, b <= 3, with "
                                  f"2 <= M <= 2**b; got M = {train.M}, n = {train.n}, b = {cfg.b}")
        m = train.require_power_of_two()
        layout = oracle_layout(m, train.n, cfg.b)
        V, W = make_V(test_state, layout), make_W(train.states, layout)
        # uncached: each accepted step swaps min(A) for a strictly larger value,
        # so the sum over A grows and no (y, A) is asked for twice
        backend = CircuitBackend(lambda y, A: assemble_O_yA(V, W, layout, cfg, y, A),
                                 table.quantized, cfg.b)
    else:
        raise SimulationError(f"unknown mode {mode!r}")
    result = k_maxima(backend, k, train.M, search)
    found = np.sort(np.fromiter(result.top_k, dtype=int))
    ranked = found[top_k_indices(table.quantized[found], len(found))].tolist()
    label = majority_vote([train.labels[i] for i in ranked])
    return Classification(label, tuple(ranked),
                          tuple(float(table.exact[i]) for i in ranked),
                          result.oracle_queries, result.data_prep_queries, mode)


def discriminate(test_state: np.ndarray, train: TrainSet,
                 search: SearchConfig = SearchConfig()) -> tuple[int, KMaxResult]:
    """Identify which train state the test state is, promised an exact match.

    Fidelity reaches 1 only at the match, so k-maxima with k = 1 finds it on
    the table quantized to DISCRIMINATION_BITS.
    """
    table = FidelityTable.from_states(test_state, train, "fidelity", DISCRIMINATION_BITS)
    backend = TableBackend(table.quantized, b=None)  # prep cost not modeled here
    result = k_maxima(backend, 1, train.M, search)
    (found,) = result.top_k
    if table.exact[found] < 1.0 - 1e-6:
        raise SimulationError("discrimination promise violated: no exact match found")
    return int(found), result
