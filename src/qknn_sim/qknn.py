"""End-to-end classifier: the classical baseline and the quantum search path.

Both paths rank train states by the b-bit quantized fidelity table
|<psi|phi_j>|^2: the classical baseline sorts it; the quantum path runs
k-maxima over the threshold oracle on that table (oracle-abstract) or on the
fully assembled circuit (circuit-exact, tiny instances only). Ties are broken deterministically: by lowest index in
the ranking, and a voting tie goes to the class of the nearest neighbor
among the tied classes.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .datasets import DISCRIMINATION_MAX_FIDELITY
from .kmax import CircuitBackend, KMaxResult, SearchConfig, TableBackend, k_maxima
from .oracle import assemble_O_yA, oracle_layout
from .qadc import PrecisionConfig, quantize_array
from .statevec import SimulationError, require_count, require_unit_states
from .subroutines import make_V, make_W

# Similarity bits for discrimination: the smallest b with (1 - DISCRIMINATION_MAX_FIDELITY)
# * 2**b > 1.5, so a promised fidelity rounds below 2**b - 1, the match's saturated value.
DISCRIMINATION_BITS = next(b for b in range(2, 31)
                           if (1 - DISCRIMINATION_MAX_FIDELITY) * 2 ** b > 1.5)
CIRCUIT_EXACT_RULE = "M in {2, 4, 8}, n <= 2, log2(M) <= b <= 3"


@dataclass(eq=False)
class TrainSet:
    """M >= 1 labeled pure states, each of 2**n amplitudes with n >= 1."""

    states: np.ndarray  # (M, 2**n) complex
    labels: list

    def __post_init__(self):
        try:
            self.states = np.asarray(self.states, dtype=complex)
        except ValueError as exc:
            raise SimulationError(f"train states must be equal-length rows ({exc})") from None
        if self.states.shape[:1] == (0,):  # [] reads as empty too, not as 1-D
            raise SimulationError("empty train set")
        if self.states.ndim != 2 or len(self.labels) != self.states.shape[0]:
            raise SimulationError("states/labels shape mismatch")
        width = self.states.shape[1]
        if width < 2 or width & (width - 1):
            raise SimulationError(f"train states hold {width} amplitudes, not 2**n, n >= 1")
        require_unit_states(self.states, "train states")

    @property
    def M(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1].bit_length() - 1


@dataclass(eq=False)
class FidelityTable:
    """Exact fidelity table plus its b-bit digitization."""

    exact: np.ndarray
    quantized: np.ndarray

    @classmethod
    def from_states(cls, test_state: np.ndarray, train: TrainSet, b: int) -> "FidelityTable":
        PrecisionConfig(b)  # refuses b outside [2, 30], as the quantum path does
        test_state = np.asarray(test_state, dtype=complex)
        if test_state.shape != train.states.shape[1:]:
            raise SimulationError(f"test state shape {test_state.shape} != train state shape")
        require_unit_states(test_state, "test state")
        # conj(<phi_j|psi>) bit for bit: only imaginary signs flip, and |.|**2 ignores them
        exact = np.abs(train.states @ test_state.conj()) ** 2
        return cls(exact, quantize_array(exact, b))


@dataclass(eq=False)
class Classification:
    label: object
    neighbors: tuple       # nearest first
    neighbor_values: tuple
    oracle_queries: int
    data_prep_queries: int


def top_k_indices(values: np.ndarray, k: int) -> list[int]:
    """Top k by value, descending; ties resolved toward the lowest index. One
    O(M) selection finds the k-th largest value; only the entries at or above
    it, its ties included, are sorted, by (-value, index)."""
    idx = (values >= np.partition(values, -k)[-k]).nonzero()[0]
    return idx[np.lexsort((idx, -values[idx]))][:k].tolist()


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


def classical_knn(test_state: np.ndarray, train: TrainSet, k: int, b: int) -> Classification:
    """Top k of the b-bit fidelity table plus deterministic majority vote."""
    require_count("k", k, high=train.M)
    table = FidelityTable.from_states(test_state, train, b)
    neighbors = top_k_indices(table.quantized, k)
    label = majority_vote([train.labels[i] for i in neighbors])
    return Classification(label, tuple(neighbors),
                          tuple(float(table.exact[i]) for i in neighbors), 0, 0)


def qknn_classify(test_state: np.ndarray, train: TrainSet, k: int,
                  cfg: PrecisionConfig, search: SearchConfig = SearchConfig(),
                  mode: str = "oracle-abstract") -> Classification:
    """Quantum-path classification: k-maxima over the b-bit fidelity threshold oracle."""
    table = FidelityTable.from_states(test_state, train, cfg.b)
    if mode == "oracle-abstract":
        backend = TableBackend(table.quantized, b=cfg.b)
    elif mode == "circuit-exact":
        m = train.M.bit_length() - 1
        if not (train.M in {2, 4, 8} and train.n <= 2 and m <= cfg.b <= 3):
            raise SimulationError(f"circuit-exact mode is limited to {CIRCUIT_EXACT_RULE}; "
                                  f"got M = {train.M}, n = {train.n}, b = {cfg.b}")
        layout = oracle_layout(m, train.n, cfg.b)
        V, W = make_V(test_state, layout), make_W(train.states, layout)
        # no oracle is kept: each accepted step swaps min(A) for a strictly larger
        # value, so no (y, A) is asked for twice. Every assembly goes through the
        # plan at its (y, A), which keeps across classifications what a test state
        # and train set do not change, and composes U and search in one place
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
                          result.oracle_queries, result.data_prep_queries)


def discriminate(test_state: np.ndarray, train: TrainSet,
                 search: SearchConfig = SearchConfig()) -> tuple[int, KMaxResult]:
    """Identify which train state the test state is, promised an exact match.

    Fidelity reaches 1 only at the match, so k-maxima with k = 1 finds it on
    the table quantized to DISCRIMINATION_BITS.
    """
    table = FidelityTable.from_states(test_state, train, DISCRIMINATION_BITS)
    backend = TableBackend(table.quantized, b=None)  # prep cost not modeled here
    result = k_maxima(backend, 1, train.M, search)
    (found,) = result.top_k
    if table.exact[found] < DISCRIMINATION_MAX_FIDELITY:
        raise SimulationError("discrimination promise violated: no exact match found")
    return int(found), result
