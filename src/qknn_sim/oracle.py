"""The Grover oracle for threshold search: reversible comparators and the
full circuit assembly, plus a fast table-backed equivalent.

f_{y,A}(j) = 1 iff the similarity of train state j beats the threshold
index y and j is not already in the kept set A. The circuit path digitizes
both similarities with the QADC operator, compares them bit-serially from
the most significant bit (J gate), marks members of A (D gates), and
combines the two flags with an X plus a Toffoli. Every work register is
uncomputed by mirror circuits; the mid-circuit uncompute of the primed
index/fid registers after the comparison is kept, which is what lets the
primed index register be recycled as the D-gate pattern register.

Comparator stages operate on (a_bit, b_bit, carry, flag) where carry=1
means "all higher bits equal so far" (no earlier decision):

    U_>  : flag ^= carry & a & ~b
    U_!= : flag ^= carry & (a XOR b)

and the carry chain itself advances with one CNOT plus a U_!= per stage.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .qadc import PrecisionConfig, fidelity_qadc_circuit
from .statevec import (
    Circuit,
    Gate,
    RegisterLayout,
    SimulationError,
    StateVector,
    check_state_size,
    cnot,
    hadamard,
    mcx,
    mcz,
    pauli_x,
    pauli_z,
    toffoli,
)
from .subroutines import StatePrepOracle, make_W


@dataclass(frozen=True)
class ThresholdState:
    """Threshold index y plus the k currently-kept indices A."""

    y: int
    A: frozenset[int]
    M: int

    def __post_init__(self):
        if not self.A or any(not 0 <= i < self.M for i in self.A):
            raise SimulationError("A members must be distinct indices in [0, M)")
        if not 0 <= self.y < self.M:
            raise SimulationError("threshold index out of range")
        if self.y not in self.A:
            raise SimulationError("argmin variant requires y in A")


# --- comparator primitives ---------------------------------------------------


def u_gt_gates(a: int, b: int, carry: int | None, flag: int) -> list[Gate]:
    """flag ^= [a > b] gated on carry (no earlier decision)."""
    controls = (a, b) if carry is None else (carry, a, b)
    return [pauli_x(b), mcx(controls, flag), pauli_x(b)]


def u_neq_gates(a: int, b: int, carry: int | None, flag: int) -> list[Gate]:
    """flag ^= [a != b] gated on carry."""
    if carry is None:
        return [cnot(a, flag), cnot(b, flag)]
    return [pauli_x(b), mcx((carry, a, b), flag), pauli_x(b),
            pauli_x(a), mcx((carry, a, b), flag), pauli_x(a)]


def _eq_chain_stage(a: int, b: int, prev: int | None, cur: int) -> list[Gate]:
    """cur ^= [prefix equal through this bit]; prev=None means first stage."""
    if prev is None:
        return [pauli_x(cur), cnot(a, cur), cnot(b, cur)]
    return [cnot(prev, cur)] + u_neq_gates(a, b, prev, cur)


def build_J(a_qubits: tuple[int, ...], b_qubits: tuple[int, ...], out: int,
            chain: tuple[int, ...]) -> Circuit:
    """out ^= [a > b] for b-bit registers, big-endian bit-serial.

    ``chain`` supplies len(a)-1 clean ancillas for the prefix-equality
    carries; they are returned clean by the mirrored second half.
    """
    width = len(a_qubits)
    if len(b_qubits) != width:
        raise SimulationError("J operands must have equal width")
    if len(chain) < width - 1:
        raise SimulationError("J needs width-1 chain ancillas")
    forward: list[Gate] = []
    chain_gates: list[Gate] = []
    prev: int | None = None
    for i in range(width):
        a, b = a_qubits[width - 1 - i], b_qubits[width - 1 - i]
        forward += u_gt_gates(a, b, prev, out)
        if i < width - 1:
            stage = _eq_chain_stage(a, b, prev, chain[i])
            forward += stage
            chain_gates += stage
            prev = chain[i]
    return Circuit(forward + [g for g in reversed(chain_gates)])


def build_D(i: int, index_qubits: tuple[int, ...], pattern_qubits: tuple[int, ...],
            chain: tuple[int, ...], target: int) -> Circuit:
    """target ^= [index == i], via a pattern register and an equality chain."""
    m = len(index_qubits)
    if len(pattern_qubits) != m or len(chain) < m:
        raise SimulationError("D needs an m-qubit pattern register and m chain ancillas")
    if not 0 <= i < 2 ** m:
        raise SimulationError("D pattern out of range")
    prep = [pauli_x(pattern_qubits[l]) for l in range(m) if (i >> l) & 1]
    chain_gates: list[Gate] = []
    prev: int | None = None
    for pos in range(m):
        a, b = index_qubits[m - 1 - pos], pattern_qubits[m - 1 - pos]
        chain_gates += _eq_chain_stage(a, b, prev, chain[pos])
        prev = chain[pos]
    body = chain_gates + [cnot(prev, target)] + [g for g in reversed(chain_gates)]
    return Circuit(prep + body + prep)


# --- full oracle assembly ----------------------------------------------------


def oracle_layout(m: int, n: int, b: int) -> RegisterLayout:
    """Register map for the circuit-exact fidelity oracle."""
    return RegisterLayout.from_sizes([
        ("index", m), ("train", n), ("test", n), ("B", 1),
        ("phase", b), ("fid", b), ("index_p", m), ("fid_p", b),
        ("Q1", 1), ("Q2", 1), ("Q3", 1),
    ])


@dataclass(eq=False)
class OracleCircuit:
    """Circuit-exact O_{y,A} plus bookkeeping for query/qubit accounting.

    The circuit is deterministic, so each candidate's verdict is simulated
    once and remembered for the life of this instance.
    """

    circuit: Circuit
    layout: RegisterLayout
    y: int
    A: frozenset[int]
    M: int
    prep_counts: Counter
    _verdicts: dict = field(default_factory=dict, init=False, repr=False)

    def netlist(self) -> str:
        return self.circuit.netlist()

    def peak_qubits(self) -> int:
        return len(self.circuit.qubits())

    def apply(self, state: StateVector) -> StateVector:
        return state.apply_circuit(self.circuit)

    def q3_distribution(self, j: int) -> np.ndarray:
        state = StateVector.zero_state(self.layout)
        for l, q in enumerate(self.layout.qubits("index")):
            if (j >> l) & 1:
                state = state.apply(pauli_x(q))
        return self.apply(state).measure_probs("Q3")

    def evaluate(self, j: int) -> int:
        """Most probable Q3 outcome on basis input |j>|0...0>."""
        if j not in self._verdicts:
            self._verdicts[j] = int(np.argmax(self.q3_distribution(j)))
        return self._verdicts[j]


def assemble_O_yA(V: StatePrepOracle, W: StatePrepOracle, layout: RegisterLayout,
                  cfg: PrecisionConfig, y: int, A) -> OracleCircuit:
    """Steps: F on (index,fid); F on (index',fid') loaded with y; J; mid-circuit
    uncompute of the primed registers; D cascade; X+Toffoli; mirror uncompute."""
    cfg.require_circuit_scale()
    A = frozenset(A)
    m, b = layout.size("index"), cfg.b
    M = 2 ** m
    ThresholdState(y, A, M)
    if m > b:
        raise SimulationError("circuit-exact oracle hosts comparator chains in the "
                              "phase register and needs log2(M) <= b")
    W_p = make_W(W.states, layout, index="index_p", train="train")
    f_main = fidelity_qadc_circuit(V, W, layout, cfg)
    f_prime = fidelity_qadc_circuit(V, W_p, layout, cfg, index="index_p", fid="fid_p")
    phase = layout.qubits("phase")
    (q1,), (q2,), (q3,) = layout.qubits("Q1"), layout.qubits("Q2"), layout.qubits("Q3")
    load_y = Circuit([pauli_x(layout.qubits("index_p")[l]) for l in range(m) if (y >> l) & 1])
    j_gate = build_J(layout.qubits("fid"), layout.qubits("fid_p"), q1, phase[: b - 1])
    d_gates = Circuit()
    for i in sorted(A):
        d_gates.extend(build_D(i, layout.qubits("index"), layout.qubits("index_p"),
                               phase[:m], q2))

    compare = Circuit()
    compare.extend(load_y)
    compare.extend(f_prime)
    compare.extend(j_gate)
    compare.extend(f_prime.inverse())
    compare.extend(load_y)

    circ = Circuit()
    circ.extend(f_main)
    circ.extend(compare)
    circ.extend(d_gates)
    circ.append(pauli_x(q2))
    circ.append(toffoli(q1, q2, q3))
    circ.append(pauli_x(q2))
    circ.extend(d_gates)
    circ.extend(compare)
    circ.extend(f_main.inverse())
    return OracleCircuit(circ, layout, y, A, M, circ.prep_counts())


def classical_action(circuit: Circuit, num_qubits: int, x: int) -> int:
    """Output basis state of a reversible (classical) circuit on basis input x."""
    check_state_size(num_qubits)
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[x] = 1.0
    out = StateVector(num_qubits, amps).apply_circuit(circuit)
    y = int(np.argmax(np.abs(out.amplitudes)))
    if abs(abs(out.amplitudes[y]) - 1.0) > 1e-9:
        raise SimulationError("circuit is not classical on this input")
    return y


def prep_calls_per_oracle(b: int) -> Counter:
    """Analytic V/W call count of one circuit-exact oracle application.

    Six F applications (forward, primed, primed mirror, and their inverses),
    each containing one E^amp pair plus 2*(2**b - 1) reflection-operator
    applications at two calls of each oracle per reflection.
    """
    per_f = 2 + 4 * (2 ** b - 1)
    return Counter({"V": 6 * per_f, "W": 6 * per_f})


# --- grover machinery shared by both backends ---------------------------------


class OracleHandle:
    """A (y, A) oracle with a query counter; queries only ever increase.

    Subclasses implement ``run_round(r, rng)``, one search round (r Grover
    iterations plus a measurement), and ``evaluate(j)``, the classical
    verification of a measured candidate.
    """

    def __init__(self, y: int, A: frozenset[int], M: int):
        self.y = y
        self.A = frozenset(A)
        self.M = M
        self.query_count = 0


class TableOracleHandle(OracleHandle):
    """Oracle-abstract backend: f evaluated on a quantized similarity table,
    Grover dynamics simulated exactly from the amplitude formulas."""

    def __init__(self, values: np.ndarray, y: int, A: frozenset[int]):
        super().__init__(y, A, len(values))
        self.values = values
        marked = values > values[y]
        marked[list(A)] = False
        self._marked_idx = np.flatnonzero(marked)
        self._unmarked_idx = np.flatnonzero(~marked)

    def f(self, j: int) -> bool:
        return bool(self.values[j] > self.values[self.y] and j not in self.A)

    @property
    def solution_count(self) -> int:
        return len(self._marked_idx)

    def run_round(self, r: int, rng: np.random.Generator) -> int:
        """Success probability after r Grover iterations is sin^2((2r+1)theta)
        with sin^2(theta) = t/M; measurement is uniform within each class."""
        self.query_count += r
        t = self.solution_count
        theta = math.asin(math.sqrt(t / self.M))
        if rng.random() < math.sin((2 * r + 1) * theta) ** 2:
            return int(rng.choice(self._marked_idx))
        return int(rng.choice(self._unmarked_idx))

    def evaluate(self, j: int) -> bool:
        self.query_count += 1
        return self.f(j)


class CircuitOracleHandle(OracleHandle):
    """Circuit-exact backend: Grover iterations applied to the simulated
    register machine with Q3 phase kickback.

    The state after r iterations depends only on (y, A, r), so the handle
    keeps the index marginal of every depth simulated so far and the deepest
    state; a deeper round extends that state by the missing iterations. The
    model's query count is charged in full for every round regardless.
    """

    def __init__(self, oracle: OracleCircuit):
        super().__init__(oracle.y, oracle.A, oracle.M)
        self.oracle = oracle
        layout = oracle.layout
        (q3,) = layout.qubits("Q3")
        index = layout.qubits("index")
        self._init = Circuit([pauli_x(q3), hadamard(q3)] + [hadamard(q) for q in index])
        diffusion = [hadamard(q) for q in index] + [pauli_x(q) for q in index]
        diffusion.append(mcz(index[:-1], index[-1]) if len(index) > 1
                         else pauli_z(index[0]))
        diffusion += [pauli_x(q) for q in index] + [hadamard(q) for q in index]
        self._diffusion = Circuit(diffusion)
        # the deepest state simulated, and the index marginal after r iterations
        self._state = StateVector.zero_state(layout).apply_circuit(self._init)
        self._marginals = [self._state.measure_probs("index")]

    def run_round(self, r: int, rng: np.random.Generator) -> int:
        self.query_count += r
        while len(self._marginals) <= r:
            self._state = self.oracle.apply(self._state).apply_circuit(self._diffusion)
            self._marginals.append(self._state.measure_probs("index"))
        probs = self._marginals[r]
        # the same draw as StateVector.sample_measurement
        return int(rng.choice(len(probs), p=probs / probs.sum()))

    def evaluate(self, j: int) -> bool:
        self.query_count += 1
        return bool(self.oracle.evaluate(j))


# --- qubit accounting ---------------------------------------------------------


@dataclass(eq=False)
class QubitReport:
    registers: dict
    builder_peak: int
    layout_total: int
    closed_form: int
    delta: int
    explanation: str


def qubit_accounting(oracle: OracleCircuit, n: int) -> QubitReport:
    """Peak qubit use of the assembled oracle against the closed-form count.

    The closed-form count here is 2m + 2b + k_J + 1 + max(k_D + 2 - m - b,
    2n + b - k_J) with k_J = k_D = 0 extra ancillas, since both comparator
    chains live in the recycled phase register and the D pattern register is
    the recycled primed index register.
    """
    layout = oracle.layout
    m, b = layout.size("index"), layout.size("phase")
    k_j = k_d = 0
    formula = 2 * m + 2 * b + k_j + 1 + max(k_d + 2 - m - b, 2 * n + b - k_j)
    total = layout.num_qubits
    peak = oracle.peak_qubits()
    regs = {name: layout.size(name) for name in layout.names}
    expl = ("Q1, Q2 and Q3 are dedicated qubits in the fixed register machine; "
            "the closed-form count packs the two comparison flags into work "
            "space freed by the mid-circuit uncompute, so the fixed layout "
            "carries a constant overhead of +%d." % (total - formula))
    return QubitReport(regs, peak, total, formula, total - formula, expl)
