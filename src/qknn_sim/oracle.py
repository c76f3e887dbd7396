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
from dataclasses import dataclass
from functools import cached_property

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
    toffoli,
)
from .subroutines import zero_reflection


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

    ``circuit`` is the model: U^dag . T . U, where T = X_Q2 . Toffoli(Q1,
    Q2, Q3) . X_Q2 flips the kickback qubit Q3, the layout's highest qubit.
    The simulator runs two circuits derived from it on ``search_layout``,
    the layout without Q3 and without the primed index register: ``U``
    itself, and the search oracle ``search`` = U^dag . S . U with S = X_Q2 .
    CZ(Q1, Q2) . X_Q2, the sign (-1)^(Q1 and not Q2) that T gives with Q3
    held in |->. ``index_p`` only ever holds basis values (it starts at 0,
    X gates load y and the D patterns into it, and every other gate reads
    it as a control or is block-diagonal in it), so U is derived from the
    model's U by ``Circuit.fix_classical``, which follows index_p as
    classical bits and cuts it out, and then by ``Circuit.fuse``, which
    merges each run of gates on at most ``FUSE_QUBITS`` qubits into one
    dense gate; ``search`` is built from that U. The gates the simulator
    runs therefore differ from the model's, gate for gate, and agree with
    it as unitaries to rounding. ``start()`` and ``diffusion`` complete the
    register machine: the verdict run and every Grover round begin from the
    one, and the circuit handle and the kickback law iterate the other.
    """

    circuit: Circuit
    layout: RegisterLayout
    y: int
    A: frozenset[int]
    U: Circuit
    search: Circuit

    @property
    def M(self) -> int:
        return 2 ** self.layout.size("index")

    @property
    def search_layout(self) -> RegisterLayout:
        return search_layout(self.layout)

    def start(self) -> StateVector:
        """A fresh uniform index state on ``search_layout`` (none is kept alive)."""
        layout = self.search_layout
        return StateVector.zero_state(layout).apply_circuit(
            Circuit([hadamard(q) for q in layout.qubits("index")]))

    @cached_property
    def diffusion(self) -> Circuit:
        """H^m . (reflection about |0...0>) . H^m on the index register, whose
        qubits are the same in ``layout`` and ``search_layout``."""
        index = self.layout.qubits("index")
        h_index = [hadamard(q) for q in index]
        return Circuit(h_index + zero_reflection(index).gates + h_index)

    def apply(self, state: StateVector) -> StateVector:
        """One query of the search oracle."""
        return state.apply_circuit(self.search)

    def q3_distribution(self, j: int) -> np.ndarray:
        """Q3's distribution after the model circuit on basis input |j>|0...0>."""
        state = StateVector.zero_state(self.layout)
        for l, q in enumerate(self.layout.qubits("index")):
            if (j >> l) & 1:
                state = state.apply(pauli_x(q))
        return state.apply_circuit(self.circuit).measure_probs("Q3")

    @cached_property
    def marked_probs(self) -> np.ndarray:
        """P(Q1 = 1, Q2 = 0 | j) after U for every j, which is the model's
        P(Q3 = 1 | j). U never changes the index register, so one run of U on
        the uniform index state gives all of them."""
        joint = self.start().apply_circuit(self.U).measure_probs(["index", "Q1", "Q2"])
        return self.M * joint[self.M: 2 * self.M]

    def evaluate(self, j: int) -> int:
        """Most probable Q3 outcome on basis input |j>|0...0>, read from
        ``marked_probs`` (0 on a tie, as argmax of ``q3_distribution``)."""
        return int(self.marked_probs[j] > 0.5)


def search_layout(layout: RegisterLayout) -> RegisterLayout:
    """The registers the simulator runs: all but index_p and Q3."""
    return RegisterLayout.from_sizes([(name, size) for name, _, size in layout.registers
                                      if name not in ("index_p", "Q3")])


def assemble_O_yA(V: Gate, W: Gate, layout: RegisterLayout,
                  cfg: PrecisionConfig, y: int, A) -> OracleCircuit:
    """Steps: F on (index,fid); F renamed onto (index',fid') loaded with y; J;
    mid-circuit uncompute of the primed registers; D cascade; X+Toffoli;
    mirror uncompute."""
    cfg.require_circuit_scale()
    A = frozenset(A)
    m, b = layout.size("index"), cfg.b
    if y not in A or any(not 0 <= i < 2 ** m for i in A):  # also refuses an empty A
        raise SimulationError(f"argmin variant needs y in A and A within [0, {2 ** m}), "
                              f"got y = {y}, A = {sorted(A)}")
    if m > b:
        raise SimulationError("circuit-exact oracle hosts comparator chains in the "
                              "phase register and needs log2(M) <= b")
    index, index_p = layout.qubits("index"), layout.qubits("index_p")
    fid, fid_p = layout.qubits("fid"), layout.qubits("fid_p")
    f_main = fidelity_qadc_circuit(V, W, layout, cfg)
    f_inv = f_main.inverse()
    # F' is F with the primed pair standing in for (index, fid)
    primed = dict(zip(index + fid, index_p + fid_p))
    phase = layout.qubits("phase")
    (q1,), (q2,), (q3,) = layout.qubits("Q1"), layout.qubits("Q2"), layout.qubits("Q3")
    load_y = [pauli_x(index_p[l]) for l in range(m) if (y >> l) & 1]
    compare = (load_y + f_main.remap(primed).gates + build_J(fid, fid_p, q1, phase[: b - 1]).gates
               + f_inv.remap(primed).gates + load_y)
    d_gates = [g for i in sorted(A) for g in build_D(i, index, index_p, phase[:m], q2)]

    U = Circuit(f_main.gates + compare + d_gates)
    U_dag = d_gates + compare + f_inv.gates
    circ = Circuit(U.gates + [pauli_x(q2), toffoli(q1, q2, q3), pauli_x(q2)] + U_dag)

    # the simulator's circuits, on the layout without index_p and Q3
    reduced = search_layout(layout)
    keep = layout.qubits_of(reduced.names)
    U_r = U.fix_classical(dict.fromkeys(index_p, 0), keep).fuse()
    (s1,), (s2,) = reduced.qubits("Q1"), reduced.qubits("Q2")
    search = Circuit(U_r.gates + [pauli_x(s2), mcz((s1,), s2), pauli_x(s2)]
                     + U_r.inverse().gates)
    return OracleCircuit(circ, layout, y, A, U_r, search)


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


# --- search handles, one per backend ------------------------------------------


class TableOracleHandle:
    """Oracle-abstract backend: f evaluated on a quantized similarity table,
    Grover dynamics simulated exactly from the amplitude formulas."""

    def __init__(self, values: np.ndarray, y: int, A: frozenset[int]):
        self.M = len(values)
        self._marked = values > values[y]
        self._marked[list(A)] = False
        self._marked_idx = np.flatnonzero(self._marked)
        self._unmarked_idx = np.flatnonzero(~self._marked)
        self._theta = math.asin(math.sqrt(len(self._marked_idx) / self.M))

    def run_round(self, r: int, rng: np.random.Generator) -> int:
        """Success probability after r Grover iterations is sin^2((2r+1)theta)
        with sin^2(theta) = t/M; measurement is uniform within each class.
        The uniform draw is an ``integers`` index into the class, the same
        value and stream position as ``rng.choice`` on it."""
        hit = rng.random() < math.sin((2 * r + 1) * self._theta) ** 2
        pool = self._marked_idx if hit else self._unmarked_idx
        return int(pool[rng.integers(0, len(pool))])

    def evaluate(self, j: int) -> bool:
        """f_{y,A}(j): the value of j beats the threshold's and j is not in A."""
        return bool(self._marked[j])


class CircuitOracleHandle:
    """Circuit-exact backend: Grover iterations of the search oracle, the
    model's phase oracle without its Q3 kickback qubit, applied to the
    simulated register machine on the Q3-free layout.

    The state after r iterations depends only on (y, A, r), so the handle
    keeps the index marginal of every depth simulated so far and the deepest
    state; a deeper round extends that state by the missing iterations. The
    oracle supplies the start state (``start()``) and the diffusion that
    follows each ``search``. Queries are charged by ``k_maxima``, r per
    round plus one per verification, whatever this handle reuses.
    """

    def __init__(self, oracle: OracleCircuit):
        self.oracle = oracle
        self.M = oracle.M
        # the deepest state simulated, and the index marginal after r iterations
        self._state = oracle.start()
        self._marginals = [self._state.measure_probs("index")]

    def marginal(self, r: int) -> np.ndarray:
        """Index marginal after r Grover iterations of the search oracle."""
        while len(self._marginals) <= r:
            self._state = self.oracle.apply(self._state).apply_circuit(self.oracle.diffusion)
            self._marginals.append(self._state.measure_probs("index"))
        return self._marginals[r]

    def run_round(self, r: int, rng: np.random.Generator) -> int:
        probs = self.marginal(r)
        # the same draw as StateVector.sample_measurement
        return int(rng.choice(len(probs), p=probs / probs.sum()))

    def evaluate(self, j: int) -> bool:
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
    peak = len(oracle.circuit.qubits())
    regs = {name: layout.size(name) for name in layout.names}
    expl = ("Q1, Q2 and Q3 are dedicated qubits in the fixed register machine; "
            "the closed-form count packs the two comparison flags into work "
            "space freed by the mid-circuit uncompute, so the fixed layout "
            "carries a constant overhead of +%d." % (total - formula))
    return QubitReport(regs, peak, total, formula, total - formula, expl)
