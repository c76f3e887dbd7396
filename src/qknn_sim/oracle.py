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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qadc import PrecisionConfig, fidelity_qadc_circuit, prep_positions, refill_qadc_circuit
from .statevec import (
    FUSE_QUBITS,
    Circuit,
    Gate,
    RegisterLayout,
    SimulationError,
    StateVector,
    cnot,
    fuse_run,
    hadamard,
    mcx,
    mcz,
    pauli_x,
    permutation_run,
    restrict,
    toffoli,
)
from .subroutines import zero_reflection


# --- comparator primitives ---------------------------------------------------


def u_gt_gates(a: int, b: int, carry: int | None, flag: int) -> list[Gate]:
    """flag ^= [a > b] gated on carry (no earlier decision)."""
    controls = (a, b) if carry is None else (carry, a, b)
    return [pauli_x(b), mcx(controls, flag), pauli_x(b)]


def u_neq_gates(a: int, b: int, carry: int, flag: int) -> list[Gate]:
    """flag ^= [a != b] gated on carry."""
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
    """Circuit-exact O_{y,A}, its Grover rounds, and query/qubit bookkeeping.

    ``circuit`` is the model: U^dag . T . U, where T = X_Q2 . Toffoli(Q1,
    Q2, Q3) . X_Q2 flips the kickback qubit Q3, the layout's highest qubit.
    It is built from the unfused QADC operator ``F`` on first read; a
    classification never reads it. The simulator runs two circuits on
    ``search_layout``, the layout without Q3 and without the primed index
    register: ``U`` and the search oracle ``search`` = U^dag . S . U, with
    S = X_Q2 . CZ(Q1, Q2) . X_Q2, the sign (-1)^(Q1 and not Q2) that T gives
    with Q3 held in |->. ``index_p`` only ever holds basis values (it starts
    at 0, X gates load y and the D patterns into it, and every other gate
    reads it as a control or is block-diagonal in it). So the simulator's U
    is F fused (``fuse_run``), then the rest of the model's U built on
    that, each fused gate with index_p restricted to the basis value it
    holds there (``statevec.restrict``): the same unitary to rounding, as
    F's mirror half and each mirrored copy are the exact adjoints of their
    first halves. Every assembly composes U and search in one place,
    ``_Plan.assemble``; the plan at a (layout, b, y, A) keeps the gates V
    and W do not reach.

    The oracle runs its own Grover rounds (``run_round``: from ``start()``,
    each iteration ``search`` then ``diffusion``) and verdicts
    (``evaluate``). The state after r iterations depends only on (y, A, r),
    so the oracle keeps each simulated depth's index marginal and the
    deepest state, which a deeper round extends. U runs once on ``start()``:
    the verdicts read that run, and the first query from ``start()``
    (``apply()``) continues from it with S . U^dag. Constructing an oracle
    simulates nothing.
    """

    layout: RegisterLayout
    y: int
    A: frozenset[int]
    F: Circuit
    U: Circuit
    search: Circuit
    # deepest Grover state (None: the unkept start), index marginals and CDFs by r
    _state: StateVector | None = field(default=None, init=False, repr=False)
    _marginals: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _cdfs: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def circuit(self) -> Circuit:
        """The model U^dag . T . U on ``layout``, built from the unfused F.
        The mirror half U^dag reuses U's three parts in reverse order, as each
        is its own inverse gate for gate: the D cascade, the comparison, and
        F, which mirrors E^amp and QPE around an XOR arithmetic step."""
        y_bits, to_primed, J, D = _threshold_parts(self.layout, self.y, self.A)
        primed = self.F.remap(to_primed)
        load_y = [pauli_x(q) for q, bit in y_bits.items() if bit]
        compare = load_y + primed.gates + J + primed.inverse().gates + load_y
        (q1,), (q2,), (q3,) = (self.layout.qubits(name) for name in ("Q1", "Q2", "Q3"))
        return Circuit(self.F.gates + compare + D
                       + [pauli_x(q2), toffoli(q1, q2, q3), pauli_x(q2)]
                       + D + compare + self.F.gates)

    @property
    def M(self) -> int:
        return 2 ** self.layout.size("index")

    def start(self) -> StateVector:
        """A fresh uniform index state on ``search_layout(layout)``, not kept:
        the oracle keeps only its run of U (``_u_run``) and deepest round."""
        layout = search_layout(self.layout)
        return StateVector.zero_state(layout).apply_circuit(
            Circuit([hadamard(q) for q in layout.qubits("index")]))

    @cached_property
    def diffusion(self) -> Circuit:
        """H^m . (reflection about |0...0>) . H^m on the index register, whose
        qubits are the same in ``layout`` and ``search_layout(layout)``."""
        index = self.layout.qubits("index")
        h_index = [hadamard(q) for q in index]
        return Circuit(h_index + [fuse_run(zero_reflection(index).gates)] + h_index)

    @cached_property
    def _u_run(self) -> StateVector:
        """U on ``start()``: the state the verdicts read and the first query
        continues from."""
        return self.start().apply_circuit(self.U)

    def apply(self, state: StateVector | None = None) -> StateVector:
        """One query of the search oracle on ``state``, or on ``start()`` when
        none is given. From ``start()`` the query continues from ``_u_run``
        with the rest of ``search``, S . U^dag: the same arithmetic."""
        if state is None:
            return self._u_run.apply_circuit(Circuit(self.search.gates[len(self.U):]))
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
        joint = self._u_run.measure_probs(["index", "Q1", "Q2"])
        return self.M * joint[self.M: 2 * self.M]

    def evaluate(self, j: int) -> int:
        """Most probable Q3 outcome on basis input |j>|0...0>, read from
        ``marked_probs`` (0 on a tie, as argmax of ``q3_distribution``)."""
        return int(self.marked_probs[j] > 0.5)

    def marginal(self, r: int) -> np.ndarray:
        """Index marginal after r Grover iterations of the search oracle."""
        if not self._marginals:
            self._marginals.append(self.start().measure_probs("index"))
        while len(self._marginals) <= r:
            self._state = self.apply(self._state).apply_circuit(self.diffusion)
            self._marginals.append(self._state.measure_probs("index"))
        return self._marginals[r]

    def run_round(self, r: int, rng: np.random.Generator) -> int:
        """``rng.choice(len(p), p=p / p.sum())`` on the depth-r marginal p, the
        same index and stream position, from a CDF built once per depth."""
        cdf = self._cdfs.get(r)
        if cdf is None:
            cdf = self._cdfs[r] = choice_cdf(self.marginal(r))
        return int(cdf.searchsorted(rng.random(), side="right"))


def search_layout(layout: RegisterLayout) -> RegisterLayout:
    """The registers the simulator runs: all but index_p and Q3."""
    return RegisterLayout.from_sizes([(name, size) for name, _, size in layout.registers
                                      if name not in ("index_p", "Q3")])


def _threshold_parts(layout: RegisterLayout, y: int, A: frozenset[int]):
    """What U adds to F: index_p at y's bits, which the y load sets; the
    renaming of (index, fid) onto (index_p, fid_p), which makes F's copy; J,
    which compares fid with fid_p into Q1; the D cascade, which marks the
    members of A on Q2."""
    m, b = layout.size("index"), layout.size("fid")
    index, index_p = layout.qubits("index"), layout.qubits("index_p")
    fid, fid_p = layout.qubits("fid"), layout.qubits("fid_p")
    phase, (q1,), (q2,) = layout.qubits("phase"), layout.qubits("Q1"), layout.qubits("Q2")
    y_bits = {q: (y >> l) & 1 for l, q in enumerate(index_p)}
    J = build_J(fid, fid_p, q1, phase[: b - 1]).gates
    D = [g for i in sorted(A) for g in build_D(i, index, index_p, phase[:m], q2)]
    return y_bits, dict(zip(index + fid, index_p + fid_p)), J, D


PLAN_LIMIT = 32  # assembly plans kept, one per (layout, b, y, A); the oldest goes first
_plans: dict[tuple, "_Plan"] = {}


@dataclass(eq=False)
class _Plan:
    """How U and search are made from F at one (layout, b, y, A), and the
    gates of them that V and W do not reach.

    F is a palindrome around QA, each gate's mirror its inverse, and so are
    its fusion runs: the greedy runs before QA (``runs`` but the last), a
    middle run holding QA and, when they fit in ``FUSE_QUBITS``, the last of
    those runs and its mirror, then their mirror images. A run's unit is the
    run fused on the search layout, its inverse, and the fused run's copy
    renamed onto (index_p, fid_p) and restricted to index_p = y (``y_bits``);
    a mirror run's gate and inverse are its forward run's, swapped. U is F's
    gates, then P + c + P^-1 + J + P + c^-1 + P^-1 + D, with P the forward
    runs' restricted copies fused, c the middle's, and J and D each one
    permutation gate (``permutation_run``) restricted to index_p = 0, each
    gate kept with its inverse. search is U . S . U^dag, S fused to one
    exact diagonal gate. ``F`` is the first F with
    None where V and W enter, for ``refill_qadc_circuit``; ``units`` keeps
    the units of the runs no V- or W-derived gate is in (``variable`` holds
    the others)."""

    F: list
    runs: list[tuple[int, int]]  # F's forward runs, then its middle run
    variable: set[tuple[int, int]]
    y_bits: dict[int, int]
    J: list[tuple[Gate, Gate]]
    D: list[tuple[Gate, Gate]]
    S: list[Gate]
    renames: tuple[dict[int, int], dict[int, int]]  # onto the search layout, the primed pair
    units: dict = field(default_factory=dict)  # run of F -> (U gate, inverse, restricted copy)

    @classmethod
    def record(cls, F: list[Gate], layout: RegisterLayout, b: int, y: int, A) -> "_Plan":
        """The plan F gives: its runs and where V and W enter, J and D each
        one permutation gate on the search layout."""
        y_bits, to_primed, J, D = _threshold_parts(layout, y, A)
        reduced = search_layout(layout)
        keep = layout.qubits_of(reduced.names)
        to_kept = dict(zip(keep, range(len(keep))))
        (s1,), (s2,) = reduced.qubits("Q1"), reduced.qubits("Q2")
        in_F = set(prep_positions(len(F), b))
        half = len(F) // 2  # F[half] is QA
        runs = Circuit(F[:half]).fusion_runs()
        start = runs[-1][0]
        if len(Circuit(F[start:len(F) - start]).qubits()) <= FUSE_QUBITS:
            runs[-1] = (start, len(F) - start)
        else:
            runs.append((half, half + 1))
        return cls([None if i in in_F else g for i, g in enumerate(F)], runs,
                   {run for run in runs if not in_F.isdisjoint(range(*run))}, y_bits,
                   *([_with_inverse(restrict(permutation_run(part, name),
                                             dict.fromkeys(y_bits, 0), to_kept))]
                     for part, name in ((J, "J"), (D, "D"))),
                   [fuse_run([pauli_x(s2), mcz((s1,), s2), pauli_x(s2)])], (to_kept, to_primed))

    def assemble(self, F: list[Gate]) -> tuple[Circuit, Circuit, Circuit]:
        """F, U and search: each unit the plan keeps, the others built from F."""
        units = [self.units.get(run) or self._unit(fuse_run(F[slice(*run)]))
                 for run in self.runs]
        self.units = {run: u for run, u in zip(self.runs, units) if run not in self.variable}
        P, c = _fused([u[2] for u in units[:-1]]), _with_inverse(units[-1][2])
        P_inv = [t[::-1] for t in P[::-1]]
        pairs = ([u[:2] for u in units] + [u[1::-1] for u in units[-2::-1]]
                 + P + [c] + P_inv + self.J + P + [c[::-1]] + P_inv + self.D)
        U = [t[0] for t in pairs]
        return Circuit(F), Circuit(U), Circuit(U + self.S + [t[1] for t in pairs[::-1]])

    def _unit(self, fused: Gate) -> tuple[Gate, Gate, Gate]:
        """A fused F gate and its inverse on the search layout, then its copy
        on (index_p, fid_p) restricted to index_p = y. A copy that moves
        index_p off y, into another basis value or a superposition, is
        refused: F must leave the index alone. The copy's inverse, unitary
        too, then keeps index_p at y as well."""
        to_kept, to_primed = self.renames
        primed = Circuit([fused]).remap(to_primed).gates[0]
        try:
            primed = restrict(primed, self.y_bits, to_kept)
        except SimulationError as exc:
            raise SimulationError(f"{fused.name}: moves index_p off y; W must be "
                                  "block-diagonal in the index register") from exc
        return (*_with_inverse(Circuit([fused]).remap(to_kept).gates[0]), primed)


def _with_inverse(gate: Gate) -> tuple[Gate, Gate]:
    return gate, gate.inverse()


def _fused(gates: list[Gate]) -> list[tuple[Gate, Gate]]:
    """The gates fused by their runs, each with its inverse."""
    return [_with_inverse(fuse_run(gates[slice(*run)])) for run in Circuit(gates).fusion_runs()]


def assemble_O_yA(V: Gate, W: Gate, layout: RegisterLayout,
                  cfg: PrecisionConfig, y: int, A) -> OracleCircuit:
    """Steps: F on (index,fid); F renamed onto (index',fid') loaded with y; J;
    mid-circuit uncompute of the primed registers; D cascade; X+Toffoli;
    mirror uncompute. Builds the simulator's U and search oracle through the
    ``_Plan`` at (layout, b, y, A), which the first assembly there records
    from F built anew and later ones refill with V and W; the model circuit
    waits for its first read."""
    A = frozenset(A)
    m = layout.size("index")
    if y not in A or any(not 0 <= i < 2 ** m for i in A):  # also refuses an empty A
        raise SimulationError(f"argmin variant needs y in A and A within [0, {2 ** m}), "
                              f"got y = {y}, A = {sorted(A)}")
    if m > cfg.b:
        raise SimulationError("circuit-exact oracle hosts comparator chains in the "
                              "phase register and needs log2(M) <= b")
    key = (layout, cfg.b, y, A)
    plan = _plans.get(key)
    if plan is None:
        F = fidelity_qadc_circuit(V, W, layout, cfg).gates
        if len(_plans) >= PLAN_LIMIT:
            del _plans[next(iter(_plans))]
        plan = _plans[key] = _Plan.record(F, layout, cfg.b, y, A)
    else:
        F = refill_qadc_circuit(plan.F, V, W, layout)
    return OracleCircuit(layout, y, A, *plan.assemble(F))


def prep_calls_per_oracle(b: int) -> int:
    """Analytic V+W call count of one circuit-exact oracle application.

    Six F applications (forward, primed, primed mirror, and their inverses),
    each containing one E^amp pair plus 2*(2**b - 1) reflection-operator
    applications at two calls of each oracle per reflection, for V and W alike.
    """
    per_f = 2 + 4 * (2 ** b - 1)
    return 2 * 6 * per_f


# --- search draws and the table backend's handle ------------------------------


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``rng.choice(len(probs), p=probs / probs.sum())`` draws from,
    refusing what it refuses: a p with a NaN, a negative entry, or a sum
    more than sqrt(eps) away from 1."""
    p = probs / probs.sum()
    if np.isnan(p).any():
        raise SimulationError("search marginal contains NaN")
    if (p < 0).any():
        raise SimulationError("search marginal has a negative probability")
    if abs(p.sum() - 1.0) > math.sqrt(np.finfo(float).eps):
        raise SimulationError(f"search marginal sums to {p.sum()!r}, not 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class TableOracleHandle:
    """Oracle-abstract backend: f evaluated on a quantized similarity table,
    Grover dynamics simulated exactly from the amplitude formulas."""

    def __init__(self, values: np.ndarray, y: int, A: frozenset[int]):
        self.M = len(values)
        self._marked = values > values[y]
        self._marked[list(A)] = False
        (self._marked_idx,) = self._marked.nonzero()
        (self._unmarked_idx,) = (~self._marked).nonzero()
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


# only for perfbench/tracing.py's PLAN, which finds run_round under this old class name
CircuitOracleHandle = OracleCircuit


# --- qubit accounting ---------------------------------------------------------


@dataclass(eq=False)
class QubitReport:
    builder_peak: int
    layout_total: int
    closed_form: int


def qubit_accounting(oracle: OracleCircuit) -> QubitReport:
    """Peak qubit use of the assembled oracle against the closed-form count.

    The closed-form count here is 2m + 2b + k_J + 1 + max(k_D + 2 - m - b,
    2n + b - k_J) with k_J = k_D = 0 extra ancillas, since both comparator
    chains live in the recycled phase register and the D pattern register is
    the recycled primed index register. m, n and b are the oracle layout's
    index, train and phase widths.
    """
    layout = oracle.layout
    m, n, b = (layout.size(name) for name in ("index", "train", "phase"))
    k_j = k_d = 0
    formula = 2 * m + 2 * b + k_j + 1 + max(k_d + 2 - m - b, 2 * n + b - k_j)
    return QubitReport(len(oracle.circuit.qubits()), layout.num_qubits, formula)
