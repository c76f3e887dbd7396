"""Dense state-vector engine: registers, gates, circuits and measurement.

Conventions used throughout the package:

- Basis indices are little-endian: bit k of a basis index is qubit k and
  carries weight 2**k. Registers occupy contiguous qubit ranges and are
  little-endian internally; registers are laid out in declaration order,
  first register on the lowest qubits.
- Gates are either small unitary matrices applied to a tuple of target
  qubits (optionally under positive controls) or basis permutations, which
  are applied by index remapping rather than matrix multiplication.
- All operations are pure: they return new StateVector values and never
  mutate their inputs.
- Measurement gives Born-rule marginals over named registers; sampling
  draws one outcome from a seeded generator.
- States above MAX_QUBITS qubits and dense circuit unitaries above
  MAX_DENSE_QUBITS qubits are refused before anything is allocated.
- ``apply_circuit`` runs each gate on the prefix of the state up to its
  highest qubit (lazy width): above the qubits touched so far, all is 0.
  It scans for the occupied width down from the state's bound on it
  (``StateVector.width``), not from the top qubit, and copies only that
  prefix; the scan narrows again where J^-1 and D^-1 clear the top exactly.
- Each gate kernel reads its view of the state (axis order and controls=1
  slice, or for a permutation the indices it gathers through) from a plan
  made once per gate shape, width included, and kept. One circuit-exact
  oracle uses 60 to 98 shapes at every allowed size, each (y, A) the same.
- A matrix handed to ``Gate`` is checked for unitarity. The fixed gates (H,
  X, Z, CNOT, TOFFOLI, MCX, MCZ, CSWAP) share read-only module matrices
  that are checked once, at import, and skip the check per gate, as gates
  derived from checked gates do (``Gate.derived``), dense circuit products
  such as the reflection operators and their powers among them.
- ``permutation_run`` is the one evaluator of reversible classical circuits;
  ``restrict`` cuts one gate to a basis sector of some of its targets.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

UNITARY_ATOL = 1e-12
# Largest state the engine allocates: 2**24 amplitudes are 256 MiB, and
# applying a circuit holds a working copy next to the input.
MAX_QUBITS = 24
# Largest qubit subset circuit_to_matrix builds a dense unitary on (1024 x 1024);
# it peaks at three 16 MiB arrays of 2**20 amplitudes (768 MiB at 12 qubits).
MAX_DENSE_QUBITS = 10
# Widest gate fuse_run builds (32 x 32). On small states a gate costs its
# per-call overhead more than its arithmetic; at 12 qubits width 5 gave the
# lowest cost of fusing plus three runs of the oracle's U (BENCH_13.json).
FUSE_QUBITS = 5


class SimulationError(Exception):
    """Raised for violated preconditions (bad registers, non-unitary gates...)."""


def _require_unitary(name: str, m: np.ndarray) -> None:
    if not np.abs(m.conj().T @ m - np.eye(len(m))).max() <= UNITARY_ATOL:
        raise SimulationError(f"{name}: matrix is not unitary within {UNITARY_ATOL}")


def _fixed_matrix(name: str, m: np.ndarray) -> np.ndarray:
    """A matrix every gate of one kind shares: checked here, once, and made
    read-only, so no write through one gate can change the others."""
    _require_unitary(name, m)
    m.setflags(write=False)
    return m


_H_MATRIX = _fixed_matrix("H", np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))
_X_MATRIX = _fixed_matrix("X", np.array([[0, 1], [1, 0]], dtype=complex))
_Z_MATRIX = _fixed_matrix("Z", np.array([[1, 0], [0, -1]], dtype=complex))
_SWAP_MATRIX = _fixed_matrix("SWAP", np.eye(4, dtype=complex)[[0, 2, 1, 3]])


def require_unit_states(states: np.ndarray, what: str) -> None:
    """Refuse a state (1-D) or rows of states (2-D) that hold a non-finite
    amplitude or whose norm is off 1 by more than 1e-9."""
    if not np.isfinite(states).all():
        raise SimulationError(f"{what} {'contain' if states.ndim == 2 else 'contains'} "
                              "non-finite amplitudes")
    if np.any(np.abs(np.linalg.norm(states, axis=-1) - 1.0) > 1e-9):
        raise SimulationError(f"{what} must be normalized")


def require_count(name: str, value, low: int | None = 1, high: int | None = None) -> None:
    """Refuse a non-integer count (numpy integers pass) or one outside [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SimulationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise SimulationError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise SimulationError(f"{name} must be <= {high}, got {value}")


def to_mib(nbytes: int) -> float:
    """nbytes in MiB for a refusal message; inf where a float cannot hold it."""
    return nbytes / 2 ** 20 if nbytes < 2 ** 1000 else math.inf


def require_fits(what: str, count: int, itemsize: int = 16) -> None:
    """Refuse, before anything is allocated, more than 2**MAX_QUBITS entries of
    ``itemsize`` bytes (16: complex amplitudes, 8: float table entries)."""
    if count > 2 ** MAX_QUBITS:
        raise SimulationError(
            f"{what} needs {to_mib(itemsize * count):,.0f} MiB; at most 2**{MAX_QUBITS} "
            f"{itemsize}-byte values ({to_mib(itemsize << MAX_QUBITS):,.0f} MiB) fit")


@dataclass(frozen=True)
class RegisterLayout:
    """Named registers mapped to contiguous qubit ranges, in declaration order."""

    registers: tuple[tuple[str, int, int], ...]  # (name, start, size)

    @classmethod
    def from_sizes(cls, sizes: list[tuple[str, int]]) -> "RegisterLayout":
        regs, start = [], 0
        for name, size in sizes:
            if size < 1:
                raise SimulationError(f"register {name!r} must have size >= 1")
            regs.append((name, start, size))
            start += size
        layout = cls(tuple(regs))
        if len({name for name, _, _ in regs}) != len(regs):
            raise SimulationError("duplicate register names")
        return layout

    @property
    def num_qubits(self) -> int:
        return sum(size for _, _, size in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.registers)

    def range(self, name: str) -> tuple[int, int]:
        for reg, start, size in self.registers:
            if reg == name:
                return start, size
        raise SimulationError(f"unknown register {name!r}")

    def qubits(self, name: str) -> tuple[int, ...]:
        start, size = self.range(name)
        return tuple(range(start, start + size))

    def size(self, name: str) -> int:
        return self.range(name)[1]

    def qubits_of(self, names: list[str] | tuple[str, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for name in names:
            out.extend(self.qubits(name))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class Gate:
    """A single operation: unitary matrix or basis permutation on target qubits.

    ``controls`` are positive controls (applied only where every control
    qubit is 1); negative controls are expressed by conjugating with X.
    A gate carries no query accounting: the V/W calls of an oracle
    application are ``oracle.prep_calls_per_oracle``'s closed form.
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    matrix: np.ndarray | None = None
    perm: np.ndarray | None = None

    def __post_init__(self):
        self._check_structure()
        if self.matrix is not None:
            _require_unitary(self.name, self.matrix)

    def _check_structure(self) -> None:
        """Every check but unitarity: distinct qubits, one of matrix/perm,
        its shape, and a permutation that is a bijection."""
        if len(set(self.targets)) != len(self.targets):
            raise SimulationError(f"{self.name}: repeated target qubits")
        if len(set(self.controls)) != len(self.controls):
            raise SimulationError(f"{self.name}: repeated control qubits")
        if set(self.targets) & set(self.controls):
            raise SimulationError(f"{self.name}: control/target overlap")
        dim = 2 ** len(self.targets)
        if (self.matrix is None) == (self.perm is None):
            raise SimulationError(f"{self.name}: exactly one of matrix/perm required")
        if self.matrix is not None and self.matrix.shape != (dim, dim):
            raise SimulationError(f"{self.name}: matrix shape {self.matrix.shape} != ({dim},{dim})")
        if self.perm is not None:
            p = self.perm
            if p.shape != (dim,) or not np.array_equal(np.sort(p), np.arange(dim)):
                raise SimulationError(f"{self.name}: permutation is not a bijection on {dim} basis states")

    @classmethod
    def derived(cls, name: str, targets: tuple[int, ...], controls: tuple[int, ...],
                matrix: np.ndarray | None, perm: np.ndarray | None = None) -> "Gate":
        """A gate made from checked gates: one gate's matrix or permutation
        (on other qubits or controls), their inverse, the block ``restrict``
        cuts from one (a basis sector no input leaves), a classical run's
        permutation, the dense product of checked gates (a run ``fuse_run``
        builds, a reflection operator G or H, and its powers G^k), or a fixed
        gate on a module matrix checked at import. Such a matrix is unitary
        by construction, so only the structure is checked."""
        gate = object.__new__(cls)
        vars(gate).update(name=name, targets=targets, controls=controls, matrix=matrix, perm=perm)
        gate._check_structure()
        return gate

    def inverse(self) -> "Gate":
        return Gate.derived(self.name + "^-1", self.targets, self.controls,
                            None if self.matrix is None else self.matrix.conj().T,
                            None if self.perm is None else np.argsort(self.perm))

    def qubits(self) -> set[int]:
        return set(self.targets) | set(self.controls)

    def netlist_line(self) -> str:
        line = f"{self.name} " + " ".join(str(q) for q in self.targets)
        if self.controls:
            line += " [" + " ".join(str(q) for q in self.controls) + "]"
        return line


@dataclass
class Circuit:
    """An ordered gate list. Executes left to right."""

    gates: list[Gate] = field(default_factory=list)

    def inverse(self) -> "Circuit":
        return Circuit([g.inverse() for g in reversed(self.gates)])

    def remap(self, mapping: dict[int, int]) -> "Circuit":
        """The same gates on renamed qubits: q becomes mapping.get(q, q).

        Matrices and permutations are shared, not copied; every gate's
        structure is checked again, so a mapping that merges two qubits of
        one gate raises SimulationError.
        """
        def move(qubits):
            return tuple(mapping.get(q, q) for q in qubits)

        return Circuit([Gate.derived(g.name, move(g.targets), move(g.controls), g.matrix,
                                     g.perm) for g in self.gates])

    def fusion_runs(self, width: int = FUSE_QUBITS) -> list[tuple[int, int]]:
        """(start, stop) of each maximal run of consecutive gates whose qubits
        (targets and controls) number at most ``width`` in all. ``fuse_run``
        makes one gate of each: the same unitary in fewer gates."""
        runs: list[tuple[int, int]] = []
        span: set[int] = set()
        for i, gate in enumerate(self.gates):
            if runs and len(span | gate.qubits()) <= width:
                runs[-1], span = (runs[-1][0], i + 1), span | gate.qubits()
            else:
                runs.append((i, i + 1))
                span = gate.qubits()
        return runs

    def qubits(self) -> set[int]:
        out: set[int] = set()
        for g in self.gates:
            out |= g.qubits()
        return out

    def netlist(self) -> str:
        return "\n".join(g.netlist_line() for g in self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __len__(self):
        return len(self.gates)


def fuse_run(gates: list[Gate]) -> Gate:
    """One run of ``Circuit.fusion_runs`` as one dense gate on its qubits,
    sorted, named FUSED<n> for its n gates. A run of one gate, a gate wider
    than the fusion width among them, is kept as the same object."""
    if len(gates) == 1:
        return gates[0]
    targets = tuple(sorted(set().union(*(g.qubits() for g in gates))))
    return Gate.derived(f"FUSED{len(gates)}", targets, (),
                        circuit_to_matrix(Circuit(gates), targets))


def permutation_run(gates: list[Gate], name: str) -> Gate:
    """A classical run of gates as one permutation gate on its qubits, sorted:
    the inverse run carries each basis state's 1-based label to where the run
    sends that state. A run that mixes or signs basis states is refused, and
    one too wide for a state before anything is allocated (``require_fits``)."""
    targets = tuple(sorted(Circuit(gates).qubits()))
    require_fits(f"a {len(targets)}-qubit state", 2 ** len(targets))
    labels = np.arange(1, 2 ** len(targets) + 1, dtype=complex)
    for g in Circuit(gates).remap(dict(zip(targets, range(len(targets))))).inverse():
        _apply_gate(labels, len(targets), g, g.targets, g.controls)
    perm = labels.real.astype(np.int64) - 1
    if not np.array_equal(labels, perm + 1):
        raise SimulationError(f"{name}: the run is not a basis permutation")
    return Gate.derived(name, targets, (), None, perm)


@functools.cache
def _sector(width: int, mask: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The local indices of ``width`` targets that read ``bits`` under
    ``mask``, and the others: shared, so read-only."""
    inside = (np.arange(2 ** width) & mask) == bits
    cols, rest = np.flatnonzero(inside), np.flatnonzero(~inside)
    cols.setflags(write=False)
    rest.setflags(write=False)
    return cols, rest


def restrict(gate: Gate, values: dict[int, int], renumber: dict[int, int]) -> Gate:
    """The gate on the inputs whose targets in ``values`` hold those basis
    values: its block on its other targets, every qubit q renumbered to
    renumber[q]. Controls are never fixed. A gate that moves such an input
    out of that sector (a non-zero entry off the block, or a permutation
    image outside it) is refused."""
    fixed = [(p, values[q]) for p, q in enumerate(gate.targets) if q in values]
    cols, rest = _sector(len(gate.targets), sum(1 << p for p, _ in fixed),
                         sum(v << p for p, v in fixed))
    if gate.perm is not None:
        rank = np.full(len(gate.perm), -1)
        rank[cols] = np.arange(len(cols))
        matrix, perm = None, rank[gate.perm[cols]]
        leaks = (perm < 0).any()
    else:
        matrix, perm = gate.matrix[np.ix_(cols, cols)], None
        leaks = gate.matrix[np.ix_(rest, cols)].any()
    if leaks:
        raise SimulationError(f"{gate.name}: moves qubits {sorted(values)} off their basis values")
    return Gate.derived(gate.name, tuple(renumber[q] for q in gate.targets if q not in values),
                        tuple(renumber[q] for q in gate.controls), matrix, perm)


# --- gate constructors -----------------------------------------------------

def hadamard(q: int) -> Gate:
    return Gate.derived("H", (q,), (), _H_MATRIX)


def pauli_x(q: int) -> Gate:
    return Gate.derived("X", (q,), (), _X_MATRIX)


def pauli_z(q: int) -> Gate:
    return Gate.derived("Z", (q,), (), _Z_MATRIX)


def cnot(control: int, target: int) -> Gate:
    return Gate.derived("CNOT", (target,), (control,), _X_MATRIX)


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate.derived("TOFFOLI", (target,), (c1, c2), _X_MATRIX)


def mcx(controls: tuple[int, ...], target: int) -> Gate:
    return Gate.derived("MCX", (target,), tuple(controls), _X_MATRIX)


def mcz(controls: tuple[int, ...], target: int) -> Gate:
    return Gate.derived("MCZ", (target,), tuple(controls), _Z_MATRIX)


def cswap(control: int, t1: int, t2: int) -> Gate:
    return Gate.derived("CSWAP", (t1, t2), (control,), _SWAP_MATRIX)


def register_unitary(targets: tuple[int, ...], matrix: np.ndarray, name: str,
                     controls: tuple[int, ...] = ()) -> Gate:
    """A gate on a matrix from outside the gate algebra (V, W, the IQFT): checked."""
    return Gate(name, tuple(targets), tuple(controls), matrix=np.asarray(matrix, dtype=complex))


def basis_permutation(targets: tuple[int, ...], perm: np.ndarray, name: str,
                      controls: tuple[int, ...] = ()) -> Gate:
    return Gate(name, tuple(targets), tuple(controls), perm=np.asarray(perm, dtype=np.int64))


# --- state vector ----------------------------------------------------------

@dataclass(eq=False)
class StateVector:
    """Pure n-qubit state: 2**n complex amplitudes, an optional register layout
    and a bound on its occupied width: from 2**width up all is 0 (None: n)."""

    num_qubits: int
    amplitudes: np.ndarray
    layout: RegisterLayout | None = None
    width: int | None = None

    def __post_init__(self):
        if self.amplitudes.shape != (2 ** self.num_qubits,):
            raise SimulationError("amplitude array length must be 2**num_qubits")

    @classmethod
    def zero_state(cls, layout: RegisterLayout) -> "StateVector":
        n = layout.num_qubits
        require_fits(f"a {n}-qubit state", 2 ** n)
        amps = np.zeros(2 ** n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps, layout, 0)

    def apply(self, gate: Gate) -> "StateVector":
        amps = self.amplitudes.copy()
        _apply_gate(amps, self.num_qubits, gate, gate.targets, gate.controls)
        return StateVector(self.num_qubits, amps, self.layout)

    def apply_circuit(self, circuit: Circuit) -> "StateVector":
        # the occupied width w, scanned down from the bound; one zeroed working copy of
        # its prefix, each gate in place on amps[:2**w] (all above is 0), w grown to its
        # qubits and one more if it holds all below, which gemv would round otherwise
        n, src = self.num_qubits, self.amplitudes
        bound = n if self.width is None else self.width
        w = next((k for k in range(bound, 0, -1) if src[2 ** (k - 1): 2 ** k].any()), 0)
        amps = np.zeros(2 ** n, dtype=complex)
        amps[: 2 ** w] = src[: 2 ** w]
        for gate in circuit:
            qubits = gate.targets + gate.controls
            top = max(qubits, default=0) + 1
            w = min(n, max(w, top + (len(qubits) == top)))
            _apply_gate(amps[: 2 ** w], w, gate, gate.targets, gate.controls)
        return StateVector(n, amps, self.layout, w)

    # -- register helpers --

    def _register_qubits(self, register: str | list[str]) -> tuple[int, ...]:
        if self.layout is None:
            raise SimulationError("state has no register layout")
        names = [register] if isinstance(register, str) else list(register)
        return self.layout.qubits_of(names)

    def measure_probs(self, register: str | list[str]) -> np.ndarray:
        """Marginal Born-rule probabilities over a register's basis states."""
        qubits = self._register_qubits(register)
        probs = np.abs(self.amplitudes) ** 2
        tensor = probs.reshape((2,) * self.num_qubits)
        n = self.num_qubits
        axes = [n - 1 - q for q in qubits]
        keep = np.moveaxis(tensor, axes, [len(qubits) - 1 - i for i in range(len(qubits))])
        out = keep.reshape(2 ** len(qubits), -1).sum(axis=1)
        return out

    def sample_measurement(self, register: str | list[str], rng: np.random.Generator) -> int:
        """Draw one outcome of a register measurement from the Born rule."""
        probs = self.measure_probs(register)
        return int(rng.choice(len(probs), p=probs / probs.sum()))


# --- application kernels ---------------------------------------------------

@functools.cache
def _view_plan(n: int, targets: tuple[int, ...], controls: tuple[int, ...]):
    """(shape, perm, sel, dim) of a gate shape: the tensor shape (2,)*n, the
    axis order ``np.moveaxis`` builds to bring the controls to the front and
    the targets to the back, the controls=1 index and 2**len(targets). A
    qubit out of range raises; the cache keeps no error, so every call does."""
    for q in targets + controls:
        if not 0 <= q < n:
            raise SimulationError(f"qubit index {q} out of range for {n} qubits")
    c, t = len(controls), len(targets)
    src = [n - 1 - q for q in controls] + [n - 1 - q for q in targets]
    dst = list(range(c)) + [n - 1 - i for i in range(t)]
    perm = [a for a in range(n) if a not in src]
    for d, s in sorted(zip(dst, src)):
        perm.insert(d, s)
    return (2,) * n, tuple(perm), (1,) * c, 2 ** t


@functools.cache
def _gather_plan(n: int, targets: tuple[int, ...], controls: tuple[int, ...]):
    """(rows, local) of a gate shape: row r, local target value l of the
    controls=1 block is basis index rows[r] + local[l], a column plus a row."""
    shape, perm, sel, dim = _view_plan(n, targets, controls)
    index = np.arange(2 ** n).reshape(shape).transpose(perm)[sel].reshape(-1, dim)
    return index[:, :1].copy(), index[0] - index[0, 0]


def _apply_gate(amps: np.ndarray, n: int, gate: Gate, targets, controls) -> None:
    """Apply ``gate`` in place on ``targets`` under ``controls`` (its own qubits,
    or their positions in a sub-register).

    A permutation moves the controls=1 amplitudes by index (``_gather_plan``).
    A matrix rewrites the controls=1 slice of the state viewed as (controls...,
    rest..., targets...), the target axes ordered so that flattening them
    yields the little-endian local index of ``targets``.
    """
    if gate.perm is not None:
        rows, local = _gather_plan(n, targets, controls)
        cols = np.flatnonzero(gate.perm != np.arange(len(gate.perm)))  # the values it moves
        amps[rows + local[gate.perm[cols]]] = amps[rows + local[cols]]
        return
    shape, perm, sel, dim = _view_plan(n, targets, controls)
    moved = amps.reshape(shape).transpose(perm)
    block = moved[sel]
    flat = np.ascontiguousarray(block).reshape(-1, dim)
    moved[sel] = (flat @ gate.matrix.T).reshape(block.shape)


def circuit_to_matrix(circuit: Circuit, qubits: tuple[int, ...]) -> np.ndarray:
    """Dense unitary of a circuit on the given qubit subset (little-endian).

    All gates must act within ``qubits``; at most MAX_DENSE_QUBITS of them.
    """
    qubits = tuple(qubits)
    if len(qubits) > MAX_DENSE_QUBITS:
        raise SimulationError(f"circuit_to_matrix supports at most {MAX_DENSE_QUBITS} qubits")
    local = {q: i for i, q in enumerate(qubits)}
    missing = circuit.qubits() - set(qubits)
    if missing:
        raise SimulationError(f"circuit touches qubits outside subset: {sorted(missing)}")
    k = len(qubits)
    dim = 2 ** k
    # every basis column at once: a 2k-qubit vector whose low k qubits are the
    # local ones and whose high k qubits number the column
    cols = np.eye(dim, dtype=complex).reshape(-1)
    for gate in circuit:
        tgt = tuple(local[q] for q in gate.targets)
        ctl = tuple(local[q] for q in gate.controls)
        _apply_gate(cols, 2 * k, gate, tgt, ctl)
    return cols.reshape(dim, dim).T.copy()
