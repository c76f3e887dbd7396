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
  draws one outcome from a seeded generator and collapses onto it.
- States above MAX_QUBITS qubits and dense circuit unitaries above
  MAX_DENSE_QUBITS qubits are refused before anything is allocated.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

UNITARY_ATOL = 1e-12
# Largest state the engine allocates: 2**24 amplitudes are 256 MiB, and
# applying a circuit holds a working copy next to the input.
MAX_QUBITS = 24
# Largest qubit subset circuit_to_matrix builds a dense unitary on (1024 x 1024);
# it peaks at three 16 MiB arrays of 2**20 amplitudes (768 MiB at 12 qubits).
MAX_DENSE_QUBITS = 10

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)


class SimulationError(Exception):
    """Raised for violated preconditions (bad registers, non-unitary gates...)."""


def check_state_size(num_qubits: int) -> None:
    """Refuse, before allocating, a state larger than MAX_QUBITS qubits."""
    if num_qubits > MAX_QUBITS:
        raise SimulationError(
            f"a {num_qubits}-qubit state needs {16 * 2 ** num_qubits / 2 ** 20:,.0f} MiB; "
            f"the simulator allows at most {MAX_QUBITS} qubits")


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

    def to_json_obj(self) -> dict:
        return {name: [start, size] for name, start, size in self.registers}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RegisterLayout":
        regs = sorted(((v[0], v[1], k) for k, v in obj.items()))
        return cls(tuple((name, start, size) for start, size, name in regs))


@dataclass(frozen=True, eq=False)
class Gate:
    """A single operation: unitary matrix or basis permutation on target qubits.

    ``controls`` are positive controls (applied only where every control
    qubit is 1); negative controls are expressed by conjugating with X.
    ``prep_counts`` tracks how many data-preparation oracle calls (V/W,
    inverses included) this gate stands for, used by query accounting.
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    matrix: np.ndarray | None = None
    perm: np.ndarray | None = None
    prep_counts: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise SimulationError(f"{self.name}: repeated target qubits")
        if set(self.targets) & set(self.controls):
            raise SimulationError(f"{self.name}: control/target overlap")
        dim = 2 ** len(self.targets)
        if (self.matrix is None) == (self.perm is None):
            raise SimulationError(f"{self.name}: exactly one of matrix/perm required")
        if self.matrix is not None:
            m = self.matrix
            if m.shape != (dim, dim):
                raise SimulationError(f"{self.name}: matrix shape {m.shape} != ({dim},{dim})")
            if not np.allclose(m.conj().T @ m, np.eye(dim), atol=UNITARY_ATOL):
                raise SimulationError(f"{self.name}: matrix is not unitary within {UNITARY_ATOL}")
        if self.perm is not None:
            p = self.perm
            if p.shape != (dim,) or not np.array_equal(np.sort(p), np.arange(dim)):
                raise SimulationError(f"{self.name}: permutation is not a bijection on {dim} basis states")

    def inverse(self) -> "Gate":
        if self.matrix is not None:
            return Gate(self.name + "^-1", self.targets, self.controls,
                        matrix=self.matrix.conj().T, prep_counts=self.prep_counts)
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return Gate(self.name + "^-1", self.targets, self.controls,
                    perm=inv, prep_counts=self.prep_counts)

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

    def append(self, gate: Gate) -> None:
        self.gates.append(gate)

    def extend(self, other: "Circuit | list[Gate]") -> None:
        self.gates.extend(other.gates if isinstance(other, Circuit) else other)

    def inverse(self) -> "Circuit":
        return Circuit([g.inverse() for g in reversed(self.gates)])

    def qubits(self) -> set[int]:
        out: set[int] = set()
        for g in self.gates:
            out |= g.qubits()
        return out

    def prep_counts(self) -> Counter:
        total: Counter = Counter()
        for g in self.gates:
            for tag, count in g.prep_counts:
                total[tag] += count
        return total

    def netlist(self) -> str:
        return "\n".join(g.netlist_line() for g in self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __len__(self):
        return len(self.gates)


# --- gate constructors -----------------------------------------------------

def hadamard(q: int) -> Gate:
    return Gate("H", (q,), matrix=_H_MATRIX)


def pauli_x(q: int) -> Gate:
    return Gate("X", (q,), matrix=_X_MATRIX)


def pauli_z(q: int) -> Gate:
    return Gate("Z", (q,), matrix=_Z_MATRIX)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (target,), (control,), matrix=_X_MATRIX)


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate("TOFFOLI", (target,), (c1, c2), matrix=_X_MATRIX)


def mcx(controls: tuple[int, ...], target: int) -> Gate:
    return Gate("MCX", (target,), tuple(controls), matrix=_X_MATRIX)


def mcz(controls: tuple[int, ...], target: int) -> Gate:
    return Gate("MCZ", (target,), tuple(controls), matrix=_Z_MATRIX)


def cswap(control: int, t1: int, t2: int) -> Gate:
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    return Gate("CSWAP", (t1, t2), (control,), matrix=swap)


def register_unitary(targets: tuple[int, ...], matrix: np.ndarray, name: str,
                     controls: tuple[int, ...] = (),
                     prep_counts: tuple[tuple[str, int], ...] = ()) -> Gate:
    return Gate(name, tuple(targets), tuple(controls),
                matrix=np.asarray(matrix, dtype=complex), prep_counts=prep_counts)


def basis_permutation(targets: tuple[int, ...], perm: np.ndarray, name: str,
                      controls: tuple[int, ...] = ()) -> Gate:
    return Gate(name, tuple(targets), tuple(controls), perm=np.asarray(perm, dtype=np.int64))


# --- state vector ----------------------------------------------------------

@dataclass(eq=False)
class StateVector:
    """Pure n-qubit state: 2**n complex amplitudes plus an optional register layout."""

    num_qubits: int
    amplitudes: np.ndarray
    layout: RegisterLayout | None = None

    def __post_init__(self):
        if self.amplitudes.shape != (2 ** self.num_qubits,):
            raise SimulationError("amplitude array length must be 2**num_qubits")

    @classmethod
    def zero_state(cls, layout_or_n: RegisterLayout | int) -> "StateVector":
        if isinstance(layout_or_n, RegisterLayout):
            n, layout = layout_or_n.num_qubits, layout_or_n
        else:
            n, layout = layout_or_n, None
        check_state_size(n)
        amps = np.zeros(2 ** n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps, layout)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def apply(self, gate: Gate) -> "StateVector":
        amps = self.amplitudes.copy()
        _apply_gate(amps, self.num_qubits, gate, gate.targets, gate.controls)
        return StateVector(self.num_qubits, amps, self.layout)

    def apply_circuit(self, circuit: Circuit) -> "StateVector":
        # one working copy for the whole gate list; kernels mutate in place
        amps = self.amplitudes.copy()
        for gate in circuit:
            _apply_gate(amps, self.num_qubits, gate, gate.targets, gate.controls)
        return StateVector(self.num_qubits, amps, self.layout)

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

    def sample_measurement(self, register: str | list[str], rng: np.random.Generator | int):
        """Sample a register measurement; returns (outcome, collapsed state)."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        probs = self.measure_probs(register)
        outcome = int(rng.choice(len(probs), p=probs / probs.sum()))
        return outcome, self.collapse(register, outcome)

    def collapse(self, register: str | list[str], outcome: int) -> "StateVector":
        qubits = self._register_qubits(register)
        mask = _register_value_mask(self.num_qubits, qubits, outcome)
        amps = np.where(mask, self.amplitudes, 0.0)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise SimulationError(f"zero-probability collapse requested (outcome {outcome})")
        return StateVector(self.num_qubits, amps / norm, self.layout)

    def register_is_zero(self, register: str, atol: float = 1e-12) -> bool:
        probs = self.measure_probs(register)
        return bool(probs[1:].sum() <= atol)

    # -- persistence --

    def dump_json(self) -> str:
        obj = {
            "num_qubits": self.num_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
            "layout": self.layout.to_json_obj() if self.layout else None,
        }
        return json.dumps(obj)

    @classmethod
    def load_json(cls, text: str) -> "StateVector":
        obj = json.loads(text)
        amps = np.array([complex(re, im) for re, im in obj["amplitudes"]])
        layout = RegisterLayout.from_json_obj(obj["layout"]) if obj.get("layout") else None
        return cls(obj["num_qubits"], amps, layout)


# --- application kernels ---------------------------------------------------

def _apply_gate(amps: np.ndarray, n: int, gate: Gate, targets, controls) -> None:
    """Apply ``gate`` in place on ``targets`` under ``controls`` (its own qubits,
    or their positions in a sub-register).

    The state is viewed as (controls..., rest..., targets...), with the
    trailing target axes ordered so that flattening them yields the
    little-endian local index of ``targets``; only the controls=1 slice is
    rewritten, by the matrix or by the basis permutation.
    """
    for q in targets + controls:
        if not 0 <= q < n:
            raise SimulationError(f"qubit index {q} out of range for {n} qubits")
    c, t = len(controls), len(targets)
    src = [n - 1 - q for q in controls] + [n - 1 - q for q in targets]
    dst = list(range(c)) + [n - 1 - i for i in range(t)]
    moved = np.moveaxis(amps.reshape((2,) * n), src, dst)
    block = moved[(1,) * c]
    flat = np.ascontiguousarray(block).reshape(-1, 2 ** t)
    if gate.matrix is not None:
        out = flat @ gate.matrix.T
    else:
        out = np.empty_like(flat)
        out[:, gate.perm] = flat
    moved[(1,) * c] = out.reshape(block.shape)


def _register_value_mask(n: int, qubits: tuple[int, ...], value: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    mask = np.ones(2 ** n, dtype=bool)
    for k, q in enumerate(qubits):
        bit = (value >> k) & 1
        mask &= ((idx >> q) & 1) == bit
    return mask


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
