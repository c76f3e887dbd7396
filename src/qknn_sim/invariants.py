"""The laws the QkNN-to-k-maxima reduction rests on, each written once.

Each check draws its instances from the ``rng`` it is given (where it needs
random ones), in a fixed order, and returns its worst deviation from the
law. ``REGISTRY`` names each check with its tolerance and the sizes
``qknn-sim verify`` runs it at; the acceptance criteria and the unit tests
call the same checks at their own seeds and sizes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle, qadc, subroutines as sub
from .datasets import haar_random_state as haar
from .oracle import build_J  # looked up here, so a test can swap in a faulty J
from .statevec import Circuit, RegisterLayout, StateVector, hadamard, pauli_x, permutation_run

# The dyadic family: test state |0>, train states |0> and |1>, so F = (1, 0) and
# every phase is dyadic. These are its (y, A) threshold states.
DYADIC_CASES = ((0, {0}), (1, {1}), (0, {0, 1}), (1, {0, 1}))


def _real_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _real_units(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    us = rng.normal(size=(count, dim))
    return us / np.linalg.norm(us, axis=1, keepdims=True)


def swap_test_law(rng: np.random.Generator, pairs: int, sizes: tuple[int, ...]) -> float:
    """Worst |Pr(B=0) - (1 + F)/2| of the swap test over Haar pairs of n-qubit
    states, n cycling through ``sizes``."""
    worst = 0.0
    for n in itertools.islice(itertools.cycle(sizes), pairs):
        layout = RegisterLayout.from_sizes([("train", n), ("test", n), ("B", 1)])
        psi, phi = haar(n, [rng], 2)
        state = StateVector.zero_state(layout)
        state = state.apply(sub.make_V(phi, layout, register="train"))
        state = state.apply(sub.make_V(psi, layout, register="test"))
        out = state.apply_circuit(sub.swap_test_circuit(layout))
        F = abs(np.vdot(psi, phi)) ** 2
        worst = max(worst, abs(out.measure_probs("B")[0] - (1 + F) / 2))
    return worst


def hadamard_test_law(rng: np.random.Generator, pairs: int) -> float:
    """Worst |Pr(B=0) - (1 + <v|u_j>)/2| of the Hadamard test over random real
    2-qubit v and u_0, u_1, read on each basis index j."""
    layout = RegisterLayout.from_sizes([("index", 1), ("data", 2), ("B", 1)])
    worst = 0.0
    for _ in range(pairs):
        v, us = _real_unit(rng, 4), _real_units(rng, 2, 4)
        V = sub.make_V(v.astype(complex), layout, register="data")
        W = sub.make_W(us.astype(complex), layout, train="data")
        for j in range(2):
            state = StateVector.zero_state(layout)
            if j:
                state = state.apply(pauli_x(0))
            out = state.apply_circuit(sub.hadamard_test_circuit(V, W, layout))
            worst = max(worst, abs(out.measure_probs("B")[0] - (1 + float(v @ us[j])) / 2))
    return worst


def g_eigen_law(psi: np.ndarray, phi: np.ndarray) -> float:
    """Eigen-law deviation of G_j for test state psi and train state phi. Its
    branches are the swap-test outputs |phi>_tr|psi>_tst +- |psi>_tr|phi>_tst."""
    n = len(psi).bit_length() - 1
    layout = RegisterLayout.from_sizes([("train", n), ("test", n), ("B", 1)])
    return sub.eigen_law_error(sub.g_block_matrix(psi, phi, layout), abs(np.vdot(psi, phi)) ** 2,
                               np.kron(psi, phi) + np.kron(phi, psi),
                               np.kron(psi, phi) - np.kron(phi, psi))


def h_eigen_law(v: np.ndarray, u: np.ndarray) -> float:
    """Eigen-law deviation of H_j for real test state v and train state u; its
    branches are the Hadamard-test outputs v +- u."""
    return sub.eigen_law_error(sub.h_block_matrix(v, u), float(np.vdot(v, u).real), v + u, v - u)


def eigenstructure_law(rng: np.random.Generator, instances: int, dot_instances: int,
                       sizes=(1, 2)) -> float:
    """Worst eigen-law deviation of G_j over Haar pairs, n cycling through
    ``sizes``, then of H_j over real 2-qubit pairs: B v+- = e^{+-2 pi i theta} v+-
    with sin(pi*theta) = sqrt((1+s)/2) (``subroutines.eigen_law_error``)."""
    errors = [g_eigen_law(*haar(n, [rng], 2))
              for n in itertools.islice(itertools.cycle(sizes), instances)]
    errors += [h_eigen_law(_real_unit(rng, 4), _real_unit(rng, 4)) for _ in range(dot_instances)]
    return max(errors, default=0.0)


def _block_error(op_matrix: np.ndarray, blocks: list, rng: np.random.Generator) -> float:
    """Worst |Op(|j> (x) v) - |j> (x) B_j v| over 50 // M random unit v per block;
    the M-valued index sits on the operator's low qubits."""
    M, dim = len(blocks), len(blocks[0])
    worst = 0.0
    for j, block in enumerate(blocks):
        for _ in range(50 // M):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            full = np.zeros(M * dim, dtype=complex)
            full[j::M] = v
            want = np.zeros(M * dim, dtype=complex)
            want[j::M] = block @ v
            worst = max(worst, np.linalg.norm(op_matrix @ full - want))
    return worst


def g_block_diagonality(rng: np.random.Generator, n: int, M: int) -> float:
    """G over M Haar train states of n qubits acts as G_j on index block j."""
    layout = RegisterLayout.from_sizes([("index", M.bit_length() - 1), ("train", n),
                                        ("test", n), ("B", 1)])
    psi, *phis = haar(n, [rng], M + 1)
    G = sub.build_G(sub.make_V(psi, layout, register="test"), sub.make_W(phis, layout), layout)
    block_layout = RegisterLayout.from_sizes([("train", n), ("test", n), ("B", 1)])
    return _block_error(G.gate.matrix, [sub.g_block_matrix(psi, phi, block_layout) for phi in phis],
                        rng)


def h_block_diagonality(rng: np.random.Generator) -> float:
    """H over four real 1-qubit train states acts as H_j on index block j."""
    v = _real_unit(rng, 2).astype(complex)
    us = _real_units(rng, 4, 2).astype(complex)
    layout = RegisterLayout.from_sizes([("index", 2), ("data", 1), ("B", 1)])
    H = sub.build_H_dot(sub.make_V(v, layout, register="data"),
                        sub.make_W(us, layout, train="data"), layout)
    return _block_error(H.gate.matrix, [sub.h_block_matrix(v, u) for u in us], rng)


def block_diagonality(rng: np.random.Generator) -> float:
    """Worst block error of G (n = 2, M = 4), then of H."""
    return max(g_block_diagonality(rng, 2, 4), h_block_diagonality(rng))


def comparator_J(width: int) -> int:
    """Errors of J on every pair of width-bit inputs: a wrong [a > b] bit, plus
    one if an input or a chain ancilla comes back changed."""
    circ = build_J(tuple(range(width)), tuple(range(width, 2 * width)), 2 * width,
                   tuple(range(2 * width + 1, 3 * width)))
    perm = permutation_run(circ.gates, "J").perm  # J(x), as J touches all its qubits
    worst = 0
    for a, b in itertools.product(range(2 ** width), repeat=2):
        x = a | (b << width)
        y = int(perm[x])
        wrong = ((y >> (2 * width)) & 1) != (a > b)
        dirty = (y >> (2 * width + 1)) != 0 or (y & (2 ** (2 * width) - 1)) != x
        worst = max(worst, int(wrong) + int(dirty))
    return worst


def membership_D(m: int) -> int:
    """Errors of the composed D gates for every A with |A| <= 3 on every m-bit
    index: a wrong [j in A] bit, plus one if the index comes back changed."""
    iq, pq = tuple(range(m)), tuple(range(m, 2 * m))
    chain, tgt = tuple(range(2 * m, 3 * m)), 3 * m
    worst = 0
    for size in (1, 2, 3):
        for A in itertools.combinations(range(2 ** m), size):
            circ = [g for i in A for g in oracle.build_D(i, iq, pq, chain, tgt)]
            perm = permutation_run(circ, "D").perm  # D(x), as D touches all its qubits
            for j in range(2 ** m):
                y = int(perm[j])
                wrong = ((y >> (3 * m)) & 1) != (j in A)
                worst = max(worst, int(wrong) + int((y & (2 ** (3 * m) - 1)) != j))
    return worst


def dyadic_oracle(b: int, y: int, A) -> oracle.OracleCircuit:
    """The assembled O_{y,A} at b bits for the dyadic family."""
    layout = oracle.oracle_layout(1, 1, b)
    V = sub.make_V(np.array([1, 0], dtype=complex), layout, register="test")
    W = sub.make_W(np.array([[1, 0], [0, 1]], dtype=complex), layout)
    return oracle.assemble_O_yA(V, W, layout, qadc.PrecisionConfig(b), y, A)


def oracle_equivalence(bits: tuple[int, ...]) -> float:
    """Worst deviation of the assembled O_{y,A} from f_{y,A} on the dyadic family.

    On the uniform index state, Q3 must equal f_{y,A}(j) with probability 1
    in each branch and every work register must return to zero; the table
    oracle must give the same f (a disagreement counts as deviation 1).
    """
    F = np.array([1.0, 0.0])
    worst = 0.0
    for b in bits:
        table = qadc.quantize_array(F, b)
        for y, A in DYADIC_CASES:
            oc = dyadic_oracle(b, y, A)
            handle = oracle.TableOracleHandle(table, y, A)
            out = StateVector.zero_state(oc.layout).apply(hadamard(0)).apply_circuit(oc.circuit)
            joint = out.measure_probs(["index", "Q3"])
            for j in range(2):
                expected = 1 if (F[j] > F[y] and j not in A) else 0
                worst = max(worst, abs(joint[j + 2 * expected] - 0.5),
                            float(handle.evaluate(j) != bool(expected)))
            anc = out.measure_probs(["train", "test", "B", "phase", "fid",
                                     "index_p", "fid_p", "Q1", "Q2"])
            worst = max(worst, 1.0 - anc[0])
    return worst


def haar_oracle(rng: np.random.Generator, m: int, n: int = 1) -> oracle.OracleCircuit:
    """O_{y,A} at b = 2 for 2**m Haar train states and a Haar test state, all
    of n qubits, at a random threshold state with |A| = max(1, M // 2)."""
    M = 2 ** m
    layout = oracle.oracle_layout(m, n, 2)
    states = haar(n, [rng], M + 1)
    A = [int(i) for i in rng.permutation(M)[: max(1, M // 2)]]
    return oracle.assemble_O_yA(sub.make_V(states[M], layout, register="test"),
                                sub.make_W(states[:M], layout), layout, qadc.PrecisionConfig(2),
                                A[0], A)


def kickback_gap(oc: oracle.OracleCircuit, depth: int = 3) -> float:
    """Worst gap between the simulator's reduced search and the model circuit.

    The worst index-marginal difference, over r <= ``depth`` Grover
    iterations, between the oracle's own search rounds and the full
    circuit with Q3 prepared in |->, plus one for each candidate whose
    superposed verdict differs from the most probable Q3 outcome of the full
    circuit run on |j>.
    """
    index = oc.layout.qubits("index")
    (q3,) = oc.layout.qubits("Q3")
    kickback = StateVector.zero_state(oc.layout).apply_circuit(
        Circuit([pauli_x(q3), hadamard(q3)] + [hadamard(q) for q in index]))
    worst = 0.0
    for r in range(depth + 1):
        if r:
            kickback = kickback.apply_circuit(oc.circuit).apply_circuit(oc.diffusion)
        gap = np.abs(oc.marginal(r) - kickback.measure_probs("index")).max()
        worst = max(worst, float(gap))
    return worst + sum(oc.evaluate(j) != int(np.argmax(oc.q3_distribution(j)))
                       for j in range(oc.M))


def phase_oracle_vs_kickback(rng: np.random.Generator) -> float:
    """``kickback_gap`` at r <= 3 on the dyadic family at b = 2 and on one
    Haar instance at M = 2 and one at M = 4."""
    oracles = [dyadic_oracle(2, y, A) for y, A in DYADIC_CASES]
    oracles += [haar_oracle(rng, 1), haar_oracle(rng, 2)]
    return max(kickback_gap(oc) for oc in oracles)


def arithmetic_folding(bits=range(2, 9)) -> int:
    """Worst |g(t) - g(2**b - t)| of the arithmetic table: theta and 1 - theta
    must digitize alike."""
    tables = (qadc.arithmetic_table(qadc.PrecisionConfig(b)) for b in bits)
    return max(int(np.abs(g - g[-np.arange(len(g)) % len(g)]).max()) for g in tables)


@dataclass(frozen=True)
class Invariant:
    name: str
    tolerance: float
    check: Callable[[np.random.Generator], float]  # worst deviation at verify's sizes

    def report(self, rng: np.random.Generator) -> dict:
        deviation = self.check(rng)
        return {"name": self.name, "max_deviation": float(deviation),
                "tolerance": self.tolerance, "pass": bool(deviation <= self.tolerance)}


REGISTRY = (
    Invariant("swap_test_probability_law", 1e-10, lambda rng: swap_test_law(rng, 50, (2,))),
    Invariant("hadamard_test_probability_law", 1e-10, lambda rng: hadamard_test_law(rng, 25)),
    Invariant("reflection_eigenstructure", 1e-9,
              lambda rng: eigenstructure_law(rng, 25, 25, (1,))),
    Invariant("comparator_J_exhaustive_b3", 0, lambda rng: comparator_J(3)),
    Invariant("membership_D_cascade_m2", 0, lambda rng: membership_D(2)),
    Invariant("oracle_circuit_vs_abstract", 1e-9, lambda rng: oracle_equivalence((2,))),
    Invariant("arithmetic_theta_folding", 0, lambda rng: arithmetic_folding()),
    Invariant("reflection_block_diagonality", 1e-10, block_diagonality),
    Invariant("phase_oracle_vs_kickback", 1e-12, phase_oracle_vs_kickback),
)


def verify(seed: int) -> list[dict]:
    """Run every registered check in order on one seeded generator."""
    rng = np.random.default_rng(seed)
    return [inv.report(rng) for inv in REGISTRY]
