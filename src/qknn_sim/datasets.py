"""Entanglement-classification corpora and state-discrimination instances.

States are plain little-endian amplitude vectors (qubit k has weight 2**k).
Two-qubit states split into separable / entangled (and separable / maximally
entangled), three-qubit states into the five classes A-B-C, AB-C, A-BC,
AC-B, ABC, where a partition is read off from which bipartitions are
separable. Separability of a bipartition is detected by the largest Schmidt
coefficient (rank-1 within 1e-9); the maximally-entangled test and the
"entangled" rejection floor use the entanglement entropy of the one-qubit
marginal. The floor (entropy >= 0.05) is a corpus parameter: exactly-zero
entropy is a measure-zero event, so the entangled class needs a numerical
margin to be reproducibly labelable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .statevec import SimulationError

SCHEMES = ("2q-sep-vs-ent", "2q-sep-vs-maxent", "3q-five-class")
CLASSES = {
    "2q-sep-vs-ent": ("separable", "entangled"),
    "2q-sep-vs-maxent": ("separable", "maxent"),
    "3q-five-class": ("A-B-C", "AB-C", "A-BC", "AC-B", "ABC"),
}
QUBITS = {"2q-sep-vs-ent": 2, "2q-sep-vs-maxent": 2, "3q-five-class": 3}
ENTANGLED_ENTROPY_FLOOR = 0.05
MAXENT_ENTROPY_MIN = 1.0 - 1e-6
SCHMIDT_SEP_TOL = 1e-9
REJECTION_BUDGET = 1000


def haar_random_state(n: int, seed) -> np.ndarray:
    """Normalized complex Gaussian vector: Haar-distributed pure state."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def schmidt_coefficients(state: np.ndarray, n: int, part: tuple[int, ...]) -> np.ndarray:
    """Singular values of the amplitude matrix across (part | rest)."""
    tensor = state.reshape((2,) * n)
    axes = [n - 1 - q for q in part]
    k = len(part)
    moved = np.moveaxis(tensor, axes, range(k))
    return np.linalg.svd(moved.reshape(2 ** k, -1), compute_uv=False)


def is_separable_bipartition(state: np.ndarray, n: int, part: tuple[int, ...]) -> bool:
    return bool(schmidt_coefficients(state, n, part)[0] >= 1.0 - SCHMIDT_SEP_TOL)


def entanglement_entropy_bits(state: np.ndarray, n: int, part: tuple[int, ...]) -> float:
    lam2 = schmidt_coefficients(state, n, part) ** 2
    lam2 = lam2[lam2 > 1e-15]
    return float(-(lam2 * np.log2(lam2)).sum())


def label_entanglement(state: np.ndarray, scheme: str) -> str:
    """Class id of a state under the given scheme; raises if it fits none."""
    if scheme not in QUBITS:
        raise SimulationError(f"unknown scheme {scheme!r}")
    state = np.asarray(state, dtype=complex)
    n = QUBITS[scheme]
    if len(state) != 2 ** n:
        raise SimulationError(f"{scheme} needs a {n}-qubit state")
    if n == 2:
        if is_separable_bipartition(state, 2, (0,)):
            return "separable"
        if scheme == "2q-sep-vs-ent":
            return "entangled"
        if entanglement_entropy_bits(state, 2, (0,)) >= MAXENT_ENTROPY_MIN:
            return "maxent"
        raise SimulationError("state is neither separable nor maximally entangled")
    sep = tuple(is_separable_bipartition(state, 3, (q,)) for q in range(3))
    mapping = {
        (True, True, True): "A-B-C",
        (False, False, True): "AB-C",
        (True, False, False): "A-BC",
        (False, True, False): "AC-B",
        (False, False, False): "ABC",
    }
    if sep not in mapping:
        # exactly two separable cuts cannot happen for a pure state
        raise SimulationError(f"inconsistent separability pattern {sep}")
    return mapping[sep]


# --- generators ----------------------------------------------------------------


def _entangled_2q(rng: np.random.Generator) -> np.ndarray:
    for _ in range(REJECTION_BUDGET):
        state = haar_random_state(2, rng)
        if entanglement_entropy_bits(state, 2, (0,)) >= ENTANGLED_ENTROPY_FLOOR:
            return state
    raise SimulationError("rejection-sampling budget exceeded for entangled 2q states")


def _maxent_2q(rng: np.random.Generator) -> np.ndarray:
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    u0 = haar_random_unitary(2, rng)
    u1 = haar_random_unitary(2, rng)
    return np.kron(u1, u0) @ bell  # qubit 0 on the low bit


def _product3(rng: np.random.Generator, arrangement: str) -> np.ndarray:
    if arrangement == "A-B-C":
        a, b, c = (haar_random_state(1, rng) for _ in range(3))
        return np.kron(c, np.kron(b, a))
    if arrangement == "AB-C":
        return np.kron(haar_random_state(1, rng), _entangled_2q(rng))
    if arrangement == "A-BC":
        return np.kron(_entangled_2q(rng), haar_random_state(1, rng))
    if arrangement == "AC-B":
        ent = _entangled_2q(rng).reshape(2, 2)       # [c, a]
        mid = haar_random_state(1, rng)
        return np.einsum("ca,b->cba", ent, mid).reshape(-1)
    raise SimulationError(f"unknown arrangement {arrangement!r}")


def _abc_3q(rng: np.random.Generator) -> np.ndarray:
    for _ in range(REJECTION_BUDGET):
        state = haar_random_state(3, rng)
        if label_entanglement(state, "3q-five-class") == "ABC":
            return state
    raise SimulationError("rejection-sampling budget exceeded for ABC states")


def generate_state(scheme: str, class_id: str, rng: np.random.Generator) -> np.ndarray:
    if scheme in ("2q-sep-vs-ent", "2q-sep-vs-maxent"):
        if class_id == "separable":
            return np.kron(haar_random_state(1, rng), haar_random_state(1, rng))
        if class_id == "entangled" and scheme == "2q-sep-vs-ent":
            return _entangled_2q(rng)
        if class_id == "maxent" and scheme == "2q-sep-vs-maxent":
            return _maxent_2q(rng)
    elif scheme == "3q-five-class":
        if class_id == "ABC":
            return _abc_3q(rng)
        if class_id in ("A-B-C", "AB-C", "A-BC", "AC-B"):
            return _product3(rng, class_id)
    raise SimulationError(f"unknown class {class_id!r} for scheme {scheme!r}")


@dataclass(eq=False)
class LabeledStateCorpus:
    scheme: str
    states: np.ndarray
    labels: list
    seed_paths: list

    def __len__(self) -> int:
        return len(self.labels)


def gen_class(scheme: str, class_id: str, count: int, seed) -> LabeledStateCorpus:
    """Generate one class; every state re-passes the labeler with its label."""
    if scheme not in SCHEMES:
        raise SimulationError(f"unknown scheme {scheme!r}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(count)
    states, paths = [], []
    for child in children:
        rng = np.random.default_rng(child)
        state = generate_state(scheme, class_id, rng)
        got = label_entanglement(state, scheme)
        if got != class_id:
            raise SimulationError(f"generated state labeled {got!r}, wanted {class_id!r}")
        states.append(state)
        paths.append("/".join(str(x) for x in child.spawn_key))
    return LabeledStateCorpus(scheme, np.array(states), [class_id] * count, paths)


def gen_corpus(scheme: str, per_class: int, seed: int) -> LabeledStateCorpus:
    """All classes of a scheme, per_class states each, deterministic per seed."""
    root = np.random.SeedSequence(seed)
    class_seeds = root.spawn(len(CLASSES[scheme]))
    parts = [gen_class(scheme, cid, per_class, cs)
             for cid, cs in zip(CLASSES[scheme], class_seeds)]
    states = np.concatenate([p.states for p in parts])
    labels = sum((p.labels for p in parts), [])
    paths = sum((p.seed_paths for p in parts), [])
    return LabeledStateCorpus(scheme, states, labels, paths)


def gen_discrimination_instance(M: int, n: int, seed):
    """M pairwise-distinguishable Haar states plus a promised test index."""
    root = np.random.default_rng(seed)
    states: list[np.ndarray] = []
    for _ in range(M):
        for _attempt in range(REJECTION_BUDGET):
            cand = haar_random_state(n, root)
            if all(abs(np.vdot(s, cand)) ** 2 < 1.0 - 1e-6 for s in states):
                states.append(cand)
                break
        else:
            raise SimulationError("rejection-sampling budget exceeded for discrimination set")
    chosen = int(root.integers(0, M))
    return np.array(states), chosen


# --- corpus files ----------------------------------------------------------------


def write_corpus(corpus: LabeledStateCorpus, path: str) -> None:
    with open(path, "w") as fh:
        for state, label, spath in zip(corpus.states, corpus.labels, corpus.seed_paths):
            rec = {
                "label": label,
                "scheme": corpus.scheme,
                "amplitudes": [[float(a.real), float(a.imag)] for a in state],
                "seed_path": spath,
            }
            fh.write(json.dumps(rec) + "\n")


def read_corpus(path: str) -> LabeledStateCorpus:
    """Load a JSONL corpus: one known scheme, labels of that scheme, and on
    every record 2**n finite amplitudes (n the scheme's qubit count) whose
    norm is 1 within 1e-9, the train-set tolerance. Any other record raises
    SimulationError naming its file and line."""
    states, labels, paths, scheme = [], [], [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
                pairs = rec["amplitudes"]
                if any(type(x) not in (int, float) for pair in pairs for x in pair):
                    raise TypeError("amplitudes must be [re, im] pairs of numbers")
                state = np.array([complex(re, im) for re, im in pairs])
                rec_scheme, label = rec["scheme"], rec["label"]
                seed_path = rec.get("seed_path", "")
                if not isinstance(seed_path, str):
                    raise TypeError("seed_path must be a string")
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                raise SimulationError(f"{where}: malformed record ({exc!r})") from exc
            scheme = scheme or rec_scheme
            if rec_scheme != scheme or scheme not in SCHEMES:
                raise SimulationError(f"{where}: scheme {rec_scheme!r}; a corpus holds one "
                                      f"scheme of {', '.join(SCHEMES)}")
            if label not in CLASSES[scheme]:
                raise SimulationError(f"{where}: label {label!r} is not a class of {scheme}")
            if len(state) != 2 ** QUBITS[scheme]:
                raise SimulationError(f"{where}: {len(state)} amplitudes; a {scheme} record "
                                      f"has {2 ** QUBITS[scheme]}")
            if not np.isfinite(state).all():
                raise SimulationError(f"{where}: non-finite amplitude")
            if abs(np.linalg.norm(state) - 1.0) > 1e-9:
                raise SimulationError(f"{where}: norm {np.linalg.norm(state):.12g}, not 1")
            labels.append(label)
            paths.append(seed_path)
            states.append(state)
    if scheme is None:
        raise SimulationError(f"empty corpus file {path!r}")
    return LabeledStateCorpus(scheme, np.array(states), labels, paths)
