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

The one Haar draw, ``haar_random_state``, takes generators and returns rows:
bit for bit the textbook draw of one state at a time. The labeler takes one
state or an (N, 2**n) stack, with one batched SVD per cut. ``gen_class``
draws a class as one batch: each state's own child-seed generator draws its
pieces (one-qubit factors, an entangled pair with its redraws, Haar
unitaries) in a state-by-state draw's order, one ``normal`` call per piece,
and array operations combine the rows; one labeler pass then checks the
class. An ABC state is a plain Haar draw, separable with probability zero,
so that pass is its only check: a separable draw raises from ``gen_class``
instead of being redrawn. Discrimination instances have pairwise fidelity F
< DISCRIMINATION_MAX_FIDELITY. Their candidates come in blocks of up to
DISCRIMINATION_BLOCK rows from one generator, never more than a
one-at-a-time loop would draw, and one product per block gives their
fidelities with the accepted states and each other. Candidates are accepted
in stream order; a fidelity within the rounding band (8 * 2**n eps) of the
threshold is re-checked with the one-candidate product, so every instance is
byte for byte that of drawing and checking one candidate at a time.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .statevec import SimulationError, require_count, require_fits, require_unit_states

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
DISCRIMINATION_MAX_FIDELITY = 1.0 - 1e-6  # the promise margin between train states
DISCRIMINATION_BLOCK = 64  # candidates per draw; the fidelity product is O(M * block)


def haar_random_state(n: int, rngs: list, count: int = 1) -> np.ndarray:
    """``count`` Haar-random states from each generator in turn, each bit for bit
    (generator state too) the textbook draw v = re + 1j * im, v / norm(v)."""
    require_count("count", count)
    z = np.concatenate([rng.normal(size=(count, 2, 2 ** n)) for rng in rngs])
    v = z[:, 0] + 1j * z[:, 1]
    # np.linalg.norm's own expression; a (1, N) @ (N, 1) matmul runs its dot product per row.
    re, im = v.real[:, None], v.imag[:, None]
    return v / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]


def haar_random_unitary(dim: int, rngs: list) -> np.ndarray:
    """One Haar unitary per generator: QR of a complex Gaussian matrix, each
    column times the phase of R's diagonal entry (Mezzadri 2007)."""
    z = np.array([rng.normal(size=(2, dim, dim)) for rng in rngs])
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def schmidt_coefficients(states: np.ndarray, n: int, part: tuple[int, ...]) -> np.ndarray:
    """Singular values of the amplitude matrix across (part | rest), for one
    state or each state of a stack (..., 2**n): one batched SVD per call."""
    axes, k = [n - 1 - q for q in part], len(part)
    order = axes + [a for a in range(n) if a not in axes]
    cut = states.reshape(-1, *(2,) * n).transpose(0, *(1 + a for a in order))
    return np.linalg.svd(cut.reshape(*states.shape[:-1], 2 ** k, 2 ** (n - k)), compute_uv=False)


def _separable(schmidt: np.ndarray) -> np.ndarray:
    return schmidt[..., 0] >= 1.0 - SCHMIDT_SEP_TOL


def entropy_bits(schmidt: np.ndarray) -> np.ndarray:
    """Entanglement entropy, in bits, of each set of Schmidt coefficients."""
    lam2 = schmidt ** 2
    lam2 = np.where(lam2 > 1e-15, lam2, 1.0)  # a masked term adds 1 * log2(1) = 0
    return -(lam2 * np.log2(lam2)).sum(axis=-1)


# Class of each pattern code, None for no class. 2 qubits: 1 if the cut is separable
# plus 2 if maximally entangled. 3 qubits: bit q set if qubit q splits off
# separably (exactly two separable cuts cannot happen for a pure state).
_CLASS_OF_PATTERN = {
    "2q-sep-vs-ent": ("entangled", "separable", "entangled", "separable"),
    "2q-sep-vs-maxent": (None, "separable", "maxent", "separable"),
    "3q-five-class": ("ABC", "A-BC", "AC-B", None, "AB-C", None, None, "A-B-C"),
}


def label_entanglement(states: np.ndarray, scheme: str) -> str | list[str]:
    """Class id of one state (a str) or of each row of an (N, 2**n) stack (a
    list), from one SVD per cut. Refuses non-finite or non-unit input; raises,
    naming the row, if a state fits none."""
    if scheme not in QUBITS:
        raise SimulationError(f"unknown scheme {scheme!r}")
    states = np.asarray(states, dtype=complex)
    n = QUBITS[scheme]
    if states.ndim not in (1, 2) or states.shape[-1] != 2 ** n:
        raise SimulationError(f"{scheme} needs a {n}-qubit state or a stack of them")
    require_unit_states(states, "states" if states.ndim == 2 else "state")
    if n == 2:
        schmidt = schmidt_coefficients(states, 2, (0,))  # one decomposition per cut
        pattern = _separable(schmidt) + 2 * (entropy_bits(schmidt) >= MAXENT_ENTROPY_MIN)
    else:
        pattern = sum(_separable(schmidt_coefficients(states, 3, (q,))) << q for q in range(3))
    labels = [_CLASS_OF_PATTERN[scheme][p] for p in np.atleast_1d(pattern).tolist()]
    if None in labels:
        where = f"row {labels.index(None)}: " if states.ndim == 2 else ""
        raise SimulationError(f"{where}state fits none of the {scheme} classes "
                              f"{', '.join(CLASSES[scheme])}")
    return labels if states.ndim == 2 else labels[0]


# --- generators ----------------------------------------------------------------


def _entangled_2q(rngs: list) -> np.ndarray:
    """One pair per generator, each redrawn from its own generator until its
    entropy reaches the floor, at most REJECTION_BUDGET candidates each."""
    states, todo = np.empty((len(rngs), 4), dtype=complex), np.arange(len(rngs))
    for _ in range(REJECTION_BUDGET):
        states[todo] = haar_random_state(2, [rngs[i] for i in todo])
        todo = todo[entropy_bits(schmidt_coefficients(states[todo], 2, (0,)))
                    < ENTANGLED_ENTROPY_FLOOR]
        if not todo.size:
            return states
    raise SimulationError("rejection-sampling budget exceeded for entangled 2q states")


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)  # np.outer per row


def _draw_class(class_id: str, rngs: list) -> np.ndarray:
    """The states of one class, one per generator; each generator draws its
    pieces in the order listed (the entangled pair with all its rejections)."""
    if class_id == "separable":
        a = haar_random_state(1, rngs)
        return _outer(a, haar_random_state(1, rngs))
    if class_id == "entangled":
        return _entangled_2q(rngs)
    if class_id == "maxent":
        u0, u1 = haar_random_unitary(2, rngs), haar_random_unitary(2, rngs)
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        return np.array([np.kron(v1, v0) @ bell for v0, v1 in zip(u0, u1)])  # qubit 0 low
    if class_id == "ABC":
        return haar_random_state(3, rngs)
    if class_id == "A-B-C":
        a, b, c = (haar_random_state(1, rngs) for _ in range(3))
        return _outer(c, _outer(b, a))
    if class_id == "AB-C":
        c = haar_random_state(1, rngs)
        return _outer(c, _entangled_2q(rngs))
    ent = _entangled_2q(rngs)
    if class_id == "A-BC":
        return _outer(ent, haar_random_state(1, rngs))
    mid = haar_random_state(1, rngs)  # AC-B: the pair is [c, a]
    # einsum's product loop; a broadcast multiply can round the last bit differently
    return np.einsum("nca,nb->ncba", ent.reshape(-1, 2, 2), mid).reshape(len(rngs), -1)


@dataclass(eq=False)
class LabeledStateCorpus:
    scheme: str
    states: np.ndarray
    labels: list
    seed_paths: list

    def __len__(self) -> int:
        return len(self.labels)


def gen_class(scheme: str, class_id: str, count: int, root) -> LabeledStateCorpus:
    """Generate one class as a batch, each state from the generator of its own
    child of the SeedSequence ``root``; one labeler call checks it."""
    if scheme not in SCHEMES:
        raise SimulationError(f"unknown scheme {scheme!r}")
    require_count("count", count)
    if class_id not in CLASSES[scheme]:
        raise SimulationError(f"unknown class {class_id!r} for scheme {scheme!r}")
    children = root.spawn(count)
    states = _draw_class(class_id, [np.random.default_rng(child) for child in children])
    labels = label_entanglement(states, scheme)
    for row, got in enumerate(labels):
        if got != class_id:
            raise SimulationError(f"generated state {row} labeled {got!r}, wanted {class_id!r}")
    paths = ["/".join(str(x) for x in child.spawn_key) for child in children]
    return LabeledStateCorpus(scheme, states, labels, paths)


def gen_corpus(scheme: str, per_class: int, seed: int) -> LabeledStateCorpus:
    """All classes of a scheme, per_class states each, deterministic per seed.

    Corpora above 2**MAX_QUBITS amplitudes are refused before any seed is spawned."""
    if scheme not in SCHEMES:
        raise SimulationError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    require_count("per_class", per_class)
    require_fits(f"a {scheme} corpus of per-class={per_class} states",
                 per_class * len(CLASSES[scheme]) * 2 ** QUBITS[scheme])
    root = np.random.SeedSequence(seed)
    class_seeds = root.spawn(len(CLASSES[scheme]))
    parts = [gen_class(scheme, cid, per_class, cs)
             for cid, cs in zip(CLASSES[scheme], class_seeds)]
    states = np.concatenate([p.states for p in parts])
    labels = sum((p.labels for p in parts), [])
    paths = sum((p.seed_paths for p in parts), [])
    return LabeledStateCorpus(scheme, states, labels, paths)


def gen_discrimination_instance(M: int, n: int, seed):
    """M Haar states of pairwise fidelity < DISCRIMINATION_MAX_FIDELITY plus a
    promised test index, drawn in blocks (see above) with REJECTION_BUDGET
    draws per slot. M * 2**n amplitudes above 2**MAX_QUBITS are refused before allocation."""
    require_count("M", M)
    require_count("n", n)
    require_fits(f"a discrimination instance of M={M} states on n={n} qubits", M * 2 ** n)
    rng = np.random.default_rng(seed)
    states = np.empty((M, 2 ** n), dtype=complex)
    high = DISCRIMINATION_MAX_FIDELITY
    # Each part of a computed <a|b> of unit 2**n-vectors sums 2**(n+1) products, so it is
    # off by at most 2**n eps and |<a|b>|**2 by at most (2 sqrt(2) 2**n + 2) eps. Two
    # summation orders thus differ by less than 8 * 2**n eps: a block fidelity under
    # `clear` is under `high` in the one-candidate check too; any other is re-checked.
    clear = high - 8 * 2 ** n * np.finfo(float).eps
    done = misses = 0
    while done < M:
        # No more candidates than the one-at-a-time loop would draw, at most a block.
        start, size = done, min(M - done, REJECTION_BUDGET - misses, DISCRIMINATION_BLOCK)
        block = states[start:start + size]
        block[:] = haar_random_state(n, [rng], size)
        fid = np.abs(block.conj() @ states[:start + size].T) ** 2
        fid[:, start:] = np.tril(fid[:, start:], -1)  # each candidate meets those before it
        if (fid < clear).all():
            done += size
            continue
        for j, row in enumerate(fid):
            cand = states[start + j]
            if (row < clear).all() or np.all(np.abs(states[:done].conj() @ cand) ** 2 < high):
                states[done] = cand  # accepted states stay a prefix: done <= start + j
                done += 1
                misses = 0
            else:
                fid[:, start + j] = 0.0  # a rejected candidate bounds no later one
                misses += 1
                if misses == REJECTION_BUDGET:
                    raise SimulationError(
                        "rejection-sampling budget exceeded for discrimination set")
    return states, int(rng.integers(0, M))


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


def text_lines(path: str):
    """The lines of a text file; one that does not decode raises SimulationError."""
    try:
        with open(path) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise SimulationError(f"{path}: not a text file ({exc})") from None


def read_corpus(path: str) -> LabeledStateCorpus:
    """Load a JSONL corpus: one known scheme, labels of that scheme, and on
    every record 2**n finite amplitudes (n the scheme's qubit count) whose
    norm is 1 within 1e-9, the train-set tolerance. Any other record raises
    SimulationError naming its file and line."""
    states, labels, paths, scheme = [], [], [], None
    for lineno, line in enumerate(text_lines(path), 1):
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
        require_unit_states(state, f"{where}: state")
        labels.append(label)
        paths.append(seed_path)
        states.append(state)
    if scheme is None:
        raise SimulationError(f"empty corpus file {path!r}")
    return LabeledStateCorpus(scheme, np.array(states), labels, paths)
