"""Corpus generation, entanglement labeling, and instance sampling."""
import collections
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qknn_sim import datasets
from qknn_sim.datasets import (
    CLASSES,
    QUBITS,
    SCHEMES,
    LabeledStateCorpus,
    SimulationError,
    entropy_bits,
    gen_class,
    gen_corpus,
    gen_discrimination_instance,
    haar_random_state,
    haar_random_unitary,
    label_entanglement,
    read_corpus,
    schmidt_coefficients,
    write_corpus,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / math.sqrt(2)
W = np.zeros(8, dtype=complex)
W[[1, 2, 4]] = 1 / math.sqrt(3)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
# states every scheme on that many qubits can label
NAMED = {
    2: np.stack([BELL, np.kron(PLUS, [1, 0]), np.kron([0, 1], PLUS), np.eye(4)[3]]),
    3: np.stack([GHZ, W, np.eye(8)[0], np.kron([0, 1], BELL), np.kron(BELL, PLUS)]),
}


def entropy(state, n, part):
    return float(entropy_bits(schmidt_coefficients(state, n, part)))


def textbook_haar(n, rng):
    """The textbook Haar draw of one state: the reference for haar_random_state."""
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def test_bell_state_labels():
    assert label_entanglement(BELL, "2q-sep-vs-ent") == "entangled"
    assert label_entanglement(BELL, "2q-sep-vs-maxent") == "maxent"
    assert abs(entropy(BELL, 2, (0,)) - 1.0) < 1e-9


def test_product_state_labels():
    plus = np.array([1, 1]) / math.sqrt(2)
    state = np.kron(plus, np.array([1, 0])).astype(complex)   # |0>_A (x) |+>_B
    assert label_entanglement(state, "2q-sep-vs-ent") == "separable"
    assert entropy(state, 2, (0,)) < 1e-9


def test_three_qubit_class_examples():
    assert label_entanglement(GHZ, "3q-five-class") == "ABC"
    assert label_entanglement(W, "3q-five-class") == "ABC"  # W merged into ABC
    zzz = np.zeros(8, dtype=complex)
    zzz[0] = 1
    assert label_entanglement(zzz, "3q-five-class") == "A-B-C"
    bell_then_one = np.kron(np.array([0, 1]), BELL).astype(complex)  # Bell(A,B) (x) |1>_C
    assert label_entanglement(bell_then_one, "3q-five-class") == "AB-C"


def test_labeler_rejects_wrong_sizes():
    with pytest.raises(SimulationError):
        label_entanglement(GHZ, "2q-sep-vs-ent")
    with pytest.raises(SimulationError):
        label_entanglement(BELL, "3q-five-class")
    with pytest.raises(SimulationError):
        label_entanglement(BELL, "no-such-scheme")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bad, single, stack", [
    (math.nan, "state contains non-finite amplitudes", "states contain non-finite amplitudes"),
    (0.0, "state must be normalized", "states must be normalized"),
    (2.0, "state must be normalized", "states must be normalized"),
])
def test_labeler_refuses_what_is_not_a_state(scheme, bad, single, stack):
    """A NaN amplitude, the zero vector and 2|0...0>, alone and in a stack."""
    state = np.zeros(2 ** QUBITS[scheme], dtype=complex)
    state[0] = bad
    with pytest.raises(SimulationError, match=f"^{single}$"):
        label_entanglement(state, scheme)
    with pytest.raises(SimulationError, match=f"^{stack}$"):
        label_entanglement(np.stack([NAMED[QUBITS[scheme]][0], state]), scheme)


def test_partially_entangled_state_fits_no_maxent_class():
    theta = 0.3
    state = np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
    with pytest.raises(SimulationError):
        label_entanglement(state, "2q-sep-vs-maxent")
    with pytest.raises(SimulationError, match="^row 2: "):
        label_entanglement(np.stack([BELL, NAMED[2][1], state, BELL]), "2q-sep-vs-maxent")


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stacked_labeler_matches_the_single_state_labeler(data):
    """One labeler call on a stack gives the per-state labels, on generated
    classes mixed with Bell, GHZ, W and product states."""
    scheme = data.draw(st.sampled_from(SCHEMES))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    pool = np.concatenate([gen_class(scheme, cid, 3, np.random.SeedSequence(seed)).states
                           for cid in CLASSES[scheme]]
                          + [NAMED[QUBITS[scheme]]])
    rows = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=24))
    stack = pool[rows]
    assert label_entanglement(stack, scheme) == [label_entanglement(s, scheme) for s in stack]


def test_label_closure_per_class():
    """Every generated state re-labels as its own class, 1000 per class."""
    for scheme in SCHEMES:
        for cid in CLASSES[scheme]:
            corpus = gen_class(scheme, cid, 1000, np.random.SeedSequence(42))
            assert all(label_entanglement(s, scheme) == cid for s in corpus.states)


# --- the state-by-state generator: the reference the batched gen_class must match ---


def _unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _entangled_2q(rng):
    for _ in range(datasets.REJECTION_BUDGET):
        state = textbook_haar(2, rng)
        if entropy(state, 2, (0,)) >= datasets.ENTANGLED_ENTROPY_FLOOR:
            return state
    raise SimulationError("rejection-sampling budget exceeded for entangled 2q states")


def _product3(rng, arrangement):
    if arrangement == "A-B-C":
        a, b, c = (textbook_haar(1, rng) for _ in range(3))
        return np.outer(c, np.outer(b, a)).reshape(-1)
    if arrangement == "AB-C":
        return np.outer(textbook_haar(1, rng), _entangled_2q(rng)).reshape(-1)
    if arrangement == "A-BC":
        return np.outer(_entangled_2q(rng), textbook_haar(1, rng)).reshape(-1)
    ent = _entangled_2q(rng).reshape(2, 2)       # AC-B: [c, a]
    mid = textbook_haar(1, rng)
    return np.einsum("ca,b->cba", ent, mid).reshape(-1)


def generate_state(class_id, rng):
    if class_id == "separable":
        return np.outer(textbook_haar(1, rng), textbook_haar(1, rng)).reshape(-1)
    if class_id == "entangled":
        return _entangled_2q(rng)
    if class_id == "maxent":
        u0, u1 = _unitary(2, rng), _unitary(2, rng)
        return np.kron(u1, u0) @ BELL  # qubit 0 on the low bit
    if class_id == "ABC":
        return textbook_haar(3, rng)
    return _product3(rng, class_id)


def reference_class(class_id, count, seed):
    """The states of gen_class drawn one child seed at a time, or its refusal."""
    try:
        return np.array([generate_state(class_id, np.random.default_rng(child))
                         for child in np.random.SeedSequence(seed).spawn(count)]).tobytes()
    except SimulationError as exc:
        return str(exc)


def batched_class(scheme, class_id, count, seed):
    try:
        return gen_class(scheme, class_id, count, np.random.SeedSequence(seed)).states.tobytes()
    except SimulationError as exc:
        return str(exc)


@given(scheme=st.sampled_from(SCHEMES), count=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_classes_are_the_state_by_state_classes(scheme, count, seed):
    for cid in CLASSES[scheme]:
        assert batched_class(scheme, cid, count, seed) == reference_class(cid, count, seed), cid


class CountingDraws:
    """Wraps datasets.haar_random_state: counts the draws of n-qubit states
    per generator (the generators are kept, so none is counted twice)."""

    def __init__(self, monkeypatch, n):
        self.n, self.drawn, self.haar = n, collections.Counter(), datasets.haar_random_state
        monkeypatch.setattr(datasets, "haar_random_state", self)

    def __call__(self, n, rngs, count=1):
        if n == self.n:
            self.drawn.update({rng: count for rng in rngs})
        return self.haar(n, rngs, count)


def test_entangled_pairs_give_up_at_the_rejection_budget(monkeypatch):
    draws = CountingDraws(monkeypatch, 2)
    monkeypatch.setattr(datasets, "ENTANGLED_ENTROPY_FLOOR", 1.5)  # above any 2q entropy
    with pytest.raises(SimulationError,
                       match="^rejection-sampling budget exceeded for entangled 2q states$"):
        gen_class("2q-sep-vs-ent", "entangled", 3, np.random.SeedSequence(0))
    assert sorted(draws.drawn.values()) == [datasets.REJECTION_BUDGET] * 3


def test_rejected_pairs_redraw_as_state_by_state(monkeypatch):
    """A floor most pairs fail: every class still matches the reference byte
    for byte, with rows that redraw several times."""
    draws = CountingDraws(monkeypatch, 2)
    monkeypatch.setattr(datasets, "ENTANGLED_ENTROPY_FLOOR", 0.9)
    for scheme in SCHEMES:
        for cid in CLASSES[scheme]:
            assert batched_class(scheme, cid, 30, 11) == reference_class(cid, 30, 11), cid
    assert max(draws.drawn.values()) > 2  # a row rejected more than once


@pytest.mark.parametrize("scheme, class_id", [
    ("2q-sep-vs-ent", "maxent"), ("2q-sep-vs-maxent", "entangled"), ("3q-five-class", "separable"),
])
def test_gen_class_refuses_a_class_of_another_scheme(scheme, class_id):
    with pytest.raises(SimulationError,
                       match=f"^unknown class '{class_id}' for scheme '{scheme}'$"):
        gen_class(scheme, class_id, 3, np.random.SeedSequence(0))


def test_haar_unitaries_per_generator_are_the_single_draws():
    batch = haar_random_unitary(2, [np.random.default_rng(s) for s in range(20)])
    singles = np.array([_unitary(2, np.random.default_rng(s)) for s in range(20)])
    assert batch.tobytes() == singles.tobytes()
    assert np.allclose(batch @ batch.conj().swapaxes(1, 2), np.eye(2))


def test_entropy_bounds():
    rng = np.random.default_rng(5)
    for _ in range(200):
        state = haar_random_state(3, [rng])[0]
        for part in [(0,), (1,), (2,), (0, 1)]:
            s = entropy(state, 3, part)
            assert -1e-9 <= s <= min(len(part), 3 - len(part)) + 1e-9


def test_three_qubit_labeler_is_exhaustive():
    """Any Haar state gets exactly one of the five classes."""
    rng = np.random.default_rng(9)
    seen = set()
    for _ in range(300):
        seen.add(label_entanglement(haar_random_state(3, [rng])[0], "3q-five-class"))
    assert seen <= set(CLASSES["3q-five-class"])


def test_haar_sampler_statistics():
    states = haar_random_state(1, [np.random.default_rng(seed) for seed in range(10_000)])
    assert all(abs(np.linalg.norm(s) - 1) < 1e-12 for s in states)
    bloch = np.mean([[2 * np.real(np.conj(s[0]) * s[1]),
                      2 * np.imag(np.conj(s[0]) * s[1]),
                      abs(s[0]) ** 2 - abs(s[1]) ** 2] for s in states], axis=0)
    assert np.all(np.abs(bloch) < 0.05)
    mean_amp = np.mean([abs(s[0]) ** 2 for s in states])
    assert abs(mean_amp - 0.5) < 3 * 0.5 / math.sqrt(10_000) + 0.01


def test_haar_seed_determinism():
    assert np.allclose(haar_random_state(2, [np.random.default_rng(7)]),
                       haar_random_state(2, [np.random.default_rng(7)]))


def test_gen_corpus_counts_and_determinism():
    c1 = gen_corpus("2q-sep-vs-ent", 25, seed=3)
    c2 = gen_corpus("2q-sep-vs-ent", 25, seed=3)
    assert len(c1) == 50
    assert np.allclose(c1.states, c2.states)
    assert c1.labels.count("separable") == c1.labels.count("entangled") == 25


def test_gen_corpus_refuses_an_unknown_scheme():
    with pytest.raises(SimulationError, match="unknown scheme '4q-ghz'"):
        gen_corpus("4q-ghz", 1, seed=0)


def test_maxent_class_has_unit_entropy():
    corpus = gen_class("2q-sep-vs-maxent", "maxent", 50, np.random.SeedSequence(8))
    for state in corpus.states:
        assert entropy(state, 2, (0,)) >= 1 - 1e-6


def test_ac_b_arrangement_structure():
    corpus = gen_class("3q-five-class", "AC-B", 20, np.random.SeedSequence(2))
    largest = [schmidt_coefficients(corpus.states, 3, (q,))[:, 0] for q in range(3)]
    assert np.all(largest[0] < 1 - 1e-9) and np.all(largest[2] < 1 - 1e-9)
    assert np.all(largest[1] >= 1 - 1e-9)  # only qubit B splits off


def test_discrimination_instance_properties():
    states, chosen = gen_discrimination_instance(8, 2, seed=5)
    assert 0 <= chosen < 8
    for i, j in itertools.combinations(range(8), 2):
        assert abs(np.vdot(states[i], states[j])) ** 2 < 1 - 1e-6
    again, chosen2 = gen_discrimination_instance(8, 2, seed=5)
    assert np.allclose(states, again) and chosen2 == chosen


GOLDEN_CORPORA = {
    "2q-sep-vs-ent": "0c21868f65e675ce996fbef23ede944a583990414c9255f6c202c57f7935c9bf",
    "2q-sep-vs-maxent": "648189ef5ac7e78ddc0f635dd48a012b2d6344ff3a1734df1d321e106d3054cb",
    "3q-five-class": "7b29ca8fb958ba398f9b817ba43d7b2ea2e884c09161f26c091246988468a12b",
}
GOLDEN_DISCRIMINATION = "bb0bd3c0e023f9a4918d4d940eaef0cbec6da0ea57151d595b0aa8d1fab13e9f"


def test_generators_are_byte_stable():
    """Every generated state, label, seed path and promised index is pinned:
    a faster generator must reproduce today's random draws exactly."""
    for scheme, want in GOLDEN_CORPORA.items():
        corpus = gen_corpus(scheme, 50, seed=1000)
        digest = hashlib.sha256(corpus.states.tobytes())
        digest.update("\n".join(corpus.labels).encode())
        digest.update("\n".join(corpus.seed_paths).encode())
        assert digest.hexdigest() == want, scheme
    states, chosen = gen_discrimination_instance(64, 4, seed=7)
    digest = hashlib.sha256(states.tobytes())
    digest.update(str(chosen).encode())
    assert (states.shape, states.dtype) == ((64, 16), np.complex128)
    assert digest.hexdigest() == GOLDEN_DISCRIMINATION


def test_discrimination_check_skips_a_repeat_and_gives_up_on_endless_ones(monkeypatch):
    haar = datasets.haar_random_state
    first = haar(2, [np.random.default_rng(1)])[0]
    drawn = []

    def sampler(n, rngs, count=1):
        block = haar(n, rngs, count)
        if not drawn:  # an accepted state, then the same state up to phase
            block[:2] = first, 1j * first
        drawn.append(count)
        return block

    monkeypatch.setattr(datasets, "haar_random_state", sampler)
    states, _ = gen_discrimination_instance(3, 2, seed=0)
    assert sum(drawn) == 4 and np.array_equal(states[0], first)
    for i, j in itertools.combinations(range(3), 2):
        assert abs(np.vdot(states[i], states[j])) ** 2 < datasets.DISCRIMINATION_MAX_FIDELITY
    drawn.clear()

    def repeats(n, rngs, count=1):
        drawn.append(count)
        return np.repeat(first[None], count, axis=0)

    monkeypatch.setattr(datasets, "haar_random_state", repeats)
    with pytest.raises(SimulationError, match="rejection-sampling budget exceeded"):
        gen_discrimination_instance(100, 2, seed=0)
    assert sum(drawn) == 1 + datasets.REJECTION_BUDGET  # no draw past the budget


def sequential_instance(M, n, seed):
    """The draw-and-check loop one candidate at a time that the block
    generator must reproduce byte for byte, with its single Haar draw."""
    rng, high = np.random.default_rng(seed), datasets.DISCRIMINATION_MAX_FIDELITY
    states = np.empty((M, 2 ** n), dtype=complex)
    for i in range(M):
        for _attempt in range(datasets.REJECTION_BUDGET):
            cand = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            cand /= np.linalg.norm(cand)
            if np.all(np.abs(states[:i].conj() @ cand) ** 2 < high):
                states[i] = cand
                break
        else:
            raise SimulationError("rejection-sampling budget exceeded for discrimination set")
    return states, int(rng.integers(0, M))


def instance_or_error(make, M, n, seed):
    try:
        states, chosen = make(M, n, seed)
    except SimulationError as exc:
        return str(exc)
    return states.tobytes(), chosen


def assert_same_instance(M, n, seed):
    assert (instance_or_error(gen_discrimination_instance, M, n, seed)
            == instance_or_error(sequential_instance, M, n, seed))


@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(1, 64), n=st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_block_instances_are_the_one_at_a_time_instances(seed, M, n):
    assert_same_instance(M, n, seed)


@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(2, 24), n=st.sampled_from([1, 2, 3]),
       high=st.sampled_from([0.02, 0.1, 0.3, 0.6]))
@settings(max_examples=40, deadline=None)
def test_block_instances_reject_and_give_up_as_one_at_a_time(seed, M, n, high):
    """A low promise margin makes most candidates fail: every rejection, and
    a budget running out, must fall where the one-at-a-time loop has them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "DISCRIMINATION_MAX_FIDELITY", high)
        assert_same_instance(M, n, seed)


@pytest.mark.parametrize("n, count", [(1, 1), (1, 300), (3, 7), (4, 64), (8, 5)])
def test_block_haar_draw_is_count_single_draws(n, count):
    block_rng, single_rng = np.random.default_rng(n), np.random.default_rng(n)
    block = haar_random_state(n, [block_rng], count)
    singles = np.array([textbook_haar(n, single_rng) for _ in range(count)])
    assert block.shape == (count, 2 ** n) and block.tobytes() == singles.tobytes()
    assert block_rng.integers(0, 2 ** 31) == single_rng.integers(0, 2 ** 31)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_draw_per_generator_is_each_generators_single_draw(n):
    """``count`` rows from each generator in turn, each its textbook draws."""
    for count in (1, 3):
        rngs, singles = ([np.random.default_rng(s) for s in range(9)] for _ in range(2))
        rows = haar_random_state(n, rngs, count)
        want = [textbook_haar(n, r) for r in singles for _ in range(count)]
        assert rows.tobytes() == np.array(want).tobytes()
        assert [r.integers(0, 2 ** 31) for r in rngs] == [r.integers(0, 2 ** 31) for r in singles]


@pytest.mark.parametrize("call, name", [
    (lambda size: gen_corpus("2q-sep-vs-ent", size, seed=0), "per_class"),
    (lambda size: gen_class("3q-five-class", "ABC", size, np.random.SeedSequence(0)), "count"),
    (lambda size: gen_discrimination_instance(size, 2, seed=0), "M"),
    (lambda size: gen_discrimination_instance(4, size, seed=0), "n"),
])
@pytest.mark.parametrize("size", [0, -1, -3])
def test_generators_refuse_sizes_below_one_naming_the_argument(call, name, size):
    with pytest.raises(SimulationError, match=rf"\b{name}\b.*>= 1"):
        call(size)


def test_corpus_file_round_trip(tmp_path):
    corpus = gen_corpus("2q-sep-vs-maxent", 10, seed=4)
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, str(path))
    loaded = read_corpus(str(path))
    assert loaded.scheme == corpus.scheme
    assert loaded.labels == corpus.labels
    assert np.allclose(loaded.states, corpus.states)
    # byte-identical on rewrite
    second = tmp_path / "again.jsonl"
    write_corpus(loaded, str(second))
    assert path.read_bytes() == second.read_bytes()


def test_read_corpus_empty_file_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(SimulationError):
        read_corpus(str(path))


@st.composite
def corpora(draw):
    """Any small corpus write_corpus can hold: unit-norm states of the scheme's
    size from arbitrary float parts (signed zeros and subnormals included),
    labels of the scheme, and arbitrary seed-path text."""
    scheme = draw(st.sampled_from(SCHEMES))
    count = draw(st.integers(1, 5))
    dim = 2 ** QUBITS[scheme]
    parts = st.lists(st.floats(-1, 1), min_size=2 * dim, max_size=2 * dim)
    states = []
    for _ in range(count):
        v = np.array(draw(parts))
        z = v[:dim] + 1j * v[dim:]
        assume(np.linalg.norm(z) > 1e-3)
        states.append(z / np.linalg.norm(z))
    labels = draw(st.lists(st.sampled_from(CLASSES[scheme]), min_size=count, max_size=count))
    paths = draw(st.lists(st.text(), min_size=count, max_size=count))
    return LabeledStateCorpus(scheme, np.array(states), labels, paths)


@given(corpus=corpora())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corpus_round_trip_is_bit_exact(tmp_path, corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, str(path))
    loaded = read_corpus(str(path))
    assert loaded.scheme == corpus.scheme
    assert loaded.states.dtype == corpus.states.dtype
    assert loaded.states.tobytes() == corpus.states.tobytes()
    assert loaded.labels == corpus.labels
    assert loaded.seed_paths == corpus.seed_paths


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                  st.lists(st.integers(), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def hostile_lines(draw, rec):
    """One JSON line that read_corpus must refuse in a 2-qubit corpus of the
    scheme of ``rec``, made by breaking the valid record ``rec``."""
    rec = json.loads(json.dumps(rec))
    amps = rec["amplitudes"]
    kind = draw(st.sampled_from(["field type", "seed_path type", "missing key", "non-finite",
                                 "boolean part", "ragged", "length", "norm", "label",
                                 "scheme", "not a record", "not json"]))
    if kind == "field type":
        rec[draw(st.sampled_from(["amplitudes", "label", "scheme"]))] = draw(_JUNK)
    elif kind == "seed_path type":
        rec["seed_path"] = draw(_JUNK.filter(lambda v: not isinstance(v, str)))
    elif kind == "missing key":
        del rec[draw(st.sampled_from(["amplitudes", "label", "scheme"]))]
    elif kind == "non-finite":
        i, part = draw(st.integers(0, len(amps) - 1)), draw(st.integers(0, 1))
        amps[i][part] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]))
    elif kind == "boolean part":
        i, part = draw(st.integers(0, len(amps) - 1)), draw(st.integers(0, 1))
        amps[i][part] = draw(st.booleans())
    elif kind == "ragged":
        i = draw(st.integers(0, len(amps) - 1))
        amps[i] = draw(st.sampled_from([amps[i][:1], amps[i] + [0.0], []]))
    elif kind == "length":
        size = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
        v = np.array([complex(re, im) for re, im in amps] * 2)[:size]
        if size and np.linalg.norm(v) > 0:
            v /= np.linalg.norm(v)
        rec["amplitudes"] = [[a.real, a.imag] for a in v]
    elif kind == "norm":
        scale = draw(st.floats(0, 0.999) | st.floats(1.001, 1e6))
        rec["amplitudes"] = [[scale * re, scale * im] for re, im in amps]
    elif kind == "label":
        rec["label"] = draw(st.sampled_from([c for s in SCHEMES for c in CLASSES[s]
                                             if c not in CLASSES[rec["scheme"]]]))
    elif kind == "scheme":
        rec["scheme"] = draw(st.sampled_from([s for s in SCHEMES if s != rec["scheme"]]))
    elif kind == "not a record":
        return json.dumps(draw(_JUNK.filter(lambda v: not isinstance(v, dict))))
    else:
        return draw(st.text(alphabet='{}[]":,0123 ', min_size=1).filter(str.strip)
                    | st.just("[" * 100_000))
    return json.dumps(rec)


_BASE = gen_corpus("2q-sep-vs-maxent", 3, seed=4)


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_corpus_names_the_line_of_a_hostile_record(tmp_path, data):
    """Every broken record raises SimulationError naming its line, never
    another exception; the first record is kept intact so it sets the scheme."""
    path = tmp_path / "corpus.jsonl"
    write_corpus(_BASE, str(path))
    lines = path.read_text().splitlines()
    pos = data.draw(st.integers(1, len(lines) - 1))
    lines[pos] = data.draw(hostile_lines(json.loads(lines[pos])))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SimulationError, match=f":{pos + 1}: "):
        read_corpus(str(path))
