"""Corpus generation, entanglement labeling, and instance sampling."""
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qknn_sim.datasets import (
    CLASSES,
    QUBITS,
    SCHEMES,
    LabeledStateCorpus,
    SimulationError,
    entanglement_entropy_bits,
    gen_class,
    gen_corpus,
    gen_discrimination_instance,
    haar_random_state,
    is_separable_bipartition,
    label_entanglement,
    read_corpus,
    write_corpus,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1 / math.sqrt(2)


def test_bell_state_labels():
    assert label_entanglement(BELL, "2q-sep-vs-ent") == "entangled"
    assert label_entanglement(BELL, "2q-sep-vs-maxent") == "maxent"
    assert abs(entanglement_entropy_bits(BELL, 2, (0,)) - 1.0) < 1e-9


def test_product_state_labels():
    plus = np.array([1, 1]) / math.sqrt(2)
    state = np.kron(plus, np.array([1, 0])).astype(complex)   # |0>_A (x) |+>_B
    assert label_entanglement(state, "2q-sep-vs-ent") == "separable"
    assert entanglement_entropy_bits(state, 2, (0,)) < 1e-9


def test_three_qubit_class_examples():
    assert label_entanglement(GHZ, "3q-five-class") == "ABC"
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / math.sqrt(3)
    assert label_entanglement(w, "3q-five-class") == "ABC"  # W merged into ABC
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


def test_partially_entangled_state_fits_no_maxent_class():
    theta = 0.3
    state = np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
    with pytest.raises(SimulationError):
        label_entanglement(state, "2q-sep-vs-maxent")


def test_label_closure_per_class():
    """Every generated state re-labels as its own class, 1000 per class."""
    for scheme in SCHEMES:
        for cid in CLASSES[scheme]:
            corpus = gen_class(scheme, cid, 1000, seed=42)
            assert all(label_entanglement(s, scheme) == cid for s in corpus.states)


def test_entropy_bounds():
    rng = np.random.default_rng(5)
    for _ in range(200):
        state = haar_random_state(3, rng)
        for part in [(0,), (1,), (2,), (0, 1)]:
            s = entanglement_entropy_bits(state, 3, part)
            assert -1e-9 <= s <= min(len(part), 3 - len(part)) + 1e-9


def test_three_qubit_labeler_is_exhaustive():
    """Any Haar state gets exactly one of the five classes."""
    rng = np.random.default_rng(9)
    seen = set()
    for _ in range(300):
        seen.add(label_entanglement(haar_random_state(3, rng), "3q-five-class"))
    assert seen <= set(CLASSES["3q-five-class"])


def test_haar_sampler_statistics():
    states = [haar_random_state(1, seed) for seed in range(10_000)]
    assert all(abs(np.linalg.norm(s) - 1) < 1e-12 for s in states)
    bloch = np.mean([[2 * np.real(np.conj(s[0]) * s[1]),
                      2 * np.imag(np.conj(s[0]) * s[1]),
                      abs(s[0]) ** 2 - abs(s[1]) ** 2] for s in states], axis=0)
    assert np.all(np.abs(bloch) < 0.05)
    mean_amp = np.mean([abs(s[0]) ** 2 for s in states])
    assert abs(mean_amp - 0.5) < 3 * 0.5 / math.sqrt(10_000) + 0.01


def test_haar_seed_determinism():
    assert np.allclose(haar_random_state(2, 7), haar_random_state(2, 7))


def test_gen_corpus_counts_and_determinism():
    c1 = gen_corpus("2q-sep-vs-ent", 25, seed=3)
    c2 = gen_corpus("2q-sep-vs-ent", 25, seed=3)
    assert len(c1) == 50
    assert np.allclose(c1.states, c2.states)
    assert c1.labels.count("separable") == c1.labels.count("entangled") == 25


def test_maxent_class_has_unit_entropy():
    corpus = gen_class("2q-sep-vs-maxent", "maxent", 50, seed=8)
    for state in corpus.states:
        assert entanglement_entropy_bits(state, 2, (0,)) >= 1 - 1e-6


def test_ac_b_arrangement_structure():
    corpus = gen_class("3q-five-class", "AC-B", 20, seed=2)
    for s in corpus.states:
        assert not is_separable_bipartition(s, 3, (0,))
        assert is_separable_bipartition(s, 3, (1,))
        assert not is_separable_bipartition(s, 3, (2,))


def test_discrimination_instance_properties():
    states, chosen = gen_discrimination_instance(8, 2, seed=5)
    assert 0 <= chosen < 8
    for i, j in itertools.combinations(range(8), 2):
        assert abs(np.vdot(states[i], states[j])) ** 2 < 1 - 1e-6
    again, chosen2 = gen_discrimination_instance(8, 2, seed=5)
    assert np.allclose(states, again) and chosen2 == chosen


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
