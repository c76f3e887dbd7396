"""Classifier behavior: baseline, quantum path agreement, discrimination."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim.datasets import gen_discrimination_instance, haar_random_state
from qknn_sim.kmax import SearchConfig
from qknn_sim.qadc import PrecisionConfig
from qknn_sim.qknn import (
    FidelityTable,
    SimulationError,
    TrainSet,
    classical_knn,
    discriminate,
    majority_vote,
    qknn_classify,
    top_k_indices,
)

RNG = np.random.default_rng(555)


def random_train(M, n, rng=RNG, labels=None):
    states = np.stack([haar_random_state(n, rng) for _ in range(M)])
    if labels is None:
        labels = [("A" if i % 2 == 0 else "B") for i in range(M)]
    return TrainSet(states, labels)


def test_classical_knn_basis_case():
    train = TrainSet(np.eye(2, dtype=complex), ["A", "B"])
    result = classical_knn(np.array([1, 0], dtype=complex), train, 1)
    assert result.label == "A" and result.neighbors == (0,)
    assert abs(result.neighbor_values[0] - 1.0) < 1e-12


def test_classical_knn_majority():
    states = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    train = TrainSet(states, ["A", "A", "B"])
    result = classical_knn(np.array([1, 0], dtype=complex), train, 3)
    assert result.label == "A"


def test_vote_tie_goes_to_nearest():
    assert majority_vote(["A", "B"]) == "A"
    assert majority_vote(["B", "A", "A", "B"]) == "B"


def test_majority_vote_empty_raises():
    with pytest.raises(SimulationError):
        majority_vote([])


@given(st.lists(st.sampled_from("ABC"), min_size=1, max_size=9))
@settings(max_examples=200)
def test_majority_vote_always_majority_or_nearest_tied(labels):
    winner = majority_vote(labels)
    counts = {l: labels.count(l) for l in set(labels)}
    best = max(counts.values())
    assert counts[winner] == best
    tied = [l for l in labels if counts[l] == best]
    assert winner == tied[0]


def test_top_k_deterministic_tie_break():
    values = np.array([3, 1, 3, 2])
    assert top_k_indices(values, 3) == [0, 2, 3]


@given(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]), min_size=1,
                max_size=40),
       st.integers(1, 40), st.booleans())
@settings(max_examples=300)
def test_top_k_indices_matches_python_key_sort(values, k, quantized):
    """The lexsort path against the reference key sort (-v, i): heavy ties,
    negative dot values, -0.0 tying with 0.0, float and int64 tables."""
    table = np.array(values)
    if quantized:
        table = np.round(table * 4).astype(np.int64)
    k = min(k, len(table))
    reference = sorted(range(len(table)), key=lambda i: (-table[i], i))[:k]
    assert top_k_indices(table, k) == reference


def test_classical_knn_validation():
    train = random_train(4, 1)
    with pytest.raises(SimulationError):
        classical_knn(np.array([1, 0], dtype=complex), train, 5)
    with pytest.raises(SimulationError):
        TrainSet(np.zeros((0, 2), dtype=complex), [])
        classical_knn(np.array([1, 0], dtype=complex),
                      TrainSet(np.zeros((0, 2), dtype=complex), []), 1)


def test_dot_measure_rejects_complex_states():
    train = random_train(4, 1)
    with pytest.raises(SimulationError):
        classical_knn(np.array([1, 0], dtype=complex), train, 1, measure="dot")


def test_dot_measure_matches_fidelity_ranking_for_nonnegative_overlaps():
    """With all inner products >= 0, x -> x^2 is monotone: same ranking."""
    rng = np.random.default_rng(8)
    vs = np.abs(rng.normal(size=(8, 4)))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    train = TrainSet(vs.astype(complex), list("ABABABAB"))
    test = np.abs(rng.normal(size=4))
    test = (test / np.linalg.norm(test)).astype(complex)
    by_f = classical_knn(test, train, 3, measure="fidelity")
    by_x = classical_knn(test, train, 3, measure="dot")
    assert by_f.neighbors == by_x.neighbors and by_f.label == by_x.label


def test_quantized_table_construction():
    train = TrainSet(np.eye(2, dtype=complex), ["A", "B"])
    table = FidelityTable.from_states(np.array([1, 0], dtype=complex), train,
                                      "fidelity", b=3)
    assert list(table.quantized) == [7, 0]   # F=1 saturates


def test_qknn_matches_classical_on_quantized_table():
    """100 seeded trials at b=12 with generic states: identical neighbors.

    The claim requires distinct quantized fidelities (a probability-one
    event for exact values), so the premise is checked per instance and
    colliding draws are skipped.
    """
    rng = np.random.default_rng(2)
    train = random_train(16, 2, rng)
    agree = trials = 0
    seed = 0
    while trials < 100:
        seed += 1
        test = haar_random_state(2, np.random.default_rng(seed))
        table = FidelityTable.from_states(test, train, "fidelity", b=12)
        if len(set(table.quantized.tolist())) < train.M:
            continue
        trials += 1
        q = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=seed))
        c = classical_knn(test, train, 3, b=12)
        agree += set(q.neighbors) == set(c.neighbors) and q.label == c.label
    assert agree == 100


def test_qknn_deterministic_per_seed():
    train = random_train(8, 1)
    test = haar_random_state(1, np.random.default_rng(1))
    first = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=9))
    second = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=9))
    assert first.label == second.label and first.neighbors == second.neighbors
    assert first.oracle_queries == second.oracle_queries


def test_qknn_reports_queries():
    train = random_train(16, 2)
    test = haar_random_state(2, np.random.default_rng(3))
    res = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=0))
    assert res.oracle_queries > 0 and res.data_prep_queries > 0
    assert res.mode == "oracle-abstract"


def test_qknn_circuit_exact_dyadic_instance():
    """Full circuit k-maxima on the M=2 dyadic family finds the F=1 state."""
    train = TrainSet(np.array([[1, 0], [0, 1]], dtype=complex), ["match", "other"])
    test = np.array([1, 0], dtype=complex)
    res = qknn_classify(test, train, 1, PrecisionConfig(2),
                        SearchConfig(seed=3, max_rounds=8), mode="circuit-exact")
    assert res.label == "match" and res.neighbors == (0,)
    assert res.mode == "circuit-exact" and res.oracle_queries > 0


def test_qknn_circuit_exact_rejects_large_instances():
    train = random_train(16, 2)
    with pytest.raises(SimulationError):
        qknn_classify(haar_random_state(2, RNG), train, 1, PrecisionConfig(2),
                      mode="circuit-exact")


@pytest.mark.parametrize("M,b", [(1, 2), (8, 2)])
def test_qknn_circuit_exact_refuses_outside_its_rule(M, b):
    """Circuit-exact needs one index qubit at least and log2(M) <= b: M = 1,
    and M = 8 at b = 2, are refused with the rule."""
    rng = np.random.default_rng(8)
    with pytest.raises(SimulationError, match=r"M <= 8, n <= 2, b <= 3, with 2 <= M <= 2\*\*b"):
        qknn_classify(haar_random_state(1, rng), random_train(M, 1, rng), 1,
                      PrecisionConfig(b), mode="circuit-exact")


@pytest.mark.parametrize("scale", [1 + 1e-12, 1 + 5e-10])
def test_qknn_circuit_exact_takes_states_the_state_check_takes(scale):
    """A test or train state whose norm is off 1 by 1e-12 or 5e-10 passes the
    1e-9 state check, so V and W take it too, and it classifies as the unit
    state does: same label, neighbours and query counts."""
    rng = np.random.default_rng(21)
    train, test = random_train(4, 1, rng), haar_random_state(1, rng)
    cfg, search = PrecisionConfig(2), SearchConfig(seed=4, max_rounds=8)

    def summary(state, train_set):
        res = qknn_classify(state, train_set, 2, cfg, search, mode="circuit-exact")
        return res.label, res.neighbors, res.oracle_queries, res.data_prep_queries

    off_train = TrainSet(train.states * np.array([[scale], [1], [1], [1]]), train.labels)
    want = summary(test, train)
    assert summary(test * scale, train) == want
    assert summary(test, off_train) == want


def test_qknn_coarse_quantization_returns_admissible_completion():
    """At b=1 collisions are rampant: the returned set must still consist of
    indices whose quantized values form the top-k multiset."""
    rng = np.random.default_rng(10)
    train = random_train(8, 2, rng)
    test = haar_random_state(2, rng)
    table = FidelityTable.from_states(test, train, "fidelity", b=2)
    res = qknn_classify(test, train, 3, PrecisionConfig(2), SearchConfig(seed=4))
    best = sorted(table.quantized)[::-1][:3]
    got = sorted(table.quantized[list(res.neighbors)])[::-1]
    assert got == best


def test_qknn_neighbors_ranked_by_value_then_lowest_index():
    """At b=2 the top-k holds tied quantized values: neighbors come nearest
    first, ties by lowest index, and the vote reads that order."""
    rng = np.random.default_rng(10)
    train = random_train(8, 2, rng, labels=list("ABCDABCD"))
    tied = 0
    for seed in range(20):
        test = haar_random_state(2, rng)
        table = FidelityTable.from_states(test, train, "fidelity", b=2)
        res = qknn_classify(test, train, 4, PrecisionConfig(2), SearchConfig(seed=seed))
        reference = sorted(res.neighbors, key=lambda i: (-table.quantized[i], i))
        assert list(res.neighbors) == reference
        assert res.label == majority_vote([train.labels[i] for i in reference])
        tied += len(set(table.quantized[reference].tolist())) < len(reference)
    assert tied >= 10


def test_discriminate_examples():
    states, chosen = gen_discrimination_instance(8, 2, seed=1)
    train = TrainSet(states, list(range(8)))
    found, res = discriminate(states[chosen], train, SearchConfig(seed=2))
    assert found == chosen
    assert res.oracle_queries >= res.iterations


def test_discriminate_trivial_pair():
    states, chosen = gen_discrimination_instance(2, 1, seed=3)
    train = TrainSet(states, [0, 1])
    found, res = discriminate(states[chosen], train, SearchConfig(seed=5))
    assert found == chosen


def test_discriminate_promise_violation():
    states, _ = gen_discrimination_instance(4, 2, seed=4)
    train = TrainSet(states, list(range(4)))
    stranger = haar_random_state(2, np.random.default_rng(77))
    with pytest.raises(SimulationError):
        discriminate(stranger, train, SearchConfig(seed=1))


def test_trainset_validation():
    with pytest.raises(SimulationError):
        TrainSet(np.array([[1, 1]], dtype=complex), ["A"])   # unnormalized
    with pytest.raises(SimulationError):
        TrainSet(np.eye(2, dtype=complex), ["A"])            # label count mismatch
    with pytest.raises(SimulationError, match="non-finite"):
        TrainSet(np.array([[np.nan, 0]], dtype=complex), ["A"])
    three = TrainSet(np.eye(4, dtype=complex)[:3], ["A", "B", "C"])
    with pytest.raises(SimulationError):
        three.require_power_of_two()


BAD_TEST_STATES = {
    "nan": np.full(2, np.nan, dtype=complex),
    "inf": np.array([np.inf, 0], dtype=complex),
    "norm 3": np.array([3, 0], dtype=complex),
    "wrong length": np.array([1, 0, 0, 0], dtype=complex),
}
CLASSIFIERS = {
    "classical_knn": lambda state, train: classical_knn(state, train, 1),
    "qknn_classify": lambda state, train: qknn_classify(state, train, 1, PrecisionConfig(3),
                                                        SearchConfig(seed=0)),
    "discriminate": lambda state, train: discriminate(state, train, SearchConfig(seed=0)),
}


@pytest.mark.parametrize("bad", sorted(BAD_TEST_STATES))
@pytest.mark.parametrize("classify", sorted(CLASSIFIERS))
def test_classifiers_refuse_bad_test_state(classify, bad):
    """No neighbour values of NaN, no fidelity of 9 and no promised match on an
    all-NaN state: every classifier checks the test state as it checks the train set."""
    train = TrainSet(np.eye(2, dtype=complex), ["A", "B"])
    with pytest.raises(SimulationError, match="test state"):
        CLASSIFIERS[classify](BAD_TEST_STATES[bad], train)
