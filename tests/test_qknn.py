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
