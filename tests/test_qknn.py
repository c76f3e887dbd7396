"""Classifier behavior: baseline, quantum path agreement, discrimination."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim.datasets import (
    DISCRIMINATION_MAX_FIDELITY,
    SCHEMES,
    gen_corpus,
    gen_discrimination_instance,
    haar_random_state,
)
from qknn_sim.kmax import SearchConfig
from qknn_sim.qadc import PrecisionConfig
from qknn_sim.qknn import (
    DISCRIMINATION_BITS,
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
    states = haar_random_state(n, [rng], M)
    if labels is None:
        labels = [("A" if i % 2 == 0 else "B") for i in range(M)]
    return TrainSet(states, labels)


def test_classical_knn_basis_case():
    train = TrainSet(np.eye(2, dtype=complex), ["A", "B"])
    result = classical_knn(np.array([1, 0], dtype=complex), train, 1, b=2)
    assert result.label == "A" and result.neighbors == (0,)
    assert abs(result.neighbor_values[0] - 1.0) < 1e-12


def test_classical_knn_majority():
    states = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    train = TrainSet(states, ["A", "A", "B"])
    result = classical_knn(np.array([1, 0], dtype=complex), train, 3, b=2)
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


TIE_PALETTE = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])


def tied_table(M, palette, quantized, rng):
    """M entries over a few palette values, so that many tie at the k-th value."""
    table = rng.choice(TIE_PALETTE[sorted(palette)], size=M)
    return np.round(table * 4).astype(np.int64) if quantized else table


def key_sort_order(table):
    """The reference ranking of the whole table: indices by (-value, index)."""
    values = table.tolist()
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


@given(st.integers(1, 2000), st.sets(st.integers(0, len(TIE_PALETTE) - 1), min_size=1),
       st.booleans(), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=300, deadline=None)
def test_top_k_indices_matches_python_key_sort(M, palette, quantized, seed, data):
    """The selection path against the reference key sort (-v, i) up to
    M = 2,000: heavy ties at the k-th value, negative values, -0.0 tying
    with 0.0, float and int64 tables."""
    table = tied_table(M, palette, quantized, np.random.default_rng(seed))
    k = data.draw(st.integers(1, M))
    assert top_k_indices(table, k) == key_sort_order(table)[:k]


@pytest.mark.parametrize("quantized", [False, True], ids=["float", "int64"])
def test_top_k_indices_matches_python_key_sort_for_every_k(quantized):
    table = tied_table(300, {1, 2, 3, 5}, quantized, np.random.default_rng(26))
    order = key_sort_order(table)
    for k in range(1, len(table) + 1):
        assert top_k_indices(table, k) == order[:k]


def assert_tables_match_reference(states, psis):
    """from_states against the conjugated-train-state product, bit for bit."""
    train = TrainSet(states, [0] * len(states))
    for psi in psis:
        got = FidelityTable.from_states(psi, train, b=12).exact
        assert got.tobytes() == (np.abs(states.conj() @ psi) ** 2).tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fidelity_table_is_bit_identical_to_reference_on_corpora(scheme):
    states = gen_corpus(scheme, 40, seed=7).states
    assert_tables_match_reference(states, states[::3])


@pytest.mark.parametrize("M,n", [(2, 1), (16, 2), (100, 3), (4500, 4)])
def test_fidelity_table_is_bit_identical_to_reference_on_haar_tables(M, n):
    rng = np.random.default_rng([M, n])
    states = haar_random_state(n, [rng], M)
    assert_tables_match_reference(states, haar_random_state(n, [rng], 20))


def test_classical_knn_validation():
    train = random_train(4, 1)
    with pytest.raises(SimulationError):
        classical_knn(np.array([1, 0], dtype=complex), train, 5, b=4)
    for k in (0, -1):
        with pytest.raises(SimulationError, match="k must be >= 1"):
            classical_knn(np.array([1, 0], dtype=complex), train, k, b=4)
    with pytest.raises(SimulationError, match="empty train set"):
        TrainSet(np.zeros((0, 2), dtype=complex), [])


def test_classical_knn_refuses_fractional_bits():
    """At b = 2.5 the table used to be ranked on the codes 0..4."""
    with pytest.raises(SimulationError, match="precision bits must be an integer, got 2.5"):
        classical_knn(np.array([1, 0], dtype=complex), random_train(4, 1), 1, b=2.5)


def test_quantized_table_construction():
    train = TrainSet(np.eye(2, dtype=complex), ["A", "B"])
    table = FidelityTable.from_states(np.array([1, 0], dtype=complex), train, b=3)
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
        test = haar_random_state(2, [np.random.default_rng(seed)])[0]
        table = FidelityTable.from_states(test, train, b=12)
        if len(set(table.quantized.tolist())) < train.M:
            continue
        trials += 1
        q = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=seed))
        c = classical_knn(test, train, 3, b=12)
        agree += set(q.neighbors) == set(c.neighbors) and q.label == c.label
    assert agree == 100


def test_qknn_deterministic_per_seed():
    train = random_train(8, 1)
    test = haar_random_state(1, [np.random.default_rng(1)])[0]
    first = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=9))
    second = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=9))
    assert first.label == second.label and first.neighbors == second.neighbors
    assert first.oracle_queries == second.oracle_queries


def test_qknn_reports_queries():
    train = random_train(16, 2)
    test = haar_random_state(2, [np.random.default_rng(3)])[0]
    res = qknn_classify(test, train, 3, PrecisionConfig(12), SearchConfig(seed=0))
    assert res.oracle_queries > 0 and res.data_prep_queries > 0


def test_qknn_circuit_exact_dyadic_instance():
    """Full circuit k-maxima on the M=2 dyadic family finds the F=1 state."""
    train = TrainSet(np.array([[1, 0], [0, 1]], dtype=complex), ["match", "other"])
    test = np.array([1, 0], dtype=complex)
    res = qknn_classify(test, train, 1, PrecisionConfig(2),
                        SearchConfig(seed=3, max_rounds=8), mode="circuit-exact")
    assert res.label == "match" and res.neighbors == (0,)
    assert res.oracle_queries > 0


# (label, neighbors, oracle_queries, data_prep_queries) of three seeded Haar
# test states per (M, n, b, k), search seed = test state number
GOLDEN_CIRCUIT_EXACT = {
    (2, 1, 2, 1): [("b", (1,), 47, 7964), ("a", (0,), 42, 7104), ("b", (1,), 44, 7448)],
    (4, 1, 2, 2): [("b", (3, 2), 47, 7964), ("a", (2, 1), 43, 7276), ("a", (2, 3), 44, 7444)],
    (4, 1, 3, 2): [("b", (1, 3), 51, 18428), ("b", (1, 2), 43, 15532),
                   ("b", (1, 3), 44, 15892)],
    (4, 2, 3, 2): [("a", (2, 3), 47, 16988), ("a", (2, 1), 43, 15532),
                   ("b", (1, 2), 48, 17352)],
    (8, 1, 3, 2): [("a", (4, 5), 64, 23160), ("b", (1, 3), 63, 22808),
                   ("a", (4, 2), 72, 26056)],
}


def test_qknn_circuit_exact_outputs_are_pinned():
    """Every circuit-exact prediction, neighbour list and query count is
    pinned: a faster assembly or simulation must reproduce them exactly."""
    for (M, n, b, k), want in GOLDEN_CIRCUIT_EXACT.items():
        rng = np.random.default_rng([M, n, b, k])

        def haar(count):
            v = rng.normal(size=(count, 2 ** n)) + 1j * rng.normal(size=(count, 2 ** n))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        train = TrainSet(haar(M), ["a", "b"] * (M // 2))
        got = []
        for seed, psi in enumerate(haar(3)):
            c = qknn_classify(psi, train, k, PrecisionConfig(b), SearchConfig(seed=seed),
                              mode="circuit-exact")
            got.append((c.label, c.neighbors, c.oracle_queries, c.data_prep_queries))
        assert got == want, (M, n, b, k)


def test_qknn_circuit_exact_rejects_large_instances():
    train = random_train(16, 2)
    with pytest.raises(SimulationError):
        qknn_classify(haar_random_state(2, [RNG])[0], train, 1, PrecisionConfig(2),
                      mode="circuit-exact")


@pytest.mark.parametrize("M,b", [(1, 2), (3, 2), (8, 2)])
def test_qknn_circuit_exact_refuses_outside_its_rule(M, b):
    """Circuit-exact needs a full index register of one qubit at least and
    log2(M) <= b: M = 1, M = 3, and M = 8 at b = 2, are refused with the rule."""
    rng = np.random.default_rng(8)
    with pytest.raises(SimulationError, match=r"M in \{2, 4, 8\}, n <= 2, log2\(M\) <= b <= 3"):
        qknn_classify(haar_random_state(1, [rng])[0], random_train(M, 1, rng), 1,
                      PrecisionConfig(b), mode="circuit-exact")


@pytest.mark.parametrize("scale", [1 + 1e-12, 1 + 5e-10])
def test_qknn_circuit_exact_takes_states_the_state_check_takes(scale):
    """A test or train state whose norm is off 1 by 1e-12 or 5e-10 passes the
    1e-9 state check, so V and W take it too, and it classifies as the unit
    state does: same label, neighbours and query counts."""
    rng = np.random.default_rng(21)
    train, test = random_train(4, 1, rng), haar_random_state(1, [rng])[0]
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
    test = haar_random_state(2, [rng])[0]
    table = FidelityTable.from_states(test, train, b=2)
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
        test = haar_random_state(2, [rng])[0]
        table = FidelityTable.from_states(test, train, b=2)
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
    stranger = haar_random_state(2, [np.random.default_rng(77)])[0]
    with pytest.raises(SimulationError):
        discriminate(stranger, train, SearchConfig(seed=1))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("match_first", [True, False])
def test_discriminate_separates_the_promised_gap(seed, match_first):
    """A train state at F = 1 - 1.2e-6 to the test state keeps the promise
    F < 1 - 1e-6; quantized, it must fall below the match's saturated value,
    so the search finds the match on every seed and in both train orders."""
    match = np.array([1, 0], dtype=complex)
    near = np.array([np.sqrt(1 - 1.2e-6), np.sqrt(1.2e-6)], dtype=complex)
    states = np.stack([match, near] if match_first else [near, match])
    found, _ = discriminate(match, TrainSet(states, [0, 1]), SearchConfig(seed=seed))
    assert found == (0 if match_first else 1)


def test_discrimination_bits_is_the_smallest_width_that_separates_the_promise():
    """(1 - DISCRIMINATION_MAX_FIDELITY) * 2**b > 1.5 holds at DISCRIMINATION_BITS
    and fails one bit lower; at the 1e-6 margin that width is 21."""
    margin = 1 - DISCRIMINATION_MAX_FIDELITY
    assert margin * 2 ** DISCRIMINATION_BITS > 1.5
    assert not margin * 2 ** (DISCRIMINATION_BITS - 1) > 1.5
    assert DISCRIMINATION_BITS == 21


def test_trainset_validation():
    with pytest.raises(SimulationError):
        TrainSet(np.array([[1, 1]], dtype=complex), ["A"])   # unnormalized
    with pytest.raises(SimulationError):
        TrainSet(np.eye(2, dtype=complex), ["A"])            # label count mismatch
    with pytest.raises(SimulationError, match="non-finite"):
        TrainSet(np.array([[np.nan, 0]], dtype=complex), ["A"])


BAD_TEST_STATES = {
    "nan": np.full(2, np.nan, dtype=complex),
    "inf": np.array([np.inf, 0], dtype=complex),
    "norm 3": np.array([3, 0], dtype=complex),
    "wrong length": np.array([1, 0, 0, 0], dtype=complex),
}
CLASSIFIERS = {
    "classical_knn": lambda state, train: classical_knn(state, train, 1, b=3),
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
