"""Search with unknown marked count and the k-maxima loop."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim.kmax import (
    SearchConfig,
    TableBackend,
    fit_loglog_slope,
    grover_search_unknown,
    k_maxima,
    scaling_experiment,
)
from qknn_sim.oracle import SimulationError, TableOracleHandle


def test_search_config_validation():
    SearchConfig(1.2, 30, 0)
    with pytest.raises(SimulationError):
        SearchConfig(lam=1.5)
    with pytest.raises(SimulationError):
        SearchConfig(max_rounds=0)


def test_all_marked_succeeds_immediately():
    """t = M makes the r = 0 draw succeed with probability one."""
    table = np.arange(1.0, 9.0)
    handle = TableOracleHandle(table, y=0, A=frozenset({0}))
    assert handle.solution_count == 7
    res = grover_search_unknown(handle, SearchConfig(seed=2))
    assert res.found is not None and res.rounds == 1 and res.iterations == 0


def test_no_marked_items_fails_after_budget():
    handle = TableOracleHandle(np.zeros(8), y=0, A=frozenset({0}))
    res = grover_search_unknown(handle, SearchConfig(seed=2))
    assert res.found is None and res.rounds == 30
    assert handle.query_count == res.iterations + res.rounds


def test_single_target_mean_iterations_bound():
    """Mean Grover iterations stay under 4.5*sqrt(M/t) for t=1, M=64."""
    iters = []
    for trial in range(1000):
        table = np.zeros(64)
        table[17] = 1.0
        handle = TableOracleHandle(table, y=0, A=frozenset({0}))
        res = grover_search_unknown(handle, SearchConfig(seed=trial))
        if res.found is not None:
            assert res.found == 17
        iters.append(res.iterations)
    assert np.mean(iters) <= 4.5 * math.sqrt(64)


def test_k_maxima_small_table():
    res = k_maxima(TableBackend(np.array([0.1, 0.9, 0.5, 0.7])), 2,
                   cfg=SearchConfig(seed=5))
    assert res.top_k == frozenset({1, 3})


def test_k_maxima_k_equals_m():
    res = k_maxima(TableBackend(np.array([0.1, 0.9, 0.5, 0.7])), 4,
                   cfg=SearchConfig(seed=5))
    assert res.top_k == frozenset(range(4))
    assert res.queries_to_solution == 0


def test_k_maxima_rejects_k_above_m():
    with pytest.raises(SimulationError):
        k_maxima(TableBackend(np.array([0.1, 0.2])), 3)


def test_k_maxima_rejects_k_below_one():
    with pytest.raises(SimulationError, match="k must be >= 1"):
        k_maxima(TableBackend(np.array([0.1, 0.2])), 0)


def test_k_maxima_exact_on_random_tables():
    """100 seeded 64-entry tables, k=3: exact top-k in at least 99 trials."""
    wins = 0
    for seed in range(100):
        table = np.random.default_rng(10_000 + seed).random(64)
        res = k_maxima(TableBackend(table), 3, cfg=SearchConfig(seed=seed))
        wins += set(res.top_k) == set(np.argsort(table)[::-1][:3])
    assert wins >= 99


@given(st.lists(st.integers(0, 3), min_size=1, max_size=64).flatmap(
    lambda values: st.tuples(st.just(values), st.integers(1, len(values)),
                             st.integers(0, 2 ** 31 - 1))))
@settings(max_examples=60, deadline=None)
def test_k_maxima_invariants_on_tied_tables(case):
    """On tied integer tables: k distinct indices in [0, M), queries equal
    iterations plus one verification per round, and the last threshold fails."""
    values, k, seed = case
    res = k_maxima(TableBackend(np.array(values)), k, cfg=SearchConfig(seed=seed))
    assert len(res.top_k) == k
    assert all(0 <= i < len(values) for i in res.top_k)
    assert res.oracle_queries == res.iterations + res.search_rounds
    assert res.rounds[-1][1] is None


def test_k_maxima_exhaustive_small_tables():
    """200 random distinct-valued tables of size <= 8 all solved exactly."""
    rng = np.random.default_rng(7)
    for trial in range(200):
        M = int(rng.integers(2, 9))
        k = int(rng.integers(1, M + 1))
        table = rng.permutation(M).astype(float)  # distinct by construction
        res = k_maxima(TableBackend(table), k, cfg=SearchConfig(seed=trial))
        assert set(res.top_k) == set(np.argsort(table)[::-1][:k])


def test_trace_replay_and_set_discipline():
    """Same seed replays identically; accepted candidates satisfied f at the
    time of acceptance; |A| stays k with no duplicates; min(A) never drops."""
    table = np.random.default_rng(3).random(32)
    res1 = k_maxima(TableBackend(table), 4, cfg=SearchConfig(seed=11))
    res2 = k_maxima(TableBackend(table), 4, cfg=SearchConfig(seed=11))
    assert res1.rounds == res2.rounds and res1.top_k == res2.top_k
    assert res1.oracle_queries == res2.oracle_queries

    rng = np.random.default_rng(11)
    A = set(int(i) for i in rng.choice(32, size=4, replace=False))
    prev_min = min(table[i] for i in A)
    for y, found in res1.rounds:
        assert y == min(A, key=lambda i: (table[i], i))
        if found is None:
            continue
        assert found not in A and table[found] > table[y]
        A.remove(y)
        A.add(found)
        assert len(A) == 4
        new_min = min(table[i] for i in A)
        assert new_min >= prev_min
        prev_min = new_min
    assert A == set(res1.top_k)


def test_query_accounting_identity():
    """oracle_queries = Grover iterations + one verification per round."""
    for seed in range(20):
        table = np.random.default_rng(seed).random(32)
        res = k_maxima(TableBackend(table), 3, cfg=SearchConfig(seed=seed))
        assert res.oracle_queries == res.iterations + res.search_rounds


def test_data_prep_accounting():
    table = np.random.default_rng(1).random(16)
    res_raw = k_maxima(TableBackend(table), 2, cfg=SearchConfig(seed=1))
    assert res_raw.data_prep_queries == res_raw.iterations * 4
    res_b = k_maxima(TableBackend(table, b=3), 2, cfg=SearchConfig(seed=1))
    per_oracle = 2 * (12 + 24 * (2 ** 3 - 1))
    assert res_b.data_prep_queries == (res_b.oracle_queries * per_oracle
                                       + res_b.iterations * 4)


def test_scaling_experiment_deterministic_and_in_band():
    rows1 = scaling_experiment([16, 64, 256], 1, 60, SearchConfig(seed=31))
    rows2 = scaling_experiment([16, 64, 256], 1, 60, SearchConfig(seed=31))
    assert [(r.M, r.mean_queries) for r in rows1] == [(r.M, r.mean_queries) for r in rows2]
    slope = fit_loglog_slope([r.M for r in rows1],
                             [r.mean_queries_to_solution for r in rows1])
    assert 0.2 < slope < 0.9
    assert all(r.success_rate == 1.0 for r in rows1)


def test_trace_json_schema():
    res = k_maxima(TableBackend(np.array([0.1, 0.9, 0.5, 0.7])), 2,
                   cfg=SearchConfig(seed=3))
    import json
    obj = json.loads(res.trace_json())
    assert set(obj) == {"seed", "M", "k", "rounds", "oracle_queries", "top_k"}
    assert obj["M"] == 4 and obj["k"] == 2 and obj["top_k"] == [1, 3]
    assert all(len(r) == 2 for r in obj["rounds"])
