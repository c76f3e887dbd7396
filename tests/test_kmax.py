"""Search with unknown marked count and the k-maxima loop."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim import experiments
from qknn_sim.kmax import (
    SearchConfig,
    TableBackend,
    fit_loglog_slope,
    grover_search_unknown,
    k_maxima,
    scaling_experiment,
)
from qknn_sim.oracle import SimulationError, TableOracleHandle


class _CountingTableHandle(TableOracleHandle):
    """The table handle, recording every round's depth and every verification."""

    def __init__(self, values, y, A):
        super().__init__(values, y, A)
        self.depths, self.evaluations = [], 0

    def run_round(self, r, rng):
        self.depths.append(r)
        return super().run_round(r, rng)

    def evaluate(self, j):
        self.evaluations += 1
        return super().evaluate(j)


class _CountingBackend(TableBackend):
    """TableBackend yielding counting handles and recording each (y, A) asked for."""

    def __init__(self, values):
        super().__init__(values)
        self.requests, self.handles = [], []

    def oracle_for(self, y, A):
        self.requests.append((y, frozenset(A)))
        self.handles.append(_CountingTableHandle(self.values, y, A))
        return self.handles[-1]

    def counted_queries(self):
        return sum(sum(h.depths) + h.evaluations for h in self.handles)


def test_search_config_validation():
    SearchConfig(1.2, 30, 0)
    with pytest.raises(SimulationError):
        SearchConfig(lam=1.5)
    with pytest.raises(SimulationError):
        SearchConfig(max_rounds=0)
    SearchConfig(max_rounds=np.int64(3), seed=np.int64(5))


@pytest.mark.parametrize("kwargs,message", [
    ({"max_rounds": 2.5}, "max_rounds must be an integer, got 2.5"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["fractional max_rounds", "fractional seed", "negative seed"])
def test_search_config_refuses_fractional_counts_and_negative_seeds(kwargs, message):
    """A fractional max_rounds used to reach k_maxima's range() as a raw TypeError."""
    with pytest.raises(SimulationError, match=message):
        SearchConfig(**kwargs)


@pytest.mark.parametrize("table,message", [
    (np.ones((2, 2)), r"must be 1-D, got shape \(2, 2\)"),
    (np.array([np.nan, 1, 2, 3]), "non-finite"),
    (np.array([0.1, np.inf, 0.3]), "non-finite"),
], ids=["2-D", "NaN", "inf"])
def test_table_backend_refuses_a_table_it_cannot_search(table, message):
    """A 2-D table used to fail inside k_maxima with an IndexError, and a NaN,
    which the descending sort puts first, kept is_top_k false for good."""
    with pytest.raises(SimulationError, match=message):
        TableBackend(table)


def test_all_marked_succeeds_immediately():
    """t = M makes the r = 0 draw succeed with probability one."""
    table = np.arange(1.0, 9.0)
    handle = TableOracleHandle(table, y=0, A=frozenset({0}))
    assert sum(handle.evaluate(j) for j in range(8)) == 7
    res = grover_search_unknown(handle, SearchConfig(), np.random.default_rng(2))
    assert res.found is not None and res.rounds == 1 and res.iterations == 0


def test_no_marked_items_fails_after_budget():
    handle = _CountingTableHandle(np.zeros(8), y=0, A=frozenset({0}))
    res = grover_search_unknown(handle, SearchConfig(), np.random.default_rng(2))
    assert res.found is None and res.rounds == 30
    assert sum(handle.depths) == res.iterations and handle.evaluations == res.rounds


def test_single_target_mean_iterations_bound():
    """Mean Grover iterations stay under 4.5*sqrt(M/t) for t=1, M=64."""
    iters = []
    for trial in range(1000):
        table = np.zeros(64)
        table[17] = 1.0
        handle = TableOracleHandle(table, y=0, A=frozenset({0}))
        res = grover_search_unknown(handle, SearchConfig(), np.random.default_rng(trial))
        if res.found is not None:
            assert res.found == 17
        iters.append(res.iterations)
    assert np.mean(iters) <= 4.5 * math.sqrt(64)


@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=30),
       st.data())
@settings(max_examples=200)
def test_is_top_k_matches_fresh_full_sort(values, data):
    """Repeated calls on one backend, with A near the true top-k or anywhere,
    give the verdict of a fresh full np.sort every time."""
    table = np.array(values)
    backend = TableBackend(table)
    order = np.lexsort((np.arange(len(table)), -table))
    for _ in range(6):
        k = data.draw(st.integers(1, len(table)))
        A = set(int(i) for i in order[:k])
        if data.draw(st.booleans()):  # swap one member for any index outside A
            A.discard(data.draw(st.sampled_from(sorted(A))))
            A.add(data.draw(st.sampled_from(sorted(set(range(len(table))) - A))))
        best = np.sort(table)[::-1][:k]
        mine = np.sort(table[sorted(A)])[::-1]
        assert backend.is_top_k(A) == bool(np.array_equal(best, mine))


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


@pytest.mark.parametrize("M", [4, 12])
def test_k_maxima_refuses_M_other_than_the_backend_size(M):
    backend = TableBackend(np.random.default_rng(0).random(8))
    with pytest.raises(SimulationError, match="does not match"):
        k_maxima(backend, 2, M)
    assert k_maxima(backend, 2, 8).M == k_maxima(backend, 2).M == 8


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
    """oracle_queries = Grover iterations + one verification per round, and
    equals the depths and verifications the handles were actually asked for."""
    for seed in range(20):
        backend = _CountingBackend(np.random.default_rng(seed).random(32))
        res = k_maxima(backend, 3, cfg=SearchConfig(seed=seed))
        assert res.oracle_queries == res.iterations + res.search_rounds
        assert backend.counted_queries() == res.oracle_queries


@given(st.lists(st.integers(0, 3), min_size=1, max_size=32).flatmap(
    lambda values: st.tuples(st.just(values), st.integers(1, len(values)),
                             st.integers(0, 2 ** 31 - 1))))
@settings(max_examples=100, deadline=None)
def test_k_maxima_never_asks_for_the_same_oracle_twice(case):
    """On tied tables, one k_maxima run requests each (y, A) at most once, so
    an oracle cache would never hit; the handles see every charged query."""
    values, k, seed = case
    backend = _CountingBackend(np.array(values))
    res = k_maxima(backend, k, cfg=SearchConfig(seed=seed))
    assert len(set(backend.requests)) == len(backend.requests) == len(res.rounds)
    assert backend.counted_queries() == res.oracle_queries


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


@pytest.mark.parametrize("run,named", [
    (lambda: scaling_experiment([16], 1, 0), "trials must be >= 1, got 0"),
    (lambda: experiments.discrimination_sweep([4], 1, 0, SearchConfig()),
     "trials must be >= 1, got 0"),
    (lambda: experiments.entanglement_experiment("2q-sep-vs-ent", 5, 1, 3, range(0)),
     "seeds must hold at least one corpus seed"),
    (lambda: scaling_experiment([], 1, 2), "M_values must hold at least one table size"),
    (lambda: experiments.discrimination_sweep([], 1, 2, SearchConfig()),
     "M_values must hold at least one table size"),
])
def test_experiment_loops_refuse_empty_work(run, named):
    """No trials or no seeds is bad input, not a mean over nothing."""
    with pytest.raises(SimulationError, match=named):
        run()


@pytest.mark.parametrize("means", [[math.nan, 1.0], [math.inf, 1.0], [0.0, 1.0]],
                         ids=["nan", "inf", "zero"])
def test_fit_loglog_slope_refuses_a_mean_that_is_not_finite_and_positive(means):
    """A NaN mean used to pass the guard and return a NaN slope."""
    with pytest.raises(SimulationError, match="needs two distinct M and mean queries > 0"):
        fit_loglog_slope([2, 4], means)
    assert fit_loglog_slope([2, 4], [1.0, 2.0]) == pytest.approx(1.0)


def test_trace_json_schema():
    res = k_maxima(TableBackend(np.array([0.1, 0.9, 0.5, 0.7])), 2,
                   cfg=SearchConfig(seed=3))
    import json
    obj = json.loads(res.trace_json())
    assert set(obj) == {"seed", "M", "k", "rounds", "oracle_queries", "top_k"}
    assert obj["M"] == 4 and obj["k"] == 2 and obj["top_k"] == [1, 3]
    assert all(len(r) == 2 for r in obj["rounds"])
