"""Quantum search with an unknown number of marked items, and the k-maxima
loop built on it.

The search follows the growing-schedule strategy: keep a bound m, draw the
iteration count r uniformly from [0, ceil(m)), run r Grover iterations,
measure, and verify the measured candidate with one classical oracle
evaluation. On failure grow m by the factor lambda up to sqrt(M). The
simulation is exact: after r iterations the probability of measuring a
marked item is sin^2((2r+1)*theta) with sin^2(theta) = t/M.

The k-maxima loop keeps a set A of k indices, repeatedly replaces its
minimum-value member y with a found y' satisfying f_{y,A}(y') = 1, and
stops when one search exhausts its budget of max_rounds consecutive failed
rounds at the current threshold: at that point nothing outside A beats
min(A) with high probability.

Query accounting: oracle_queries = simulated Grover iterations plus one per
post-measurement verification (Boyer, Brassard, Hoyer and Tapp 1998), and
``k_maxima`` computes it from each search's result. The oracles only
simulate: a table handle, or an assembled circuit that runs its own rounds.
Threshold (argmin) selection reads values that arrive with the measured
indices via the digitized similarity register, so it is not charged.
data_prep_queries counts V/W circuit calls: the per-application cost of the
circuit oracle plus two (V, W) pairs per Grover iteration for the diffusion
step of circuit-exact accounting.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .oracle import OracleCircuit, SimulationError, TableOracleHandle, prep_calls_per_oracle
from .statevec import require_count, require_fits

DIFFUSION_PREP_CALLS = 4  # two (V, W) pairs per Grover iteration


def require_growth(name: str, lam: float) -> None:
    """Refuse a growth factor outside (1, 4/3] (NaN included)."""
    if not 1.0 < lam <= 4.0 / 3.0:
        raise SimulationError(f"{name} must be in (1, 4/3], got {lam!r}")


@dataclass(frozen=True)
class SearchConfig:
    """Growth factor, per-threshold failure budget, and the run seed."""

    lam: float = 1.2
    max_rounds: int = 30
    seed: int = 0

    def __post_init__(self):
        require_growth("growth factor", self.lam)
        require_count("max_rounds", self.max_rounds)
        require_count("seed", self.seed, low=0)


@dataclass(eq=False)
class SearchResult:
    found: int | None
    rounds: int
    iterations: int


@dataclass(eq=False)
class KMaxResult:
    top_k: frozenset
    rounds: list  # (y, y' or None) per threshold round
    oracle_queries: int
    data_prep_queries: int
    queries_to_solution: int | None  # first time A matches the true top-k
    iterations: int
    search_rounds: int
    seed: int
    M: int = 0

    def trace_json(self) -> str:
        """One machine-readable line per trial for downstream plotting."""
        return json.dumps({
            "seed": self.seed,
            "M": self.M,
            "k": len(self.top_k),
            "rounds": [[y, found] for y, found in self.rounds],
            "oracle_queries": self.oracle_queries,
            "top_k": sorted(int(i) for i in self.top_k),
        })


def grover_search_unknown(oracle: TableOracleHandle | OracleCircuit, cfg: SearchConfig,
                          rng: np.random.Generator) -> SearchResult:
    """Find one index with f(index) = 1, or fail after max_rounds rounds."""
    m = 1.0
    cap = math.sqrt(oracle.M)
    iterations = 0
    for rounds in range(1, cfg.max_rounds + 1):
        r = int(rng.integers(0, max(int(math.ceil(m)), 1)))
        measured = oracle.run_round(r, rng)
        iterations += r
        if oracle.evaluate(measured):
            return SearchResult(measured, rounds, iterations)
        m = min(cfg.lam * m, cap)
    return SearchResult(None, cfg.max_rounds, iterations)


class TableBackend:
    """Oracle factory over a fixed similarity table (the abstract backend).

    ``values`` is the quantized (or raw, for pure scaling studies) table, 1-D
    and finite: a NaN would sort first and keep ``is_top_k`` false forever.
    ``prep_calls`` is the V+W call count of one oracle application, zero
    when the table has no associated circuit width. The table must not change
    after construction: ``is_top_k`` sorts it once, so each call sorts only
    A's k values and compares them with the table's k largest as lists.
    """

    def __init__(self, values: np.ndarray, b: int | None = None):
        self.values = np.asarray(values)
        if self.values.ndim != 1:
            raise SimulationError(f"search table must be 1-D, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise SimulationError("search table holds a non-finite value")
        self.prep_calls = sum(prep_calls_per_oracle(b).values()) if b is not None else 0
        self._descending = None  # the table sorted once, on the first is_top_k

    def oracle_for(self, y: int, A: frozenset) -> TableOracleHandle:
        return TableOracleHandle(self.values, y, A)

    def is_top_k(self, A: set) -> bool:
        """Whether A's values are the table's len(A) largest, as a multiset."""
        if self._descending is None:
            self._descending = np.sort(self.values)[::-1]
        mine = sorted(self.values[list(A)].tolist(), reverse=True)
        return self._descending[:len(A)].tolist() == mine

    @property
    def M(self) -> int:
        return len(self.values)


class CircuitBackend(TableBackend):
    """Oracle factory running the assembled circuit on the register machine;
    ``values`` is the quantized table that sets thresholds and checks top-k."""

    def __init__(self, assemble, values: np.ndarray, b: int):
        super().__init__(values, b)
        self._assemble = assemble  # (y, A) -> OracleCircuit

    def oracle_for(self, y: int, A: frozenset) -> OracleCircuit:
        return self._assemble(y, frozenset(A))

    # an entry of this class's own, so that the benchmark tracer, which wraps
    # methods through each class's __dict__, finds and counts it here too
    is_top_k = TableBackend.is_top_k


def k_maxima(backend, k: int, M: int | None = None,
             cfg: SearchConfig = SearchConfig()) -> KMaxResult:
    """Argmin-threshold k-maxima: grow A until no outside index beats min(A).
    ``M``, when given, must be the backend's table size."""
    if M is not None and M != backend.M:
        raise SimulationError(f"M = {M} does not match the backend's {backend.M} entries")
    M = backend.M
    require_count("k", k, high=M)
    rng = np.random.default_rng(cfg.seed)
    A = set(int(i) for i in rng.choice(M, size=k, replace=False))
    trace: list = []
    oracle_queries = 0
    iterations = 0
    search_rounds = 0
    queries_to_solution = 0 if backend.is_top_k(A) else None
    while True:
        y = min(A, key=lambda i: (backend.values[i], i))
        res = grover_search_unknown(backend.oracle_for(y, frozenset(A)), cfg, rng)
        oracle_queries += res.iterations + res.rounds
        iterations += res.iterations
        search_rounds += res.rounds
        if res.found is None:
            trace.append((y, None))
            break
        A.remove(y)
        A.add(res.found)
        trace.append((y, res.found))
        if queries_to_solution is None and backend.is_top_k(A):
            queries_to_solution = oracle_queries
    data_prep = oracle_queries * backend.prep_calls + iterations * DIFFUSION_PREP_CALLS
    return KMaxResult(frozenset(A), trace, oracle_queries, data_prep,
                      queries_to_solution, iterations, search_rounds, cfg.seed, M)


# --- scaling studies -----------------------------------------------------------


@dataclass(eq=False)
class ScalingRow:
    M: int
    k: int
    trials: int
    mean_queries: float
    std_queries: float
    mean_queries_to_solution: float
    success_rate: float


def require_sizes(M_values) -> list:
    """A sweep's table sizes as a list; an empty sweep or a size that is not
    a count >= 1 is refused before anything is seeded or allocated."""
    M_values = list(M_values)
    if not M_values:
        raise SimulationError("M_values must hold at least one table size")
    for M in M_values:
        require_count("M", M)
    return M_values


def scaling_experiment(M_values, k: int, trials: int,
                       cfg: SearchConfig = SearchConfig(),
                       trace_sink: list | None = None) -> list[ScalingRow]:
    """Mean oracle queries of full k-maxima runs over random distinct tables.

    ``trace_sink``, when given, receives one JSON line per trial. A table
    above 2**MAX_QUBITS entries is refused before any is allocated.
    """
    require_count("trials", trials)
    M_values = require_sizes(M_values)
    require_fits(f"a table of M={max(M_values)} entries", max(M_values), 8)
    rows = []
    root = np.random.SeedSequence(cfg.seed)
    for M in M_values:
        seeds = root.spawn(trials)
        queries, to_solution, hits = [], [], 0
        for trial_seq in seeds:
            trial_rng = np.random.default_rng(trial_seq)
            table = trial_rng.random(M)
            run_cfg = replace(cfg, seed=int(trial_rng.integers(0, 2 ** 31)))
            backend = TableBackend(table)
            res = k_maxima(backend, k, M, run_cfg)
            if trace_sink is not None:
                trace_sink.append(res.trace_json())
            queries.append(res.oracle_queries)
            to_solution.append(res.queries_to_solution
                               if res.queries_to_solution is not None
                               else res.oracle_queries)
            hits += backend.is_top_k(set(res.top_k))
        rows.append(ScalingRow(M, k, trials, float(np.mean(queries)),
                               float(np.std(queries)), float(np.mean(to_solution)),
                               hits / trials))
    return rows


def fit_loglog_slope(sizes, means) -> float:
    """Least-squares slope of log(mean queries) against log(M); finite only
    over two or more distinct sizes with finite positive means."""
    if len(set(sizes)) < 2 or not all(0 < m < math.inf for m in means):
        raise SimulationError(f"no log-log slope over M = {', '.join(map(str, sizes))}: "
                              f"needs two distinct M and mean queries > 0, got {list(means)}")
    coeffs = np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                        np.log(np.asarray(means, dtype=float)), 1)
    return float(coeffs[0])
