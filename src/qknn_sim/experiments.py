"""The study loops, each written once and shared by the ``qknn-sim``
subcommands (``classify``, ``bench``, ``discriminate``, ``entanglement``) and
the acceptance tests (criteria 6, 7 and 8), so that the seeds, splits and
statistics of a study are defined in one place."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import datasets, kmax, qadc, qknn
from .statevec import SimulationError, require_count, require_fits

SQRT_K_M = 256
SQRT_K_VALUES = (1, 2, 4, 8)
ENTANGLEMENT_SPLIT = 0.9  # each corpus's train share in criterion 8's experiment


def require_sizes(M_values) -> list:
    """A sweep's table sizes as a list; an empty sweep or a size that is not
    a count >= 1 is refused before anything is seeded or allocated."""
    M_values = list(M_values)
    if not M_values:
        raise SimulationError("M_values must hold at least one table size")
    for M in M_values:
        require_count("M", M)
    return M_values


def fit_loglog_slope(sizes, means) -> float:
    """Least-squares slope of log(mean queries) against log(M); finite only
    over two or more distinct sizes with finite positive means."""
    if len(set(sizes)) < 2 or not all(0 < m < math.inf for m in means):
        raise SimulationError(f"no log-log slope over M = {', '.join(map(str, sizes))}: "
                              f"needs two distinct M and mean queries > 0, got {list(means)}")
    coeffs = np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                        np.log(np.asarray(means, dtype=float)), 1)
    return float(coeffs[0])


def train_size(count: int, split: float) -> int:
    """The states a split of ``count`` trains on: round(count * split)."""
    return int(round(count * split))


def split_corpus(corpus: datasets.LabeledStateCorpus, split: float,
                 seed: int) -> tuple[qknn.TrainSet, np.ndarray, list[int]]:
    """(train set, test indices, search seeds): the first round(len * split)
    states of a seeded permutation train, the rest test, and test state i
    searches with the i-th child of SeedSequence(seed)."""
    order = np.random.default_rng(seed).permutation(len(corpus))
    cut = train_size(len(corpus), split)
    if cut < 1 or cut >= len(corpus):
        raise SimulationError("split leaves an empty train or test side")
    train = qknn.TrainSet(corpus.states[order[:cut]], [corpus.labels[i] for i in order[:cut]])
    seeds = [int(seq.generate_state(1)[0] % 2 ** 31)
             for seq in np.random.SeedSequence(seed).spawn(len(order) - cut)]
    return train, order[cut:], seeds


def classify_split(corpus: datasets.LabeledStateCorpus, split: float, seed: int, k: int,
                   b: int, modes, search: kmax.SearchConfig = kmax.SearchConfig()):
    """Yield (test index, true label, one ``Classification`` per mode) for each
    test state of ``split_corpus(corpus, split, seed)``, in test order. The
    quantum modes search with ``search`` at the test state's own seed."""
    train, test_idx, search_seeds = split_corpus(corpus, split, seed)
    for idx, search_seed in zip(test_idx, search_seeds):
        state = corpus.states[idx]
        yield idx, corpus.labels[idx], [
            qknn.classical_knn(state, train, k, b=b) if mode == "classical"
            else qknn.qknn_classify(state, train, k, qadc.PrecisionConfig(b),
                                    replace(search, seed=search_seed), mode=mode)
            for mode in modes]


@dataclass(eq=False)
class EntanglementRow:
    classical: float   # accuracy, mean over corpus seeds
    quantum: float
    agreement: float   # share of test states where both paths predict the same


def entanglement_experiment(scheme: str, per_class: int, k: int, b: int,
                            seeds) -> EntanglementRow:
    """Per seed s: a corpus with seed 1000 + s, a 90/10 split with seed s, and
    every test state classified by ``classical_knn`` and by oracle-abstract
    ``qknn_classify`` on the b-bit table."""
    seeds = list(seeds)
    if not seeds:
        raise SimulationError("seeds must hold at least one corpus seed")
    qadc.PrecisionConfig(b)  # refuses b before any corpus is drawn
    acc_c, acc_q, agree, points = [], [], 0, 0
    for seed in seeds:
        corpus = datasets.gen_corpus(scheme, per_class, seed=1000 + seed)
        results = list(classify_split(corpus, ENTANGLEMENT_SPLIT, seed, k, b,
                                      ("classical", "oracle-abstract")))
        acc_c.append(sum(c.label == truth for _, truth, (c, _) in results) / len(results))
        acc_q.append(sum(q.label == truth for _, truth, (_, q) in results) / len(results))
        agree += sum(c.label == q.label for _, _, (c, q) in results)
        points += len(results)
    return EntanglementRow(float(np.mean(acc_c)), float(np.mean(acc_q)), agree / points)


@dataclass(eq=False)
class DiscriminationRow:
    M: int
    hits: int
    success_rate: float
    mean_queries: float
    std_queries: float


def discrimination_sweep(m_values, n: int, trials: int,
                         search: kmax.SearchConfig) -> list[DiscriminationRow]:
    """``trials`` identifications of a promised state among M Haar states of
    n qubits, per M. Trial t draws its instance seed, then its search seed,
    from the t-th child of SeedSequence((search.seed, M)). Queries count up
    to the first moment the match is held (all queries if it never is)."""
    require_count("trials", trials)
    rows = []
    for M in require_sizes(m_values):
        hits, queries = 0, []
        for seq in np.random.SeedSequence((search.seed, M)).spawn(trials):
            rng = np.random.default_rng(seq)
            states, chosen = datasets.gen_discrimination_instance(
                M, n, int(rng.integers(0, 2 ** 31)))
            train = qknn.TrainSet(states, list(range(M)))
            trial = replace(search, seed=int(rng.integers(0, 2 ** 31)))
            found, res = qknn.discriminate(states[chosen], train, trial)
            hits += found == chosen
            queries.append(res.queries_to_solution
                           if res.queries_to_solution is not None else res.oracle_queries)
        rows.append(DiscriminationRow(M, hits, hits / trials, float(np.mean(queries)),
                                      float(np.std(queries))))
    return rows


@dataclass(eq=False)
class ScalingRow:
    M: int
    k: int
    trials: int
    mean_queries: float
    std_queries: float
    mean_queries_to_solution: float
    success_rate: float


def _scaling_point(M: int, k: int, seeds: list, search: kmax.SearchConfig,
                   trace_sink: list | None) -> ScalingRow:
    """One k-maxima run per SeedSequence in ``seeds``, on a random table of M
    entries drawn before its search seed; one JSON line per trial to ``trace_sink``."""
    queries, to_solution, hits = [], [], 0
    for trial_seq in seeds:
        trial_rng = np.random.default_rng(trial_seq)
        table = trial_rng.random(M)
        trial = replace(search, seed=int(trial_rng.integers(0, 2 ** 31)))
        backend = kmax.TableBackend(table)
        res = kmax.k_maxima(backend, k, M, trial)
        if trace_sink is not None:
            trace_sink.append(json.dumps({
                "seed": trial.seed, "M": len(table), "k": len(res.top_k),
                "rounds": [list(r) for r in res.rounds], "oracle_queries": res.oracle_queries,
                "top_k": sorted(int(i) for i in res.top_k)}))
        queries.append(res.oracle_queries)
        to_solution.append(res.queries_to_solution
                           if res.queries_to_solution is not None else res.oracle_queries)
        hits += backend.is_top_k(set(res.top_k))
    return ScalingRow(M, k, len(seeds), float(np.mean(queries)), float(np.std(queries)),
                      float(np.mean(to_solution)), hits / len(seeds))


def query_slopes(rows: list[ScalingRow]) -> tuple[float, float]:
    """Log-log slopes of (total, to-solution) mean queries against M."""
    sizes = [r.M for r in rows]
    return (fit_loglog_slope(sizes, [r.mean_queries for r in rows]),
            fit_loglog_slope(sizes, [r.mean_queries_to_solution for r in rows]))


@dataclass(eq=False)
class ScalingStudy:
    rows: list             # ScalingRow per M, at fixed k
    k_means: list          # mean queries to solution per SQRT_K_VALUES at M = SQRT_K_M
    k_max_rel_dev: float   # worst relative deviation of k_means from a fitted c*sqrt(k)


def scaling_study(m_values, k: int, trials: int, search: kmax.SearchConfig,
                  trace_sink: list | None = None) -> ScalingStudy:
    """k-maxima over random tables, ``trials`` per point: the M sweep at fixed k
    on successive spawn(trials) calls of SeedSequence(search.seed), traced into
    ``trace_sink``; then k = 1, 2, 4, 8 at M = 256, each on the first ``trials``
    children of SeedSequence(search.seed + 101). A table above 2**MAX_QUBITS
    entries is refused before any is allocated. The caller fits the slopes."""
    require_count("trials", trials)
    m_values = require_sizes(m_values)
    require_fits(f"a table of M={max(m_values)} entries", max(m_values), 8)
    root = np.random.SeedSequence(search.seed)
    rows = [_scaling_point(M, k, root.spawn(trials), search, trace_sink) for M in m_values]
    k_means = [_scaling_point(SQRT_K_M, kk, np.random.SeedSequence(search.seed + 101)
                              .spawn(trials), search, None).mean_queries_to_solution
               for kk in SQRT_K_VALUES]
    coeff = sum(q * math.sqrt(kk) for q, kk in zip(k_means, SQRT_K_VALUES)) / sum(SQRT_K_VALUES)
    rel = max(abs(q - coeff * math.sqrt(kk)) / (coeff * math.sqrt(kk))
              for q, kk in zip(k_means, SQRT_K_VALUES))
    return ScalingStudy(rows, k_means, rel)
