"""The experiment loops, each written once and shared by the ``qknn-sim``
subcommands (``bench``, ``discriminate``, ``entanglement``) and the acceptance
tests (criteria 6, 7 and 8), so that the seeds, splits and statistics of an
experiment are defined in one place."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import datasets, kmax, qadc, qknn
from .statevec import SimulationError, require_count

SQRT_K_M = 256
SQRT_K_VALUES = (1, 2, 4, 8)


def split_corpus(corpus: datasets.LabeledStateCorpus, split: float,
                 seed: int) -> tuple[qknn.TrainSet, np.ndarray, list[int]]:
    """(train set, test indices, search seeds): the first round(len * split)
    states of a seeded permutation train, the rest test, and test state i
    searches with the i-th child of SeedSequence(seed)."""
    order = np.random.default_rng(seed).permutation(len(corpus))
    cut = int(round(len(corpus) * split))
    if cut < 1 or cut >= len(corpus):
        raise SimulationError("split leaves an empty train or test side")
    train = qknn.TrainSet(corpus.states[order[:cut]], [corpus.labels[i] for i in order[:cut]])
    seeds = [int(seq.generate_state(1)[0] % 2 ** 31)
             for seq in np.random.SeedSequence(seed).spawn(len(order) - cut)]
    return train, order[cut:], seeds


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
    cfg = qadc.PrecisionConfig(b)
    acc_c, acc_q, agree, points = [], [], 0, 0
    for seed in seeds:
        corpus = datasets.gen_corpus(scheme, per_class, seed=1000 + seed)
        train, test_idx, search_seeds = split_corpus(corpus, 0.9, seed)
        hits_c = hits_q = 0
        for idx, search_seed in zip(test_idx, search_seeds):
            state, truth = corpus.states[idx], corpus.labels[idx]
            c = qknn.classical_knn(state, train, k, b=b)
            q = qknn.qknn_classify(state, train, k, cfg, kmax.SearchConfig(seed=search_seed))
            hits_c += c.label == truth
            hits_q += q.label == truth
            agree += c.label == q.label
            points += 1
        acc_c.append(hits_c / len(test_idx))
        acc_q.append(hits_q / len(test_idx))
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
    for M in kmax.require_sizes(m_values):
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


def query_slopes(rows: list[kmax.ScalingRow]) -> tuple[float, float]:
    """Log-log slopes of (total, to-solution) mean queries against M."""
    sizes = [r.M for r in rows]
    return (kmax.fit_loglog_slope(sizes, [r.mean_queries for r in rows]),
            kmax.fit_loglog_slope(sizes, [r.mean_queries_to_solution for r in rows]))


@dataclass(eq=False)
class ScalingStudy:
    rows: list             # kmax.ScalingRow per M, at fixed k
    k_means: list          # mean queries to solution per SQRT_K_VALUES at M = SQRT_K_M
    k_max_rel_dev: float   # worst relative deviation of k_means from a fitted c*sqrt(k)


def scaling_study(m_values, k: int, trials: int, search: kmax.SearchConfig,
                  trace_sink: list | None = None) -> ScalingStudy:
    """k-maxima over random tables, ``trials`` per point: the M sweep at fixed
    k with ``search`` (traced into ``trace_sink``), then k = 1, 2, 4, 8 at
    M = 256 with its seed + 101. The caller fits the slopes (``query_slopes``)."""
    rows = kmax.scaling_experiment(m_values, k, trials, search, trace_sink)
    k_search = replace(search, seed=search.seed + 101)
    k_means = [kmax.scaling_experiment([SQRT_K_M], kk, trials, k_search)[0].mean_queries_to_solution
               for kk in SQRT_K_VALUES]
    coeff = sum(q * math.sqrt(kk) for q, kk in zip(k_means, SQRT_K_VALUES)) / sum(SQRT_K_VALUES)
    rel = max(abs(q - coeff * math.sqrt(kk)) / (coeff * math.sqrt(kk))
              for q, kk in zip(k_means, SQRT_K_VALUES))
    return ScalingStudy(rows, k_means, rel)
