"""The benchmark's ``entanglement`` workload runs criterion 8's split: a
change to ``experiments.split_corpus`` must not move the benchmark off the
train sets, test states and search seeds the acceptance test classifies."""
import numpy as np
from test_benchmark_workloads import _workloads

from qknn_sim import datasets, experiments


def test_entanglement_workload_operations_are_criterion_8_split():
    inputs = _workloads().Entanglement(tiny=True).setup(0)
    for s, scheme in enumerate(datasets.SCHEMES):
        corpus = datasets.gen_corpus(scheme, 20, seed=1000)
        train, test_idx, seeds = experiments.split_corpus(corpus, 0.9, 0)
        got_corpus, got_train = inputs.data["parts"][s]
        assert np.array_equal(got_corpus.states, corpus.states), scheme
        assert got_train.states.tobytes() == train.states.tobytes(), scheme
        assert got_train.labels == train.labels, scheme
        ops = sorted((idx, seed) for part, idx, seed in inputs.ops if part == s)
        assert ops == sorted(zip(test_idx.tolist(), seeds)), scheme
