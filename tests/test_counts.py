"""One rule for counts: every library entry point refuses a count that is not
an integer, naming the argument, and accepts numpy integers."""
import re

import numpy as np
import pytest

from qknn_sim import datasets, experiments
from qknn_sim.kmax import SearchConfig, TableBackend, k_maxima, scaling_experiment
from qknn_sim.qadc import PrecisionConfig
from qknn_sim.qknn import TrainSet, classical_knn, qknn_classify
from qknn_sim.statevec import SimulationError, require_count

TRAIN = TrainSet(np.eye(4, dtype=complex), ["A", "B", "A", "B"])
TEST = np.array([1, 0, 0, 0], dtype=complex)

# (argument name as the refusal names it, the entry point called with count v);
# every call runs in well under a second at v = 2
ENTRY_POINTS = {
    "SearchConfig max_rounds": ("max_rounds", lambda v: SearchConfig(max_rounds=v)),
    "SearchConfig seed": ("seed", lambda v: SearchConfig(seed=v)),
    "PrecisionConfig": ("precision bits", lambda v: PrecisionConfig(v)),
    "k_maxima": ("k", lambda v: k_maxima(TableBackend(np.array([0.1, 0.2, 0.3])), v)),
    "classical_knn": ("k", lambda v: classical_knn(TEST, TRAIN, v, b=3)),
    "qknn_classify": ("k", lambda v: qknn_classify(TEST, TRAIN, v, PrecisionConfig(3))),
    "scaling_experiment trials": ("trials", lambda v: scaling_experiment([4], 1, v)),
    "scaling_experiment M": ("M", lambda v: scaling_experiment([v], 1, 2)),
    "discrimination_sweep trials": (
        "trials", lambda v: experiments.discrimination_sweep([2], 1, v, SearchConfig())),
    "discrimination_sweep M": (
        "M", lambda v: experiments.discrimination_sweep([v], 1, 2, SearchConfig())),
    "gen_class": ("count", lambda v: datasets.gen_class("2q-sep-vs-ent", "separable", v, 0)),
    "gen_corpus": ("per_class", lambda v: datasets.gen_corpus("2q-sep-vs-ent", v, 0)),
    "gen_discrimination_instance M": ("M", lambda v: datasets.gen_discrimination_instance(v, 1, 0)),
    "gen_discrimination_instance n": ("n", lambda v: datasets.gen_discrimination_instance(2, v, 0)),
}


@pytest.mark.parametrize("value", [1.5, True, np.float64(2.0)], ids=["1.5", "True", "float64"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_refuse_a_count_that_is_not_an_integer(entry, value):
    """1.5 used to end in a raw TypeError (or be truncated), and True ran as 1."""
    name, call = ENTRY_POINTS[entry]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_accept_numpy_integer_counts(entry):
    ENTRY_POINTS[entry][1](np.int64(2))


def test_require_count_bounds():
    require_count("k", np.int32(3), high=3)
    require_count("seed", 0, low=0)
    require_count("precision bits", -5, low=None)
    with pytest.raises(SimulationError, match=r"^k must be >= 1, got 0$"):
        require_count("k", 0, high=3)
    with pytest.raises(SimulationError, match=r"^k must be <= 3, got 4$"):
        require_count("k", np.int64(4), high=3)
    with pytest.raises(SimulationError, match=r"^seed must be an integer, got np\.True_$"):
        require_count("seed", np.bool_(True), low=0)


@pytest.mark.parametrize("call", [
    lambda: k_maxima(TableBackend(np.array([0.1, 0.2, 0.3])), 4),
    lambda: classical_knn(TEST, TRAIN, 5, b=3),
    lambda: qknn_classify(TEST, TRAIN, 5, PrecisionConfig(3), mode="circuit-exact"),
], ids=["k_maxima", "classical_knn", "qknn_classify circuit-exact"])
def test_k_above_the_table_size_is_refused_naming_k(call):
    with pytest.raises(SimulationError, match=r"^k must be <= \d, got \d$"):
        call()


def test_scaling_experiment_refuses_a_fractional_table_size():
    """M = 16.5 used to run, and be reported, as M = 16."""
    with pytest.raises(SimulationError, match=r"^M must be an integer, got 16\.5$"):
        scaling_experiment([16.5], 1, 2)


@pytest.mark.parametrize("states,labels,message", [
    (np.zeros((0, 2), dtype=complex), [], "empty train set"),
    ([], [], "empty train set"),
    (np.eye(2, dtype=complex), ["A"], "states/labels shape mismatch"),
    ([1, 0], ["A"], "states/labels shape mismatch"),
    (np.eye(3, dtype=complex)[:2], ["A", "B"], "train states hold 3 amplitudes"),
    (np.ones((2, 1), dtype=complex), ["A", "B"], "train states hold 1 amplitudes"),
    ([[1, 0], [1]], ["A", "B"], "train states must be equal-length rows"),
], ids=["empty", "empty list", "labels short", "1-D", "width 3", "width 1", "ragged"])
def test_trainset_refuses_a_set_of_the_wrong_shape(states, labels, message):
    """A width of 3 used to be taken as n = 2 and failed later inside
    circuit-exact; ragged rows raised numpy's ValueError."""
    with pytest.raises(SimulationError, match=message):
        TrainSet(states, labels)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_trainset_n_is_exact(n):
    assert TrainSet(np.eye(2 ** n, dtype=complex)[:2], ["A", "B"]).n == n
