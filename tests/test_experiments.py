"""The study loops in ``experiments``: their outputs pinned byte for byte, and
the per-trial trace lines of the scaling study checked against their trials."""
import hashlib
import json

import numpy as np

from qknn_sim import experiments
from qknn_sim.cli import main
from qknn_sim.kmax import SearchConfig, TableBackend, k_maxima

ABSTRACT_CSV = """\
# qknn-sim v1
test_id,true_label,predicted,queries,mode
2,A-B-C,A-BC,42,oracle-abstract
6,AB-C,AC-B,40,oracle-abstract
24,ABC,ABC,42,oracle-abstract
4,A-B-C,AC-B,51,oracle-abstract
3,A-B-C,AB-C,46,oracle-abstract
12,A-BC,A-B-C,35,oracle-abstract
21,ABC,AB-C,45,oracle-abstract
14,A-BC,A-BC,38,oracle-abstract
# accuracy=0.250000
"""


def test_scaling_study_outputs_are_pinned():
    sink = []
    study = experiments.scaling_study([16, 32], 2, 10, SearchConfig(seed=5), sink)
    assert [(r.M, r.k, r.trials, r.mean_queries, r.std_queries, r.mean_queries_to_solution,
             r.success_rate) for r in study.rows] == [
        (16, 2, 10, 79.2, 6.477653896280659, 10.6, 1.0),
        (32, 2, 10, 113.3, 15.7419820861288, 24.2, 1.0)]
    assert study.k_means == [32.4, 65.5, 106.6, 162.6]
    assert study.k_max_rel_dev == 0.39107911265663725
    assert len(sink) == 20
    assert hashlib.sha256("\n".join(sink).encode()).hexdigest() == (
        "1d6681f02e574d4922f688e4b1686dea6ba1f0438fe01c2866102d197cec0e4d")


def test_classify_csv_at_non_default_search_settings_is_pinned(tmp_path, capsys):
    """--lambda and --budget-rounds reach every test state's search: at the
    defaults the same split reads 86 to 105 queries per test state."""
    corpus, out = tmp_path / "c.jsonl", tmp_path / "a.csv"
    assert main(["gen-data", "--scheme", "3q-five-class", "--per-class", "5", "--seed", "0",
                 "--out", str(corpus)]) == 0
    assert main(["classify", "--corpus", str(corpus), "--mode", "oracle-abstract", "--k", "3",
                 "--b", "6", "--split", "0.67", "--seed", "4", "--lambda", "1.25",
                 "--budget-rounds", "12", "--out", str(out)]) == 0
    assert out.read_text() == ABSTRACT_CSV
    assert "accuracy: 0.2500 over 8 test states (oracle-abstract)" in capsys.readouterr().out


def test_entanglement_experiment_row_is_pinned():
    row = experiments.entanglement_experiment("3q-five-class", 20, 3, 3, range(2))
    assert (row.classical, row.quantum, row.agreement) == (0.3, 0.4, 0.8)


def test_each_trace_line_reproduces_its_trial():
    """A line's seed, run on its trial's table (the trial's first draw, from
    the successive spawn(trials) children of SeedSequence(search.seed)), gives
    back the line's rounds, oracle_queries and top_k."""
    search = SearchConfig(lam=1.3, max_rounds=9, seed=2)
    sink = []
    experiments.scaling_study([16, 32], 2, 4, search, sink)
    root = np.random.SeedSequence(search.seed)
    tables = [np.random.default_rng(seq).random(M) for M in (16, 32) for seq in root.spawn(4)]
    assert len(sink) == len(tables)
    for line, table in zip(sink, tables):
        obj = json.loads(line)
        assert list(obj) == ["seed", "M", "k", "rounds", "oracle_queries", "top_k"]
        assert (obj["M"], obj["k"]) == (len(table), 2)
        res = k_maxima(TableBackend(table), 2, len(table),
                       SearchConfig(search.lam, search.max_rounds, obj["seed"]))
        assert obj["rounds"] == [[y, found] for y, found in res.rounds]
        assert obj["oracle_queries"] == res.oracle_queries
        assert obj["top_k"] == sorted(res.top_k)
