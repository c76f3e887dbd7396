"""Command-line surface: outputs, determinism, validation, exit codes."""
import contextlib
import io
import json
import re
import shlex
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknn_sim import invariants
from qknn_sim.cli import CSV_HEADER, RunConfig, main, make_parser, parse_config_file
from qknn_sim.oracle import build_J
from qknn_sim.statevec import pauli_x


def run_cli(args):
    return main(args)


def test_gen_data_counts_and_byte_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(["gen-data", "--scheme", "2q-sep-vs-ent", "--per-class", "20",
                    "--seed", "9", "--out", str(out1)]) == 0
    printed = capsys.readouterr().out
    assert "separable: 20" in printed and "entangled: 20" in printed
    assert run_cli(["gen-data", "--scheme", "2q-sep-vs-ent", "--per-class", "20",
                    "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_data_bad_output_path_exits_1(capsys):
    code = main(["gen-data", "--per-class", "5", "--scheme", "2q-sep-vs-ent",
                 "--out", "/nonexistent-dir/x.jsonl"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_gen_data_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["gen-data", "--scheme", "4q-magic"])


def _make_corpus(tmp_path, scheme="2q-sep-vs-maxent", per_class=40, seed=3):
    path = tmp_path / "corpus.jsonl"
    assert run_cli(["gen-data", "--scheme", scheme, "--per-class", str(per_class),
                    "--seed", str(seed), "--out", str(path)]) == 0
    return path


def test_classify_classical_output_format(tmp_path, capsys):
    corpus = _make_corpus(tmp_path)
    out = tmp_path / "result.csv"
    assert run_cli(["classify", "--corpus", str(corpus), "--mode", "classical",
                    "--k", "3", "--b", "12", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "test_id,true_label,predicted,queries,mode"
    assert lines[-1].startswith("# accuracy=")
    assert "accuracy:" in capsys.readouterr().out
    for row in lines[2:-1]:
        fields = row.split(",")
        assert len(fields) == 5 and fields[4] == "classical"


def test_classify_modes_agree_on_quantized_table(tmp_path):
    corpus = _make_corpus(tmp_path, per_class=30)
    out_c = tmp_path / "classical.csv"
    out_q = tmp_path / "quantum.csv"
    common = ["--corpus", str(corpus), "--k", "3", "--b", "12", "--seed", "4"]
    assert run_cli(["classify", *common, "--mode", "classical", "--out", str(out_c)]) == 0
    assert run_cli(["classify", *common, "--mode", "oracle-abstract",
                    "--out", str(out_q)]) == 0

    def predictions(path):
        rows = [l for l in path.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("test_id")]
        return {r.split(",")[0]: r.split(",")[2] for r in rows}

    assert predictions(out_c) == predictions(out_q)


def test_classify_k_larger_than_train_exits_1(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, per_class=3)
    code = run_cli(["classify", "--corpus", str(corpus), "--k", "50",
                    "--mode", "classical", "--seed", "0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_classify_missing_corpus_exits_1(capsys):
    assert run_cli(["classify", "--corpus", "/does/not/exist.jsonl"]) == 1


def test_verify_report_is_valid_json_and_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    names = {c["name"] for c in report["invariants"]}
    assert "swap_test_probability_law" in names
    assert all("max_deviation" in c and "tolerance" in c for c in report["invariants"])


def test_verify_fault_injection_fails_named_invariant(tmp_path, monkeypatch):
    def negated_J(a_qubits, b_qubits, out, chain):
        circ = build_J(a_qubits, b_qubits, out, chain)
        circ.append(pauli_x(out))
        return circ

    # only the registry's J check sees the fault; the assembled oracle keeps the real J
    monkeypatch.setattr(invariants, "build_J", negated_J)
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--seed", "0", "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    failing = [c["name"] for c in report["invariants"] if not c["pass"]]
    assert failing == ["comparator_J_exhaustive_b3"]


def test_bench_csv_and_determinism(tmp_path):
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    args = ["bench", "--M", "16,32", "--k", "1", "--trials", "20", "--seed", "5"]
    assert run_cli([*args, "--out", str(out1)]) == 0
    assert run_cli([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("M,k,trials,")
    assert any(l.startswith("# fitted_slope_to_solution=") for l in lines)


def test_discriminate_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli(["discriminate", "--M", "8", "--n", "2", "--trials", "10",
                    "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and lines[1].startswith("M,n,trials,")
    fields = lines[2].split(",")
    assert fields[0] == "8" and float(fields[3]) == 1.0


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment defaults\nper-class = 7\nseed = 11\n")
    out = tmp_path / "c.jsonl"
    assert run_cli(["gen-data", "--scheme", "2q-sep-vs-ent", "--config", str(cfg),
                    "--out", str(out)]) == 0
    assert "separable: 7" in capsys.readouterr().out
    # flag overrides the file
    assert run_cli(["gen-data", "--scheme", "2q-sep-vs-ent", "--config", str(cfg),
                    "--per-class", "4", "--out", str(out)]) == 0
    assert "separable: 4" in capsys.readouterr().out


def test_config_file_parser_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    assert parse_config_file.__name__ == "parse_config_file"
    code = run_cli(["gen-data", "--scheme", "2q-sep-vs-ent", "--config", str(cfg)])
    assert code == 1


def test_bench_emits_per_trial_traces(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--M", "16", "--k", "2", "--trials", "5",
                    "--seed", "2", "--out", str(out)]) == 0
    traces = (tmp_path / "bench.csv.traces.jsonl").read_text().splitlines()
    assert len(traces) == 5
    for line in traces:
        obj = json.loads(line)
        assert set(obj) == {"seed", "M", "k", "rounds", "oracle_queries", "top_k"}


def test_classify_rejects_non_finite_amplitudes(tmp_path, capsys):
    corpus = _make_corpus(tmp_path, per_class=5)
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    records[3]["amplitudes"][0][0] = float("nan")
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run_cli(["classify", "--corpus", str(corpus), "--k", "1"]) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("hostile", [
    {"scheme": "2q-sep-vs-ent"},                  # a second scheme
    {"label": "banana"},                          # not a class of the scheme
    {"amplitudes": [[1.0, 0.0], [0.0, 0.0]]},     # 2 amplitudes among 4
    {"amplitudes": [1.0, 0.0, 0.0, 0.0]},         # not [re, im] pairs
    {"amplitudes": None},
    {"amplitudes": [[3.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},  # norm 3
])
def test_classify_rejects_inconsistent_corpus_record(tmp_path, capsys, hostile):
    corpus = _make_corpus(tmp_path, per_class=5)
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    records[3].update(hostile)
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run_cli(["classify", "--corpus", str(corpus), "--k", "1"]) == 1
    assert f"{corpus}:4: " in capsys.readouterr().err


def test_classify_rejects_wrong_amplitude_count_for_scheme(tmp_path, capsys):
    """A 2-qubit scheme whose records all hold 3 normalized amplitudes."""
    corpus = _make_corpus(tmp_path, scheme="2q-sep-vs-ent", per_class=5)
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    for rec in records:
        amps = np.array([complex(re, im) for re, im in rec["amplitudes"][:3]])
        amps /= np.linalg.norm(amps)
        rec["amplitudes"] = [[a.real, a.imag] for a in amps]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run_cli(["classify", "--corpus", str(corpus), "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert f"{corpus}:1: 3 amplitudes" in err


@pytest.mark.parametrize("mode", ["classical", "oracle-abstract"])
@pytest.mark.parametrize("b", ["0", "31"])
def test_classify_rejects_precision_bits_out_of_range(tmp_path, capsys, mode, b):
    """Both table paths refuse the same --b; at b = 0 every quantized value
    would be 0 and the neighbors simply the lowest indices."""
    corpus = _make_corpus(tmp_path, per_class=5)
    assert run_cli(["classify", "--corpus", str(corpus), "--mode", mode,
                    "--k", "1", "--b", b]) == 1
    assert "precision bits must be in [2, 30]" in capsys.readouterr().err


def test_classify_circuit_exact_runs_on_a_two_qubit_corpus(tmp_path):
    """A 2q corpus with a 4-state train split (6 records, split 0.67) is
    within the circuit-exact cap: the run exits 0 and writes the CSV."""
    corpus = _make_corpus(tmp_path, scheme="2q-sep-vs-ent", per_class=3)
    out = tmp_path / "circuit.csv"
    assert run_cli(["classify", "--corpus", str(corpus), "--mode", "circuit-exact",
                    "--k", "1", "--b", "2", "--split", "0.67", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and lines[-1].startswith("# accuracy=")
    rows = lines[2:-1]
    assert rows and all(row.split(",")[4] == "circuit-exact" for row in rows)


def test_classify_circuit_exact_refuses_three_qubit_states(tmp_path, capsys):
    """3q states are past the n <= 2 cap: exit 1 naming the cap."""
    corpus = _make_corpus(tmp_path, scheme="3q-five-class", per_class=2)
    assert run_cli(["classify", "--corpus", str(corpus), "--mode", "circuit-exact",
                    "--k", "1", "--b", "2", "--split", "0.8"]) == 1
    assert "M <= 8, n <= 2, b <= 3" in capsys.readouterr().err


@pytest.mark.parametrize("per_class,split,b", [(1, "0.5", "2"), (5, "0.8", "2")])
def test_classify_circuit_exact_refuses_outside_its_rule(tmp_path, capsys, per_class,
                                                         split, b):
    """A 1-state train split, and an 8-state one at b = 2 (log2(M) > b), exit 1
    with the rule circuit-exact accepts."""
    corpus = _make_corpus(tmp_path, scheme="2q-sep-vs-ent", per_class=per_class)
    assert run_cli(["classify", "--corpus", str(corpus), "--mode", "circuit-exact",
                    "--k", "1", "--b", b, "--split", split]) == 1
    assert "M <= 8, n <= 2, b <= 3, with 2 <= M <= 2**b" in capsys.readouterr().err


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("lamda = 1.3\n")
    assert run_cli(["bench", "--M", "16", "--trials", "1", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "lamda" in err and "valid keys:" in err and "lam" in err


def test_output_path_that_is_a_directory_exits_1(tmp_path, capsys):
    assert run_cli(["bench", "--M", "16", "--trials", "1", "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def exit_code(args):
    try:
        return run_cli(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.mark.parametrize("args", [
    ["bench", "--trials", "0"],
    ["discriminate", "--trials", "0"],
    ["bench", "--k", "0"],
    ["discriminate", "--n", "-1"],
    ["bench", "--M", "16,0"],
    ["gen-data", "--per-class", "-1"],
    ["bench", "--M", "-2,3"],      # argparse reads -2,3 as a flag
    ["bench", "--trials", "x"],
    ["discriminate", "--M", "1,2", "--n", "1", "--trials", "2"],   # zero mean queries at M=1
    ["bench", "--M", "1,2", "--k", "1", "--trials", "2"],
    ["discriminate", "--M", "1,1", "--n", "1", "--trials", "1"],   # one distinct M
])
def test_bad_counts_exit_1(args, capsys):
    assert exit_code(args) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,extra", [("discriminate", ["--n", "1"]), ("bench", ["--k", "1"])])
def test_failed_slope_fit_keeps_the_rows(cmd, extra, tmp_path, capsys):
    """A sweep whose slope cannot be fitted exits 1 naming the M values, and
    its --out file still holds the per-M rows (bench also keeps its traces)."""
    out = tmp_path / "d.csv"
    assert exit_code([cmd, "--M", "1,2", "--trials", "2", *extra, "--out", str(out)]) == 1
    assert "M = 1, 2" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 4
    assert [line.split(",")[0] for line in lines[2:]] == ["1", "2"]
    if cmd == "bench":
        assert len((tmp_path / "d.csv.traces.jsonl").read_text().splitlines()) == 4


@given(cmd=st.sampled_from(["bench", "discriminate"]), trials=st.integers(-2, 3),
       k=st.integers(-2, 3), n=st.integers(-2, 3),
       M=st.lists(st.integers(-2, 8), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_small_integer_arguments_never_exit_2(cmd, trials, k, n, M):
    size = f"--k={k}" if cmd == "bench" else f"--n={n}"
    args = [cmd, f"--trials={trials}", size, "--M=" + ",".join(map(str, M)), "--seed=0"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(args) in (0, 1)


# the settings each subcommand reads; it offers these flags and no others
READS = {
    "gen-data": {"scheme", "per_class", "seed", "out"},
    "classify": {"corpus", "mode", "k", "b", "split", "seed", "budget_rounds", "lam", "out"},
    "verify": {"seed", "out"},
    "bench": {"M", "k", "trials", "seed", "budget_rounds", "lam", "out"},
    "discriminate": {"M", "n", "trials", "seed", "budget_rounds", "lam", "out"},
}
SETTINGS = [f.name for f in fields(RunConfig) if f.name != "subcommand"]


def flag(setting):
    return "--lambda" if setting == "lam" else "--" + setting.replace("_", "-")


def test_help_lists_only_the_settings_read(capsys):
    for cmd, reads in READS.items():
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        offered = set(re.findall(r"(--[\w-]+)", capsys.readouterr().out))
        assert offered == {flag(s) for s in reads} | {"--help", "--config"}, cmd


@pytest.mark.parametrize("cmd,args", [
    *[(cmd, [flag(s), "1"]) for cmd in READS for s in SETTINGS if s not in READS[cmd]],
    ("bench", ["--budget", "3"]),       # abbreviates --budget-rounds
    ("bench", ["--b", "9"]),            # would abbreviate --budget-rounds
    ("bench", ["--lam", "1.3"]),        # abbreviates --lambda
    ("gen-data", ["--per", "3"]),       # abbreviates --per-class
])
def test_unread_settings_and_abbreviations_exit_1(cmd, args, capsys):
    assert exit_code([cmd, *args]) == 1
    assert f"unrecognized arguments: {args[0]}" in capsys.readouterr().err


def test_config_file_serves_every_subcommand(tmp_path, capsys):
    """Keys a subcommand does not read are ignored, even values it would refuse."""
    cfg = tmp_path / "all.cfg"
    cfg.write_text("per-class = 3\nn = 0\nsplit = 5\nscheme = 3q-five-class\nk = 1\n")
    out = tmp_path / "b.csv"
    assert run_cli(["bench", "--M", "16", "--trials", "2", "--config", str(cfg),
                    "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2].startswith("16,1,2,")
    assert run_cli(["discriminate", "--M", "4", "--trials", "1", "--config", str(cfg)]) == 1
    assert "--n must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["nan", "inf", "0", "1", "-0.5"])
def test_classify_split_outside_unit_interval_exits_1(split, tmp_path, capsys):
    assert run_cli(["classify", "--corpus", str(tmp_path / "unread.jsonl"),
                    "--split", split]) == 1
    assert "--split must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("args,named", [
    (["discriminate", "--M", "2,4", "--n", "40", "--trials", "1"], "M=2 states on n=40 qubits"),
    (["discriminate", "--M", "2", "--n", "26", "--trials", "1"], "M=2 states on n=26 qubits"),
    (["bench", "--M", "20000000000", "--trials", "1"], "M=20000000000 entries"),
])
def test_sizes_beyond_memory_exit_1_before_allocation(args, named, capsys):
    assert exit_code(args) == 1
    err = capsys.readouterr().err
    assert named in err and "MiB" in err


def test_readme_command_lines_parse():
    """Every qknn-sim line in README's code blocks is accepted by the parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("qknn-sim ")]
    assert len(lines) >= 6
    for line in lines:
        make_parser().parse_args(shlex.split(line, comments=True)[1:])
