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

from qknn_sim import cli, invariants
from qknn_sim.cli import CSV_HEADER, RunConfig, main, make_parser, parse_config_file
from qknn_sim.oracle import OracleCircuit, build_J
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


def test_classify_exits_1_on_a_search_marginal_the_draw_refuses(monkeypatch, tmp_path, capsys):
    """A NaN search marginal in circuit-exact classify is refused before the
    draw, as rng.choice refuses it: the CLI exits 1 with an error line."""
    corpus = _make_corpus(tmp_path, "2q-sep-vs-ent", per_class=3)
    monkeypatch.setattr(OracleCircuit, "marginal",
                        lambda self, r: np.array([np.nan, 0.5, 0.25, 0.25]))
    assert run_cli(["classify", "--corpus", str(corpus), "--mode", "circuit-exact",
                    "--k", "1", "--b", "2", "--split", "0.67"]) == 1
    assert "error: search marginal contains NaN" in capsys.readouterr().err


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


def test_bench_appends_the_sqrt_k_trend(tmp_path, capsys):
    """After its rows and slopes, bench writes the mean queries to solution
    at M = 256 for k = 1, 2, 4, 8 and their worst deviation from c*sqrt(k)."""
    out = tmp_path / "b.csv"
    assert run_cli(["bench", "--M", "16,32", "--trials", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[5].startswith("# fitted_slope_to_solution=")
    assert [line.split(" mean")[0] for line in lines[6:10]] == [
        f"# sqrt_k M=256 k={k}" for k in (1, 2, 4, 8)]
    assert lines[10].startswith("# sqrt_k_max_rel_dev=") and len(lines) == 11
    assert "sqrt(k) max relative deviation at M=256: " in capsys.readouterr().out


def test_entanglement_csv(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert run_cli(["entanglement", "--per-class", "5", "--seeds", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:2] == [CSV_HEADER, "scheme,classical,quantum,agreement"]
    assert [line.split(",")[0] for line in lines[2:]] == [
        "2q-sep-vs-ent", "2q-sep-vs-maxent", "3q-five-class"]
    assert "3q-five-class: classical " in capsys.readouterr().out


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
    """A line without '=', and a value with a NUL byte (which no path may
    hold), exit 1."""
    cfg = tmp_path / "bad.cfg"
    assert parse_config_file.__name__ == "parse_config_file"
    for text in ("this is not a key value line\n", "out = a\0b\n"):
        cfg.write_text(text)
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
    assert "M in {2, 4, 8}, n <= 2, log2(M) <= b <= 3" in capsys.readouterr().err


@pytest.mark.parametrize("per_class,split,b", [(1, "0.5", "2"), (5, "0.8", "2")])
def test_classify_circuit_exact_refuses_outside_its_rule(tmp_path, capsys, per_class,
                                                         split, b):
    """A 1-state train split, and an 8-state one at b = 2 (log2(M) > b), exit 1
    with the rule circuit-exact accepts."""
    corpus = _make_corpus(tmp_path, scheme="2q-sep-vs-ent", per_class=per_class)
    assert run_cli(["classify", "--corpus", str(corpus), "--mode", "circuit-exact",
                    "--k", "1", "--b", b, "--split", split]) == 1
    assert "M in {2, 4, 8}, n <= 2, log2(M) <= b <= 3" in capsys.readouterr().err


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("lamda = 1.3\n")
    assert run_cli(["bench", "--M", "16", "--trials", "1", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "lamda" in err and "valid keys:" in err and "lam" in err


@pytest.mark.parametrize("line,key,value,expected", [
    ("k = 1.5", "k", "1.5", "int"),
    ("lam = abc", "lam", "abc", "float"),
])
def test_config_value_of_wrong_type_names_file_key_and_type(line, key, value, expected,
                                                            tmp_path, capsys):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(["bench", "--M", "16", "--trials", "1", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and repr(key) in err and repr(value) in err and expected in err


def test_config_duplicate_key_exits_1_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("M = 4\n# comment\nM = 8\n")
    out = tmp_path / "b.csv"
    assert run_cli(["bench", "--trials", "1", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:3" in err and "'M'" in err and "line 1" in err
    assert not out.exists()


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    """Exit 2 is for bugs in qknn-sim itself: any exception that is not bad
    input, a ValueError among them."""
    for error in (RuntimeError, ValueError):
        def broken(cfg):
            raise error("boom")
        monkeypatch.setitem(cli._COMMANDS, "verify", (broken, cli._COMMANDS["verify"][1]))
        assert run_cli(["verify"]) == 2
        assert capsys.readouterr().err.startswith("runtime error: boom")


@pytest.mark.parametrize("flag", ["--corpus", "--config"])
def test_undecodable_file_exits_1_naming_it(tmp_path, capsys, flag):
    """A corpus or config file that is not text is bad input: exit 1 with
    one error line that names the file."""
    path = tmp_path / "binary.dat"
    path.write_bytes(b"\xff\xfe\x00 = 1\n")
    assert run_cli(["classify", flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a text file") and err.count("\n") == 1


def test_output_path_that_is_a_directory_exits_1(tmp_path, capsys):
    assert run_cli(["bench", "--M", "16", "--trials", "1", "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def exit_code(args):
    try:
        return run_cli(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


SLOPE_FIT_FAILURES = [
    ["discriminate", "--M", "1,2", "--n", "1", "--trials", "2"],   # zero mean queries at M=1
    ["bench", "--M", "1,2", "--k", "1", "--trials", "2"],
    ["discriminate", "--M", "1,1", "--n", "1", "--trials", "1"],   # one distinct M
]


@pytest.mark.parametrize("args", [
    ["bench", "--trials", "0"],
    ["discriminate", "--trials", "0"],
    ["bench", "--k", "0"],
    ["discriminate", "--n", "-1"],
    ["bench", "--M", "16,0"],
    ["gen-data", "--per-class", "-1"],
    ["bench", "--M", "-2,3"],      # argparse reads -2,3 as a flag
    ["bench", "--trials", "x"],
    *SLOPE_FIT_FAILURES,
    ["bench", "--M", "x"],
    *[[cmd, "--seed", "-1"] for cmd in ("bench", "discriminate", "gen-data", "verify")],
    ["entanglement", "--seeds", "0"],
    ["entanglement", "--per-class", "0"],
    ["entanglement", "--k", "0"],
    ["entanglement", "--b", "1"],
    ["entanglement", "--per-class", "1"],   # 2 states: the split leaves no test state
])
def test_bad_counts_exit_1(args, capsys):
    """Bad input prints nothing on stdout and one error line on stderr (after
    argparse's usage line). A sweep whose slope cannot be fitted has printed
    its rows by then; test_failed_slope_fit_keeps_the_rows covers it."""
    assert exit_code(args) == 1
    out, err = capsys.readouterr()
    assert "error" in err
    if args not in SLOPE_FIT_FAILURES:
        assert out == "" and len([line for line in err.splitlines() if "error:" in line]) == 1
    if "--seed" in args:
        assert "--seed must be >= 0" in err


@pytest.mark.parametrize("args,named", [
    (["bench", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["entanglement", "--seeds", "0"], "--seeds must be >= 1, got 0"),
], ids=["bench-trials", "entanglement-seeds"])
def test_empty_work_exits_1_naming_the_setting(args, named, capsys):
    assert exit_code(args) == 1
    assert capsys.readouterr().err == f"error: {named}\n"


def test_budget_rounds_refusal_names_the_flag(capsys):
    """It used to be refused by SearchConfig as "max_rounds must be >= 1"."""
    assert exit_code(["bench", "--budget-rounds", "0"]) == 1
    assert capsys.readouterr().err == "error: --budget-rounds must be >= 1, got 0\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_lambda_refusal_names_the_flag(source, tmp_path, capsys):
    """It used to be refused by SearchConfig as "growth factor must be in
    (1, 4/3]", whether the value came from --lambda or a config file's lam."""
    args = ["bench", "--M", "16", "--trials", "2"]
    if source == "flag":
        args += ["--lambda", "2"]
    else:
        (tmp_path / "run.cfg").write_text("lam = 2\n")
        args += ["--config", str(tmp_path / "run.cfg")]
    assert exit_code(args) == 1
    assert capsys.readouterr().err == "error: --lambda must be in (1, 4/3], got 2.0\n"


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


@given(cmd=st.sampled_from(["bench", "discriminate", "entanglement"]), trials=st.integers(-2, 3),
       k=st.integers(-2, 3), n=st.integers(-2, 3),
       M=st.lists(st.integers(-2, 8), min_size=1, max_size=3),
       per_class=st.integers(-1, 4), seeds=st.integers(-1, 2), b=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_small_integer_arguments_never_exit_2(cmd, trials, k, n, M, per_class, seeds, b):
    sweep = [f"--trials={trials}", "--M=" + ",".join(map(str, M)), "--seed=0"]
    args = [cmd, *{"bench": [f"--k={k}", *sweep], "discriminate": [f"--n={n}", *sweep],
                   "entanglement": [f"--per-class={per_class}", f"--k={k}",
                                    f"--seeds={seeds}", f"--b={b}"]}[cmd]]
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
    "entanglement": {"per_class", "k", "b", "seeds", "out"},
}
SETTINGS = [f.name for f in fields(RunConfig)]


def unread(cmds, settings):
    return [(cmd, [flag(s), "1"]) for cmd in cmds for s in settings if s not in READS[cmd]]


def flag(setting):
    return "--lambda" if setting == "lam" else "--" + setting.replace("_", "-")


def test_help_lists_only_the_settings_read(capsys):
    for cmd, reads in READS.items():
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        offered = set(re.findall(r"(--[\w-]+)", capsys.readouterr().out))
        assert offered == {flag(s) for s in reads} | {"--help", "--config"}, cmd


# cases are appended, never inserted, so that each keeps its id
FIRST_COMMANDS = [cmd for cmd in READS if cmd != "entanglement"]


@pytest.mark.parametrize("cmd,args", [
    *unread(FIRST_COMMANDS, [s for s in SETTINGS if s != "seeds"]),
    ("bench", ["--budget", "3"]),       # abbreviates --budget-rounds
    ("bench", ["--b", "9"]),            # would abbreviate --budget-rounds
    ("bench", ["--lam", "1.3"]),        # abbreviates --lambda
    ("gen-data", ["--per", "3"]),       # abbreviates --per-class
    *unread(FIRST_COMMANDS, ["seeds"]),
    *unread(["entanglement"], SETTINGS),
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
    (["gen-data", "--scheme", "2q-sep-vs-ent", "--per-class", str(2 ** 22)],
     f"per-class={2 ** 22} states"),
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
