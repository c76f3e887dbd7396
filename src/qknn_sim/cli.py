"""Command-line entry point and experiment orchestration.

Subcommands: gen-data, classify, verify, bench, discriminate.
Config precedence is flags > config file > defaults; the config file is
plain ``key = value`` lines (same keys as the long flags, hyphens or
underscores), with ``#`` comments. All outputs are machine readable: JSON
lines for corpora and reports, CSV with a ``# qknn-sim v1`` header comment
for result tables. Exit codes: 0 ok, 1 validation error, 2 runtime error,
3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from . import datasets, experiments, kmax, oracle, qadc, qknn, subroutines
from .statevec import RegisterLayout, SimulationError, StateVector, pauli_x

CSV_HEADER = "# qknn-sim v1"


@dataclass
class RunConfig:
    """Every setting a subcommand reads; the field names are the config-file keys."""

    subcommand: str
    scheme: str = "2q-sep-vs-ent"
    M: str = "64"  # single value or comma-separated sweep
    n: int = 2
    k: int = 5
    b: int = 12
    mode: str = "classical"
    seed: int = 0
    trials: int = 100
    budget_rounds: int = 30
    lam: float = 1.2
    out: str | None = None
    corpus: str | None = None
    per_class: int = 100
    split: float = 0.9
    inject_fault: str | None = None

    def __post_init__(self):
        for name in ("n", "k", "trials", "per_class"):
            if getattr(self, name) < 1:
                raise SimulationError(f"--{name.replace('_', '-')} must be >= 1")
        sizes = self.m_values()
        if not sizes or min(sizes) < 1:
            raise SimulationError(f"--M needs table sizes >= 1, got {self.M!r}")

    def m_values(self) -> list[int]:
        try:
            return [int(v) for v in str(self.M).split(",") if v.strip()]
        except ValueError as exc:
            raise SimulationError(f"bad --M value {self.M!r}") from exc

    def search_config(self, seed: int | None = None) -> kmax.SearchConfig:
        return kmax.SearchConfig(self.lam, self.budget_rounds,
                                 self.seed if seed is None else seed)


def parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SimulationError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    types = {f.name: f.type for f in fields(RunConfig) if f.name != "subcommand"}
    keys = list(types)
    file_values = parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(keys))
    if unknown:
        raise SimulationError(f"{args.config}: unknown config key(s) {', '.join(unknown)}; "
                              f"valid keys: {', '.join(keys)}")
    merged = {}
    for key in keys:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
        elif key in file_values:
            merged[key] = {"int": int, "float": float}.get(types[key], str)(file_values[key])
    return RunConfig(args.subcommand, **merged)


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- subcommands -----------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig) -> int:
    if cfg.scheme not in datasets.SCHEMES:
        raise SimulationError(f"unknown scheme {cfg.scheme!r}; choose from {datasets.SCHEMES}")
    corpus = datasets.gen_corpus(cfg.scheme, cfg.per_class, cfg.seed)
    out = cfg.out or f"corpus_{cfg.scheme}.jsonl"
    datasets.write_corpus(corpus, out)
    counts = Counter(corpus.labels)
    for label in datasets.CLASSES[cfg.scheme]:
        print(f"{label}: {counts[label]}")
    print(f"wrote {len(corpus)} records to {out}")
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    if cfg.corpus is None:
        raise SimulationError("classify needs --corpus FILE")
    corpus = datasets.read_corpus(cfg.corpus)
    train, test_idx, search_seeds = experiments.split_corpus(corpus, cfg.split, cfg.seed)
    rows = [CSV_HEADER, "test_id,true_label,predicted,queries,mode"]
    hits = 0
    for idx, search_seed in zip(test_idx, search_seeds):
        state = corpus.states[idx]
        truth = corpus.labels[idx]
        if cfg.mode == "classical":
            result = qknn.classical_knn(state, train, cfg.k, b=cfg.b)
        else:
            result = qknn.qknn_classify(state, train, cfg.k, qadc.PrecisionConfig(cfg.b),
                                        cfg.search_config(search_seed), mode=cfg.mode)
        hits += result.label == truth
        rows.append(f"{idx},{truth},{result.label},{result.oracle_queries},{cfg.mode}")
    accuracy = hits / len(test_idx)
    _write_lines(cfg.out, rows + [f"# accuracy={accuracy:.6f}"])
    print(f"accuracy: {accuracy:.4f} over {len(test_idx)} test states ({cfg.mode})")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    traces: list = []
    rows = kmax.scaling_experiment(cfg.m_values(), cfg.k, cfg.trials, cfg.search_config(),
                                   trace_sink=traces)
    lines = [CSV_HEADER, "M,k,trials,mean_queries,std_queries,mean_queries_to_solution,success_rate"]
    for r in rows:
        lines.append(f"{r.M},{r.k},{r.trials},{r.mean_queries:.4f},{r.std_queries:.4f},"
                     f"{r.mean_queries_to_solution:.4f},{r.success_rate:.4f}")
    if len(rows) >= 2:
        slope_total, slope_sol = experiments.query_slopes(rows)
        lines.append(f"# fitted_slope_total={slope_total:.4f}")
        lines.append(f"# fitted_slope_to_solution={slope_sol:.4f}")
        print(f"fitted slope (queries to solution): {slope_sol:.4f}")
    _write_lines(cfg.out, lines)
    if cfg.out:
        _write_lines(cfg.out + ".traces.jsonl", traces)
    return 0


def cmd_discriminate(cfg: RunConfig) -> int:
    rows = experiments.discrimination_sweep(cfg.m_values(), cfg.n, cfg.trials,
                                            cfg.search_config())
    lines = [CSV_HEADER, "M,n,trials,success_rate,mean_queries,std_queries"]
    for r in rows:
        lines.append(f"{r.M},{cfg.n},{cfg.trials},{r.success_rate:.4f},{r.mean_queries:.4f},"
                     f"{r.std_queries:.4f}")
        print(f"M={r.M}: success {r.success_rate:.3f}, mean queries {r.mean_queries:.1f}")
    if len(rows) >= 2:
        slope = kmax.fit_loglog_slope([r.M for r in rows], [r.mean_queries for r in rows])
        lines.append(f"# fitted_slope={slope:.4f}")
        print(f"fitted slope: {slope:.4f}")
    _write_lines(cfg.out, lines)
    return 0


# --- verification suites ------------------------------------------------------------


def _check(name: str, deviation: float, tolerance: float) -> dict:
    return {"name": name, "max_deviation": float(deviation),
            "tolerance": tolerance, "pass": bool(deviation <= tolerance)}


def _suite_swap_test(rng: np.random.Generator, pairs: int) -> dict:
    layout = RegisterLayout.from_sizes([("train", 2), ("test", 2), ("B", 1)])
    worst = 0.0
    for _ in range(pairs):
        psi, phi = datasets.haar_random_state(2, rng), datasets.haar_random_state(2, rng)
        state = StateVector.zero_state(layout)
        state = state.apply_circuit(subroutines.make_V(phi, layout, register="train").circuit)
        state = state.apply_circuit(subroutines.make_V(psi, layout, register="test").circuit)
        out = subroutines.swap_test_apply(state, layout)
        F = abs(np.vdot(psi, phi)) ** 2
        worst = max(worst, abs(out.measure_probs("B")[0] - (1 + F) / 2))
    return _check("swap_test_probability_law", worst, 1e-10)


def _suite_hadamard_test(rng: np.random.Generator, pairs: int) -> dict:
    layout = RegisterLayout.from_sizes([("index", 1), ("data", 2), ("B", 1)])
    worst = 0.0
    for _ in range(pairs):
        v = datasets.haar_random_state(2, rng).real
        v /= np.linalg.norm(v)
        us = np.stack([datasets.haar_random_state(2, rng).real for _ in range(2)])
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        V = subroutines.make_V(v.astype(complex), layout, register="data")
        W = subroutines.make_W(us.astype(complex), layout, index="index", train="data")
        for j in range(2):
            state = StateVector.zero_state(layout)
            if j:
                state = state.apply(pauli_x(0))
            out = subroutines.hadamard_test_apply(state, layout, V, W)
            want = (1 + float(v @ us[j])) / 2
            got = float(out.collapse("index", j).measure_probs("B")[0])
            worst = max(worst, abs(got - want))
    return _check("hadamard_test_probability_law", worst, 1e-10)


def _suite_eigenstructure(rng: np.random.Generator, instances: int) -> dict:
    worst = 0.0
    for _ in range(instances):
        psi = datasets.haar_random_state(1, rng)
        phi = datasets.haar_random_state(1, rng)
        rep = subroutines.verify_eigendecomposition(psi, phi)
        if not rep.degenerate:
            worst = max(worst, rep.eigenphase_error, rep.decomposition_error)
    return _check("reflection_eigenstructure", worst, 1e-9)


def _suite_comparators(width: int, inject_fault: str | None) -> dict:
    worst = 0
    chain = tuple(range(2 * width + 1, 3 * width))
    circ = oracle.build_J(tuple(range(width)), tuple(range(width, 2 * width)),
                          2 * width, chain)
    if inject_fault == "comparator":
        circ.append(pauli_x(2 * width))  # negated comparator fixture
    nq = 3 * width
    for a in range(2 ** width):
        for b_val in range(2 ** width):
            x = a | (b_val << width)
            y = oracle.classical_action(circ, nq, x)
            got = (y >> (2 * width)) & 1
            ancilla_dirty = (y >> (2 * width + 1)) != 0 or (y & (2 ** (2 * width) - 1)) != x
            worst = max(worst, abs(got - (1 if a > b_val else 0)) + ancilla_dirty)
    return _check(f"comparator_J_exhaustive_b{width}", worst, 0)


def _suite_membership(m: int) -> dict:
    import itertools
    worst = 0
    iq, pq = tuple(range(m)), tuple(range(m, 2 * m))
    chain, tgt = tuple(range(2 * m, 3 * m)), 3 * m
    for size in (1, 2, 3):
        for A in itertools.combinations(range(2 ** m), size):
            circ = oracle.Circuit()
            for i in A:
                circ.extend(oracle.build_D(i, iq, pq, chain, tgt))
            for j in range(2 ** m):
                y = oracle.classical_action(circ, 3 * m + 1, j)
                chi = 1 if j in A else 0
                worst = max(worst, abs(((y >> (3 * m)) & 1) - chi)
                            + ((y & (2 ** (3 * m) - 1)) != j))
    return _check(f"membership_D_cascade_m{m}", worst, 0)


def _suite_oracle_equivalence() -> dict:
    cfg = qadc.PrecisionConfig(2)
    layout = oracle.oracle_layout(1, 1, 2)
    psi = np.array([1, 0], dtype=complex)
    phis = np.array([[1, 0], [0, 1]], dtype=complex)
    V = subroutines.make_V(psi, layout, register="test")
    W = subroutines.make_W(phis, layout)
    table = qadc.quantize_array(np.array([1.0, 0.0]), 2)
    worst = 0.0
    for y, A in [(0, frozenset({0})), (1, frozenset({1})), (1, frozenset({0, 1}))]:
        oc = oracle.assemble_O_yA(V, W, layout, cfg, y, A)
        handle = oracle.TableOracleHandle(table, y, A)
        for j in range(2):
            dist = oc.q3_distribution(j)
            expected = int(handle.f(j))
            worst = max(worst, abs(dist[expected] - 1.0))
    return _check("oracle_circuit_vs_abstract", worst, 1e-9)


def _suite_folding() -> dict:
    worst = 0
    for b in range(2, 9):
        table = qadc.arithmetic_table(qadc.PrecisionConfig(b))
        for t in range(2 ** b):
            worst = max(worst, abs(int(table[t]) - int(table[(2 ** b - t) % 2 ** b])))
    return _check("arithmetic_theta_folding", worst, 0)


def cmd_verify(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    checks = [
        _suite_swap_test(rng, 50),
        _suite_hadamard_test(rng, 25),
        _suite_eigenstructure(rng, 25),
        _suite_comparators(3, cfg.inject_fault),
        _suite_membership(2),
        _suite_oracle_equivalence(),
        _suite_folding(),
    ]
    report = {"invariants": checks, "all_pass": all(c["pass"] for c in checks)}
    text = json.dumps(report, indent=2)
    if cfg.out:
        _write_lines(cfg.out, [text])
    print(text)
    return 0 if report["all_pass"] else 3


# --- entry point ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is bad input: exit 1 (argparse would exit 2)."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qknn-sim", description="fidelity-based quantum kNN simulator")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("gen-data", "classify", "verify", "bench", "discriminate"):
        p = sub.add_parser(name)
        p.add_argument("--scheme", choices=datasets.SCHEMES)
        p.add_argument("--M", help="table size, or comma-separated sweep")
        p.add_argument("--n", type=int, help="qubits per state")
        p.add_argument("--k", type=int, help="number of neighbors")
        p.add_argument("--b", type=int, help="similarity register bits")
        p.add_argument("--mode", choices=("classical", "oracle-abstract", "circuit-exact"))
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--budget-rounds", dest="budget_rounds", type=int)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--out")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--corpus", help="corpus JSONL path (classify)")
        p.add_argument("--per-class", dest="per_class", type=int)
        p.add_argument("--split", type=float)
        p.add_argument("--inject-fault", dest="inject_fault",
                       choices=("comparator",), help=argparse.SUPPRESS)
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "discriminate": cmd_discriminate,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        return _COMMANDS[args.subcommand](cfg)
    except (SimulationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
