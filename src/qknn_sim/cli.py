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

from . import datasets, experiments, invariants, kmax, qadc, qknn
from .statevec import SimulationError

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


def _write_lines(path: str | None, lines: list[str], mode: str = "w") -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, mode) as fh:
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
    _write_lines(cfg.out, lines)  # rows and traces first: a failed fit keeps them
    if cfg.out:
        _write_lines(cfg.out + ".traces.jsonl", traces)
    if len(rows) >= 2:
        slope_total, slope_sol = experiments.query_slopes(rows)
        _write_lines(cfg.out, [f"# fitted_slope_total={slope_total:.4f}",
                               f"# fitted_slope_to_solution={slope_sol:.4f}"], "a")
        print(f"fitted slope (queries to solution): {slope_sol:.4f}")
    return 0


def cmd_discriminate(cfg: RunConfig) -> int:
    rows = experiments.discrimination_sweep(cfg.m_values(), cfg.n, cfg.trials,
                                            cfg.search_config())
    lines = [CSV_HEADER, "M,n,trials,success_rate,mean_queries,std_queries"]
    for r in rows:
        lines.append(f"{r.M},{cfg.n},{cfg.trials},{r.success_rate:.4f},{r.mean_queries:.4f},"
                     f"{r.std_queries:.4f}")
        print(f"M={r.M}: success {r.success_rate:.3f}, mean queries {r.mean_queries:.1f}")
    _write_lines(cfg.out, lines)  # rows first: a failed fit keeps them
    if len(rows) >= 2:
        slope = kmax.fit_loglog_slope([r.M for r in rows], [r.mean_queries for r in rows])
        _write_lines(cfg.out, [f"# fitted_slope={slope:.4f}"], "a")
        print(f"fitted slope: {slope:.4f}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    checks = invariants.verify(cfg.seed)
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
        p.add_argument("--b", type=int, help="similarity register bits, in [2, 30]")
        p.add_argument("--mode", choices=("classical", "oracle-abstract", "circuit-exact"),
                       help="circuit-exact is limited to M <= 4, n <= 1, b <= 3, which no "
                            "corpus scheme meets (all have n >= 2): API use only for now")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--budget-rounds", dest="budget_rounds", type=int)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--out")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--corpus", help="corpus JSONL path (classify)")
        p.add_argument("--per-class", dest="per_class", type=int)
        p.add_argument("--split", type=float)
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
