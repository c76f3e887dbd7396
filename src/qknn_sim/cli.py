"""Command-line entry point: settings, subcommands and output formatting.

Subcommands: gen-data, classify, verify, bench, discriminate, entanglement;
each offers only the settings it reads, and a study subcommand only formats
what its loop in ``experiments`` returns. Precedence is flags > config file >
defaults; the config file is ``key = value`` lines (any ``RunConfig`` field,
hyphens or underscores), with ``#`` comments. All outputs are machine readable:
JSON lines for corpora and reports, CSV with a ``# qknn-sim v1`` header comment
for result tables. Exit codes: 0 ok, 1 validation error, 2 runtime error, 3
verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, fields

from . import datasets, experiments, invariants, kmax, qadc, qknn
from .statevec import SimulationError, require_count

CSV_HEADER = "# qknn-sim v1"


@dataclass
class RunConfig:
    """Every setting; field names are the config-file keys, annotations the types."""

    scheme: str = "2q-sep-vs-ent"
    M: str = "64"  # single value or comma-separated sweep
    n: int = 2
    k: int = 5
    b: int = 12
    mode: str = "classical"
    seed: int = 0
    seeds: int = 1  # corpus seeds 0 .. seeds-1
    trials: int = 100
    budget_rounds: int = 30
    lam: float = 1.2
    out: str | None = None
    corpus: str | None = None
    per_class: int = 100
    split: float = 0.9

    def __post_init__(self):
        for name in ("n", "k", "trials", "per_class", "seeds", "budget_rounds"):
            require_count(_FLAGS[name], getattr(self, name))
        require_count(_FLAGS["seed"], self.seed, low=0)
        try:
            qadc.PrecisionConfig(self.b)
        except SimulationError as exc:
            raise SimulationError(f"{_FLAGS['b']}: {exc}") from None
        kmax.require_growth(_FLAGS["lam"], self.lam)
        sizes = self.m_values()
        if not sizes or min(sizes) < 1:
            raise SimulationError(f"--M needs table sizes >= 1, got {self.M!r}")
        if not 0 < self.split < 1:  # NaN fails too
            raise SimulationError("--split must be in (0, 1)")

    def m_values(self) -> list[int]:
        try:
            return [int(v) for v in str(self.M).split(",") if v.strip()]
        except ValueError as exc:
            raise SimulationError(f"bad --M value {self.M!r}") from exc

    def search_config(self) -> kmax.SearchConfig:
        return kmax.SearchConfig(self.lam, self.budget_rounds, self.seed)


def parse_config_file(path: str) -> dict:
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(datasets.text_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not (key and eq) or "\0" in line:  # open() refuses a path with a NUL
            raise SimulationError(f"{path}:{lineno}: expected key = value, no NUL byte")
        if key in first_line:
            raise SimulationError(f"{path}:{lineno}: key {key!r} is already set on "
                                  f"line {first_line[key]}")
        values[key], first_line[key] = val.strip(), lineno
    return values


_TYPES = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(RunConfig)}
_FLAGS = {key: "--" + key.replace("_", "-") for key in _TYPES} | {"lam": "--lambda"}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Flags over config file over defaults, for the subcommand's own settings."""
    file_values = parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_TYPES))
    if unknown:
        raise SimulationError(f"{args.config}: unknown config key(s) {', '.join(unknown)}; "
                              f"valid keys: {', '.join(_TYPES)}")
    merged = {}
    for key in _COMMANDS[args.subcommand][1]:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
        elif key in file_values:
            value = file_values[key]
            try:
                merged[key] = _TYPES[key](value)
            except ValueError:
                raise SimulationError(f"{args.config}: key {key!r} has value {value!r}, "
                                      f"expected {_TYPES[key].__name__}") from None
    return RunConfig(**merged)


def _write_lines(path: str | None, lines: list[str], mode: str = "w") -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, mode) as fh:
            fh.write(text)


# --- subcommands -----------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig) -> int:
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
    train = experiments.split_corpus(corpus, cfg.split, cfg.seed)[0]
    require_count(_FLAGS["k"], cfg.k, high=train.M)  # before any test state is classified
    results = list(experiments.classify_split(corpus, cfg.split, cfg.seed, cfg.k, cfg.b,
                                              (cfg.mode,), cfg.search_config()))
    accuracy = sum(r.label == truth for _, truth, (r,) in results) / len(results)
    _write_lines(cfg.out, [CSV_HEADER, "test_id,true_label,predicted,queries,mode",
                           *(f"{idx},{truth},{r.label},{r.oracle_queries},{cfg.mode}"
                             for idx, truth, (r,) in results),
                           f"# accuracy={accuracy:.6f}"])
    print(f"accuracy: {accuracy:.4f} over {len(results)} test states ({cfg.mode})")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    require_count(_FLAGS["k"], cfg.k, high=min(cfg.m_values()))
    traces = [] if cfg.out else None  # traced only where they are written
    study = experiments.scaling_study(cfg.m_values(), cfg.k, cfg.trials, cfg.search_config(),
                                      trace_sink=traces)
    rows = study.rows
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
    sqrt_k = [f"# sqrt_k M={experiments.SQRT_K_M} k={k} mean_queries_to_solution={mean:.4f}"
              for k, mean in zip(experiments.SQRT_K_VALUES, study.k_means)]
    _write_lines(cfg.out, sqrt_k + [f"# sqrt_k_max_rel_dev={study.k_max_rel_dev:.4f}"], "a")
    print(f"sqrt(k) max relative deviation at M={experiments.SQRT_K_M}: "
          f"{study.k_max_rel_dev:.4f}")
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
        slope = experiments.fit_loglog_slope([r.M for r in rows], [r.mean_queries for r in rows])
        _write_lines(cfg.out, [f"# fitted_slope={slope:.4f}"], "a")
        print(f"fitted slope: {slope:.4f}")
    return 0


def cmd_entanglement(cfg: RunConfig) -> int:
    smallest = min(len(datasets.CLASSES[s]) for s in datasets.SCHEMES) * cfg.per_class
    require_count(_FLAGS["k"], cfg.k,  # before any corpus is drawn
                  high=experiments.train_size(smallest, experiments.ENTANGLEMENT_SPLIT))
    lines = [CSV_HEADER, "scheme,classical,quantum,agreement"]
    for scheme in datasets.SCHEMES:
        r = experiments.entanglement_experiment(scheme, cfg.per_class, cfg.k, cfg.b,
                                                range(cfg.seeds))
        lines.append(f"{scheme},{r.classical:.4f},{r.quantum:.4f},{r.agreement:.4f}")
        print(f"{scheme}: classical {r.classical:.4f}, quantum {r.quantum:.4f}, "
              f"agreement {r.agreement:.4f}")
    _write_lines(cfg.out, lines)
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


# subcommand -> (handler, the settings it reads); make_parser offers exactly these
_COMMANDS = {
    "gen-data": (cmd_gen_data, "scheme per_class seed out".split()),
    "classify": (cmd_classify, "corpus mode k b split seed budget_rounds lam out".split()),
    "verify": (cmd_verify, "seed out".split()),
    "bench": (cmd_bench, "M k trials seed budget_rounds lam out".split()),
    "discriminate": (cmd_discriminate, "M n trials seed budget_rounds lam out".split()),
    "entanglement": (cmd_entanglement, "per_class k b seeds out".split()),
}

# argparse options beyond the flag name and type
_FLAG_OPTIONS = {
    "scheme": {"choices": datasets.SCHEMES},
    "M": {"help": "table size, or comma-separated sweep"},
    "n": {"help": "qubits per state"}, "k": {"help": "number of neighbors"},
    "b": {"help": "similarity register bits, in [2, 30]"},
    "mode": {"choices": ("classical", "oracle-abstract", "circuit-exact"),
             "help": f"circuit-exact is limited to {qknn.CIRCUIT_EXACT_RULE} "
                     "(M train states; the 2-qubit schemes)"},
    "corpus": {"help": "corpus JSONL path"},
    "seeds": {"help": "corpus seeds 0 .. seeds-1, one corpus each"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is bad input: exit 1 (argparse would exit 2)."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qknn-sim", description="fidelity-based quantum kNN simulator")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, settings) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # else bench --b would be --budget-rounds
        for key in settings:
            p.add_argument(_FLAGS[key], dest=key, type=_TYPES[key], **_FLAG_OPTIONS.get(key, {}))
        p.add_argument("--config", help="key = value config file")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        return _COMMANDS[args.subcommand][0](cfg)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug in qknn-sim itself
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
