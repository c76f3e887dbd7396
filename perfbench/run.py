#!/usr/bin/env python3
"""qknn-sim benchmark: one workload per process, one result line.

    python3 perfbench/run.py --workload {entanglement,sweep,circuit} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from ``--seed``; every operation's output is
checked against a reference the benchmark computes itself.

``--trace 0`` measures the end-to-end metrics with tracing off. Operations
run in a closed loop, one at a time, until ``--seconds`` have passed and at
least the workload's fixed digest prefix is done; set-up is repeated three
times and reported as a median. The gated times (setup_s, ops_per_s,
op_ms.p50) are scaled to a nominal host speed with a reference kernel timed
between operations (see hostclock.py); the raw wall-clock figures are
printed and recorded beside them. ``--trace 1`` runs the same operations
twice, first untraced for half of ``--seconds``, then the same number
traced, and reports the per-layer metrics plus the tracing overhead.

The last stdout line is JSON with the keys correct, attempted, failed and
metrics. The full record (environment, output digest, misses) is written to
``perfbench/results/``; traced runs also write their spans there.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
BLAS_THREADS = 1  # one Python thread per workload; BLAS pinned alike for steady timings
SETUP_REPEATS = 3
MAX_TRACEBACKS = 3

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the numpy import


def import_program() -> tuple[float, float]:
    """Import numpy and qknn_sim from this checkout; return (start, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    t = time.perf_counter()
    import numpy  # noqa: F401
    import qknn_sim
    import qknn_sim.datasets  # noqa: F401
    elapsed = time.perf_counter() - t
    if not Path(qknn_sim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"qknn_sim was imported from {qknn_sim.__file__}, "
                          f"not from this checkout's src/")
    return t, elapsed


@dataclass(eq=False)
class OpRun:
    times: list = field(default_factory=list)      # seconds per operation
    starts: list = field(default_factory=list)     # perf_counter at each operation's start
    norm_times: list = field(default_factory=list)  # times scaled to the nominal host
    outcomes: list = field(default_factory=list)   # workloads.Outcome per operation
    failed: int = 0
    misses: int = 0


def run_ops(wl, inputs, clock, seconds: float, min_ops: int, max_ops: int | None = None,
            tracer=None) -> OpRun:
    """Closed loop over inputs.ops (cycling) until ``seconds`` have passed and
    ``min_ops`` are done, or until ``max_ops``. Only the call into qknn_sim
    is timed; checks and reference samples run outside the timed region."""
    from workloads import Outcome

    run = OpRun()
    ops = inputs.ops
    start = time.perf_counter()
    i = 0
    while (i < min_ops or time.perf_counter() - start < seconds) and (
            max_ops is None or i < max_ops):
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        clock.tick()
        t = time.perf_counter()
        run.starts.append(t)
        try:
            out = wl.run(inputs, op)
        except Exception as exc:  # an operation that raises is failed; keep measuring
            run.times.append(time.perf_counter() - t)
            clock.tick()
            if run.failed < MAX_TRACEBACKS:
                traceback.print_exc()
            outcome = Outcome("fail", ["raised", type(exc).__name__], 0)
        else:
            run.times.append(time.perf_counter() - t)
            clock.tick()
            if tracer is not None:
                tracer.paused = True
            outcome = wl.check(inputs, op, out)
            if tracer is not None:
                tracer.paused = False
        run.failed += outcome.status == "fail"
        run.misses += outcome.status == "miss"
        run.outcomes.append(outcome)
        i += 1
    if tracer is not None:
        tracer.op_id = -1
    clock.sample()
    run.norm_times = [clock.normalize(s, x) for s, x in zip(run.starts, run.times)]
    return run


def timed_setup(wl, seed: int, clock) -> tuple:
    """wl.setup(seed), timed in the segments between its ticks, with reference
    samples taken at the ticks; returns (inputs, raw seconds, normalized seconds)."""
    segments = []
    clock.sample()
    start = time.perf_counter()

    def tick():
        nonlocal start
        segments.append((start, time.perf_counter() - start))
        clock.tick()
        start = time.perf_counter()

    inputs = wl.setup(seed, tick)
    segments.append((start, time.perf_counter() - start))
    clock.sample()
    return (inputs, sum(x for _, x in segments),
            sum(clock.normalize(s, x) for s, x in segments))


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def output_digest(outcomes) -> str:
    """sha256 over each operation's prediction, top-k set and oracle queries."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(outcome.record, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, *, tiny: bool = False,
            ops: int | None = None, import_span: tuple = (0.0, 0.0),
            started: float | None = None) -> dict:
    """Untraced run: the end-to-end metrics. ``ops`` fixes the operation count;
    ``import_span`` is import_program's (start, seconds); ``started`` is the
    perf_counter reading at process start, for wall_s."""
    import workloads
    from hostclock import NOMINAL_S, HostClock

    begun = time.perf_counter()
    wl = workloads.WORKLOADS[workload](tiny)
    clock = HostClock()
    for _ in range(5):  # the import is timed once, so scale it by a burst of samples
        clock.sample()
    import_s = clock.normalize(*import_span)
    inputs, raw, norm = timed_setup(wl, seed, clock)
    setup_raw, setup_norm = [raw], [norm]
    n_digest = inputs.digest_ops
    run = run_ops(wl, inputs, clock, 0 if ops else seconds, ops or n_digest, ops)
    last_result = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(SETUP_REPEATS - 1):
        _, raw, norm = timed_setup(wl, seed, clock)
        setup_raw.append(raw)
        setup_norm.append(norm)
    digested = run.outcomes[:n_digest]
    ms = [1000.0 * x for x in run.norm_times]
    raw_ms = [1000.0 * x for x in run.times]
    metrics = {
        "setup_s": import_s + statistics.median(setup_norm),
        "ops_per_s": len(run.norm_times) / sum(run.norm_times),
        "op_ms.p50": percentile(ms, 50),
        "oracle_queries_per_op": sum(o.queries for o in digested) / len(digested),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {  # printed and recorded, not gated
        "wall_s": last_result - (started if started is not None else begun),
        "op_ms.p90": percentile(ms, 90),
        "host_scale": NOMINAL_S / statistics.median(clock.times),
        "raw.setup_s": import_span[1] + statistics.median(setup_raw),
        "raw.ops_per_s": len(run.times) / sum(run.times),
        "raw.op_ms.p50": percentile(raw_ms, 50),
        "raw.op_ms.p90": percentile(raw_ms, 90),
    }
    return {"run": run, "metrics": metrics, "info": info,
            "digest": output_digest(digested) if len(digested) == n_digest else None,
            "digest_ops": n_digest, "setup_times_s": setup_raw,
            "setup_times_normalized_s": setup_norm, "import_s": import_span[1],
            "reference_samples": len(clock.times)}


def measure_traced(workload: str, seed: int, seconds: float, *, tiny: bool = False,
                   ops: int | None = None, spans_path: Path | None = None) -> dict:
    """Traced run: untraced pass, then the same operations traced."""
    import workloads
    from hostclock import HostClock
    from tracing import Tracer

    wl = workloads.WORKLOADS[workload](tiny)
    clock = HostClock()
    inputs = wl.setup(seed)
    plain = run_ops(wl, inputs, clock, 0 if ops else seconds / 2, ops or 1, ops)
    n = len(plain.times)
    tracer = Tracer()
    tracer.install()
    try:
        inputs = wl.setup(seed)  # traced set-up feeds the datasets.* metrics
        traced = run_ops(wl, inputs, clock, 0, n, n, tracer)
    finally:
        tracer.uninstall()
    overhead_pct = 100.0 * (sum(traced.norm_times) - sum(plain.norm_times)) / sum(plain.norm_times)
    if spans_path is not None:
        tracer.write_spans(str(spans_path))
    metrics = tracer.layer_metrics(n, overhead_pct)
    run = OpRun(plain.times + traced.times, plain.starts + traced.starts,
                plain.norm_times + traced.norm_times, plain.outcomes + traced.outcomes,
                plain.failed + traced.failed, plain.misses + traced.misses)
    return {"run": run, "metrics": metrics, "digest": None, "ops_per_phase": n}


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["entanglement", "sweep", "circuit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        import_span = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import qknn_sim: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(BENCH))
    import catalog
    from workloads import MISS_CAP

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = measure_traced(args.workload, args.seed, args.seconds,
                             spans_path=RESULTS / f"{stem}-spans.npz")
        units = catalog.PER_LAYER_UNITS
    else:
        res = measure(args.workload, args.seed, args.seconds, import_span=import_span,
                      started=started)
        units = catalog.END_TO_END_UNITS
    run = res["run"]
    attempted = len(run.outcomes)
    correct = run.failed == 0 and run.misses <= MISS_CAP * attempted
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct, "attempted": attempted, "failed": run.failed,
        "misses": run.misses, "fail_ratio": f"{run.failed}/{attempted}",
        "miss_ratio": f"{run.misses}/{attempted}",
        "output_digest": res["digest"], "metrics": metrics,
        "op_seconds": [round(x, 7) for x in run.times],
        "op_seconds_normalized": [round(x, 7) for x in run.norm_times],
        **{k: v for k, v in res.items() if k not in ("run", "metrics", "digest")},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(record["environment"]))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "info" in res:
        info = res["info"]
        print(f"wall_s {info['wall_s']:.6g} s (process start to last result; not gated)")
        print(f"op_ms.p90 {info['op_ms.p90']:.6g} ms (over {attempted} operations; "
              f"not gated)")
        print(f"host_scale {info['host_scale']:.4g} (nominal over measured reference-kernel "
              f"time, median of {res['reference_samples']} samples)")
        print("wall-clock, not normalized: " + ", ".join(
            f"{k[4:]} {v:.6g}" for k, v in info.items() if k.startswith("raw.")))
    print(f"fail_ratio {run.failed}/{attempted} operations; "
          f"misses {run.misses}/{attempted} (cap {MISS_CAP:.0%})")
    print(f"output_digest {res['digest']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
