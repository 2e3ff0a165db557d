"""Benchmark harness: run one workload in this process, measure it, check
its outputs and report every metric by name with its unit.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Without tracing the metrics
are END_TO_END; with tracing they are layers.PER_LAYER. A fuller record,
with the environment and the workload's own metric names, is written to
out/<workload>/BENCH_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import layers
from spans import Tracer, write_jsonl
from workloads import WORKLOADS, Pass, Workload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "pass_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "state_bytes": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# set-up is repeated at least SETUP_MIN times and, while the repeats so far
# took under SETUP_BUDGET_S in total, up to SETUP_MAX times: a set-up of a
# few milliseconds needs many repeats for a steady median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 50, 2.0
TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile that has
    at least `beyond` samples above it."""
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1]


class Ops:
    """Counts operations: set-ups, timed passes and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def attempt(self, label: str, fn):
        """Run fn; any exception marks the operation failed and gives None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"operation failed: {label}", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, label: str, fn) -> None:
        ok = self.attempt(label, fn)
        if ok is False:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)
        self.checks[label] = self.checks.get(label, True) and ok is True


def run_passes(workload: Workload, state, seed: int, seconds: float, out_dir: str,
               ops: Ops) -> list[Pass]:
    """Closed loop, one caller: passes back to back until `seconds` have
    gone by, at least one; each pass's checks run after its timing."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        done = ops.attempt("pass", lambda: workload.run_pass(state, seed, out_dir))
        if done is not None:
            for label, check in done.checks.items():
                ops.check(label, check)
            passes.append(done)
        elif time.perf_counter() - start >= seconds:
            break
    if not passes:
        raise SystemExit("no timed pass completed")
    return passes


def setup(workload: Workload, seed: int, out_dir: str, ops: Ops):
    start = time.perf_counter()
    state = ops.attempt("setup", lambda: workload.setup(seed, out_dir))
    if state is None:
        raise SystemExit("set-up failed")
    return state, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(passes: list[Pass], setup_seconds: list[float]) -> dict[str, float]:
    return {
        "pass_s": statistics.median(p.seconds for p in passes),
        "op_p50_ms": 1e3 * statistics.median(s for p in passes for s in p.op_seconds),
        "op_tail_ms": 1e3 * statistics.median(tail(p.op_seconds)[1] for p in passes),
        "state_bytes": passes[-1].model.state_size_bytes(),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_seconds),
    }


def named_metrics(kind: str, e2e: dict, passes: list[Pass], ops: Ops) -> dict:
    """The end-to-end metrics under the names the workload's users know,
    with the accuracy, which repeats exactly for a seed."""
    if kind == "stream":
        own = {
            "stream_s": (e2e["pass_s"], "s"),
            "session_p50_s": (e2e["op_p50_ms"] / 1e3, "s"),
            "session_tail_s": (e2e["op_tail_ms"] / 1e3, "s"),
            "avg_acc": (passes[-1].accuracy, "share"),
            "bwt": (passes[-1].bwt, "share"),
        }
    else:
        own = {
            "predict_samples_per_s": (sum(p.samples for p in passes)
                                      / sum(p.seconds for p in passes), "samples/s"),
            "batch_p50_ms": (e2e["op_p50_ms"], "ms"),
            "batch_tail_ms": (e2e["op_tail_ms"], "ms"),
            "shuffled_acc": (passes[-1].accuracy, "share"),
        }
    return {
        **own,
        "state_bytes": (e2e["state_bytes"], "B"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "setup_s": (e2e["setup_s"], "s"),
        "ops_failed_share": (ops.failed / ops.attempted, "share"),
    }


def environment(blas_threads: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas = {}
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def execute(name: str, seed: int, seconds: float, trace: bool, blas_threads: str,
            workload: Workload | None = None, out_root: str = OUT_DIR) -> dict:
    """Run one workload and return its full record (also written to disk)."""
    workload = workload or WORKLOADS[name]
    out_dir = os.path.join(out_root, name)
    os.makedirs(out_dir, exist_ok=True)
    ops = Ops()
    record: dict = {"workload": name, "why": workload.why, "seed": seed,
                    "seconds": seconds, "trace": int(trace),
                    "environment": environment(blas_threads)}
    if trace:
        tracer = Tracer()
        with tracer:
            layers.install(tracer)
            state, traced_seconds = setup(workload, seed, out_dir, ops)
        untraced = run_passes(workload, state, seed, seconds, out_dir, ops)
        with tracer:
            layers.install(tracer)
            start = time.perf_counter()
            traced = run_passes(workload, state, seed, 0.0, out_dir, ops)[0]
            traced_seconds += time.perf_counter() - start
        untraced_s = statistics.median(p.seconds for p in untraced)
        values = layers.layer_metrics(tracer.spans, traced.model, traced_seconds,
                                      traced.seconds - untraced_s)
        metrics = {k: (values[k], unit) for k, (unit, _) in layers.PER_LAYER.items()}
        write_jsonl(os.path.join(out_dir, "spans.jsonl"), tracer.spans)
        record.update(metrics=metrics, spans=len(tracer.spans),
                      untraced_pass_s=[p.seconds for p in untraced],
                      traced_pass_s=traced.seconds)
    else:
        setup_seconds = []
        while len(setup_seconds) < SETUP_MIN or (
                len(setup_seconds) < SETUP_MAX and sum(setup_seconds) < SETUP_BUDGET_S):
            state, took = setup(workload, seed, out_dir, ops)
            setup_seconds.append(took)
        passes = run_passes(workload, state, seed, seconds, out_dir, ops)
        e2e = end_to_end(passes, setup_seconds)
        percentile, _ = tail(passes[0].op_seconds)
        metrics = {k: (e2e[k], unit) for k, (unit, _) in END_TO_END.items()}
        record.update(
            metrics=metrics,
            named_metrics=named_metrics(workload.kind, e2e, passes, ops),
            tail={"percentile": percentile, "samples_per_pass": len(passes[0].op_seconds),
                  "passes": len(passes)},
            pass_s=[p.seconds for p in passes],
            setup_s=setup_seconds,
        )
    record.update(correct=ops.failed == 0, attempted=ops.attempted, failed=ops.failed,
                  checks=ops.checks)
    with open(os.path.join(out_dir, f"BENCH_{name}.json"), "w") as f:
        json.dump(record, f, indent=2, default=float)
        f.write("\n")
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines: environment, every metric with its unit, checks."""
    env = record["environment"]
    lines = [
        f"workload {record['workload']}: seed {record['seed']}, "
        f"{record['seconds']:g} s, trace {record['trace']}",
        "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
    ]
    shown = record.get("named_metrics", record["metrics"])
    for name, (value, unit) in shown.items():
        lines.append(f"  {name:<40} {value!r:>24} {unit}")
    if "tail" in record:
        t = record["tail"]
        lines.append(f"  tail = p{t['percentile']:.1f} of {t['samples_per_pass']} "
                     f"operations per pass, median over {t['passes']} pass(es)")
    lines.append("checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                                        for k, v in record["checks"].items()))
    return lines


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    })


def run_suite(args, script: str) -> int:
    """Every workload, each in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, script, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd).returncode
        if code != 0:
            print(f"{name}: exited with code {code}", file=sys.stderr)
            status = 1
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload; without it every workload runs, "
                        "each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=8.0,
                   help="measure passes until this many seconds have gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, script: str, blas_threads: str) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_suite(args, script)
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace), blas_threads)
    print("\n".join(describe(record)))
    print(result_line(record))
    return 0
