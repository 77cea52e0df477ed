"""Benchmark of the pignistic decision pipeline.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (or, with ``all``, each workload in its own child process)
as a closed loop with one caller for ``--seconds``, checks every output
against independent references, prints each metric with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics as JSON: ``ops_per_s``
(completed operations per second over the run), ``peak_rss_mb`` (this
process's peak, the children's for ``cli-process``) and ``setup_s``, the
median of several set-ups, each a fresh interpreter importing the package
plus generating and building the inputs. ``failed_share`` and the p50, p90
and p99 latencies are printed above it, a percentile only where at least
ten samples lie beyond it.

``--trace 1`` runs the same loop half untraced and half with spans around
each public call (in alternating stretches), then a traced sweep over
every layer, and reports the per-layer metrics; spans go to
``.bench_out/``. A wrong answer exits 1; a checkout without
``src/pignistic`` exits 2 before anything is measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from program import PACKAGE, ROOT, MissingProgram, import_program

OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("decide-stream", "compare-wide", "prscp-solve", "cli-process")
SETUP_REPEATS = 5
WARMUP_OPS = 3
#: The traced run alternates untraced and traced stretches, so a change in
#: machine speed during the run falls on both sides of trace.overhead.
TRACE_SEGMENTS = 4
#: Spans of the traced loop written out; a 30-s decide-stream run records
#: over half a million.
SPANS_WRITTEN = 20_000
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: list[float], pct: float) -> float | None:
    """Nearest-rank percentile, or None when fewer than ``MIN_BEYOND``
    samples lie above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def source_loc() -> dict[str, int]:
    loc = {
        f"{path.stem}.loc": len(path.read_text().splitlines())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    return {"src.loc": sum(loc.values()), **loc}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, pg) -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pignistic": pg.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loc": source_loc(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_latency(loop) -> float:
    p50 = percentile(loop.latencies, 50)
    if p50 is None:
        raise RuntimeError(
            f"{loop.attempted} operations are too few for a median; raise --seconds"
        )
    return p50


def end_to_end(loop, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """(the metrics every workload reports, figures that are only printed)."""
    metrics = {
        "ops_per_s": ((loop.attempted - loop.failed) / loop.seconds, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {
        "failed_share": (loop.failed / loop.attempted, "ratio"),
        "latency_p50_ms": (median_latency(loop) * 1e3, "ms"),
    }
    for pct in (90, 99):
        value = percentile(loop.latencies, pct)
        extra[f"latency_p{pct}_ms"] = (None if value is None else value * 1e3, "ms")
    return metrics, extra


def run_workload(args, pg) -> int:
    import workloads as wl
    from gate import Gate
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        w = wl.WORKLOADS[args.workload]()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            w.setup(args.seed, scratch)
            setups.append(perf_counter() - t0)
        env = wl.child_env()
        starts = [wl.child_import_seconds(env)[0] for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(starts) + statistics.median(setups)

        gate = Gate(wl.RISK)
        gate.check_combat_reference()
        for item in w.items[:WARMUP_OPS]:
            try:
                w.op(item)
            except wl.FAILURES:
                pass

        if not args.trace:
            loop = wl.run_loop(w, args.seconds)
            rss = peak_rss_mb(children=args.workload == "cli-process")
            w.check(loop.outputs, gate)
            metrics, extra = end_to_end(loop, setup_s, rss)
            attempted, failed = loop.attempted, loop.failed
        else:
            tracer = Tracer()
            stretch = args.seconds / (2 * TRACE_SEGMENTS)
            plain, traced = [], []
            for _ in range(TRACE_SEGMENTS):
                plain.append(wl.run_loop(w, stretch))
                traced.append(wl.run_loop(w, stretch, tracer))
            plain, traced = wl.Loop.join(plain), wl.Loop.join(traced)
            w.check(plain.outputs, gate)
            w.check(traced.outputs, gate)
            metrics, sweep = wl.layer_sweep(args.seed, scratch, gate)
            overhead = median_latency(traced) / median_latency(plain)
            metrics["trace.overhead"] = (overhead, "ratio")
            metrics["trace.coverage"] = (tracer.coverage("op"), "ratio")
            metrics["src.loc"] = (source_loc()["src.loc"], "count")
            extra = {}
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(OUT / f"spans-{stem}.jsonl", SPANS_WRITTEN)
            sweep.write(OUT / f"spans-sweep-{stem}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for error in gate.errors[:20]:
        print(f"WRONG {error}", file=sys.stderr)
    record = run_record(args, pg)
    record.update(correct=gate.correct, attempted=attempted, failed=failed,
                  checked=gate.checked, metrics={**metrics, **extra})
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"{args.workload} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"{gate.checked} outputs checked, {'correct' if gate.correct else 'WRONG'}")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a (too few samples beyond it)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<44} {shown}")
    print("run record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if gate.correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit code {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    # unwinds through the finally blocks, and subprocess.run kills its child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    try:
        pg = import_program()
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, pg)


if __name__ == "__main__":
    sys.exit(main())
