"""The four workloads, the closed loop that drives them, and the layer sweep.

Every workload has one caller: the next operation starts when the previous
one has returned. Inputs come from :mod:`corpus` and are built in
``setup`` before the clock starts. ``op`` is the operation as a user calls
it; ``traced_op`` replays it as the public calls it makes, each inside a
span. Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
from array import array
import io as stdio
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import corpus
from gate import Case, Gate
from program import ROOT, SRC, THRESHOLDS, import_program
from spans import Tracer

pg = import_program()
from pignistic import cli as pcli  # noqa: E402
from pignistic.decision import DecisionReport  # noqa: E402
from pignistic.io import (  # noqa: E402
    parse_bba_document,
    parse_threshold_document,
    render_comparison,
    render_report,
)

RISK = corpus.RISK
RECORD = "record"


class Failed(Exception):
    """The program reported that it could not finish (exit code 2)."""


FAILURES = (pg.ConvergenceError, Failed)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _replay_report(tr: Tracer, m, kind):
    """``report_for(m, kind, RISK)`` as the calls it makes."""
    result = tr.call(
        f"transforms.apply_transform.{kind.value}", pg.apply_transform, kind.value, m
    )
    score = tr.call("metrics.pic", pg.pic, result.distribution)
    selected = tr.call("decision.decision_set", pg.decision_set, result.distribution, RISK)
    return DecisionReport(
        method=kind,
        distribution=result.distribution,
        pic=score,
        decision_threshold=RISK,
        selected=tuple(selected),
        epsilon=result.epsilon,
        iterations=result.iterations,
    )


class DecideStream:
    """One JSON BBA document through parse -> evaluate -> record rendering."""

    name = "decide-stream"

    def setup(self, seed: int, scratch: Path) -> None:
        self.docs = corpus.decide_documents(seed)
        self.thresholds = parse_threshold_document(THRESHOLDS.read_text())
        self.items = self.docs
        self.cycle = len(self.docs)

    def op(self, doc: str) -> str:
        m = parse_bba_document(doc)
        return render_report(pg.evaluate(m, self.thresholds, RISK), RECORD)

    def traced_op(self, doc: str, tr: Tracer) -> str:
        m = tr.call("io.parse_bba_document", parse_bba_document, doc)
        sum_bel = tr.call("frame.sum_bel", m.sum_bel)
        sum_pl = tr.call("frame.sum_pl", m.sum_pl)
        kind = tr.call(
            "decision.select_transform", pg.select_transform, sum_bel, sum_pl, self.thresholds
        )
        report = _replay_report(tr, m, kind)
        return tr.call("io.render_report", render_report, report, RECORD)

    def check(self, outputs: dict, gate: Gate) -> None:
        for i, out in outputs.items():
            case = Case.from_document(self.docs[i])
            record = json.loads(out)
            gate.check_record(f"doc {i}", case, record)
            gate.check_selection(f"doc {i}", case, record["method"], self.thresholds)


class CompareWide:
    """One ``report_for`` on a large prebuilt BBA; sizes and kinds cycle.

    Costs cluster by (size, kind), so a percentile would jump between
    clusters if the mix changed with where the clock ran out; whole cycles
    time every pair equally often.
    """

    name = "compare-wide"
    KINDS = (
        pg.TransformKind.BET_P,
        pg.TransformKind.PRA_PL,
        pg.TransformKind.PR_PL,
        pg.TransformKind.PR_BL,
    )

    def setup(self, seed: int, scratch: Path) -> None:
        self.cases = corpus.compare_bbas(seed)
        self.bbas = [
            pg.MassFunction.from_labels(pg.Frame(labels), assignments)
            for labels, assignments in self.cases
        ]
        self.items = [(b, kind) for b in range(len(self.bbas)) for kind in self.KINDS]
        self.cycle = len(self.items)

    def op(self, item):
        b, kind = item
        return pg.report_for(self.bbas[b], kind, RISK)

    def traced_op(self, item, tr: Tracer):
        b, kind = item
        return _replay_report(tr, self.bbas[b], kind)

    def check(self, outputs: dict, gate: Gate) -> None:
        cases: dict[int, Case] = {}
        for i, report in outputs.items():
            b, kind = self.items[i]
            case = cases.setdefault(b, Case(*self.cases[b]))
            record = json.loads(render_report(report, RECORD))
            gate.check_record(f"bba {b} {kind.value}", case, record)


class PrscpSolve:
    """One ``pr_sc_p(m)`` with the default solver configuration."""

    name = "prscp-solve"
    cycle = 1

    def setup(self, seed: int, scratch: Path) -> None:
        self.corpus = corpus.prscp_corpus(seed, ROOT)
        self.items = [
            pg.MassFunction.from_labels(pg.Frame(labels), assignments)
            for _, labels, assignments in self.corpus
        ]

    def op(self, m):
        return pg.pr_sc_p(m)

    def traced_op(self, m, tr: Tracer):
        return tr.call("transforms.pr_sc_p", pg.pr_sc_p, m)

    def check(self, outputs: dict, gate: Gate) -> None:
        for i, result in outputs.items():
            name, labels, assignments = self.corpus[i]
            gate.check_distribution(
                name, Case(labels, assignments), "PrScP", result.distribution.probabilities
            )


class CliProcess:
    """``python -m pignistic.cli decide|compare --format record`` as a child
    process, timed from spawn to exit; the two commands alternate."""

    name = "cli-process"
    cycle = 2
    DOCS = 64

    def setup(self, seed: int, scratch: Path) -> None:
        self.docs = corpus.decide_documents(seed, self.DOCS)
        self.paths = []
        for i, doc in enumerate(self.docs):
            path = scratch / f"doc{i}.json"
            path.write_text(doc)
            self.paths.append(path)
        self.items = [(i, cmd) for i in range(self.DOCS) for cmd in ("decide", "compare")]
        self.env = child_env()

    def argv(self, i: int, cmd: str) -> list[str]:
        args = [cmd, "--input", str(self.paths[i]), "--risk", repr(RISK), "--format", RECORD]
        if cmd == "decide":
            args += ["--thresholds", str(THRESHOLDS)]
        return args

    def op(self, item):
        i, cmd = item
        proc = subprocess.run(
            [sys.executable, "-m", "pignistic.cli", *self.argv(i, cmd)],
            capture_output=True, text=True, env=self.env, cwd=ROOT,
        )
        if proc.returncode == pcli.EXIT_NO_CONVERGENCE:
            raise Failed(proc.stderr)
        return proc.returncode, proc.stdout, proc.stderr

    def traced_op(self, item, tr: Tracer):
        return tr.call("cli.process", self.op, item)

    def check(self, outputs: dict, gate: Gate) -> None:
        thresholds = parse_threshold_document(THRESHOLDS.read_text())
        for j, (code, out, err) in outputs.items():
            i, cmd = self.items[j]
            where = f"cli {cmd} doc {i}"
            if code != pcli.EXIT_OK:
                gate.fail(where, f"exit code {code}: {err.strip()}")
                continue
            m = parse_bba_document(self.docs[i])
            if cmd == "decide":
                expected = render_report(pg.evaluate(m, thresholds, RISK), RECORD)
            else:
                reports = [pg.report_for(m, kind, RISK) for kind in pg.TransformKind]
                expected = render_comparison(reports, RECORD)
            got = json.loads(out)
            if got != json.loads(expected):
                gate.fail(where, "record differs from the in-process result")
            case = Case.from_document(self.docs[i])
            for record in [got] if cmd == "decide" else got:
                gate.check_record(where, case, record)
            if cmd == "decide":
                gate.check_selection(where, case, got["method"], thresholds)


WORKLOADS = {w.name: w for w in (DecideStream, CompareWide, PrscpSolve, CliProcess)}


@dataclass
class Loop:
    """Per-operation latencies (seconds) and failure flags, kept in flat
    arrays so that the memory they take stays small next to the program's."""

    latencies: array
    failures: array
    outputs: dict
    seconds: float

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures)

    @classmethod
    def join(cls, loops: list[Loop]) -> Loop:
        """One loop from several run back to back over the same inputs."""
        joined = cls(array("d"), array("b"), {}, 0.0)
        for loop in loops:
            joined.latencies.extend(loop.latencies)
            joined.failures.extend(loop.failures)
            joined.outputs.update(loop.outputs)
            joined.seconds += loop.seconds
        return joined


def run_loop(w, seconds: float, tracer: Tracer | None = None) -> Loop:
    """Closed loop over ``w.items`` for ``seconds``, ending on a whole cycle.

    A failed operation still counts its latency; the last output of each
    input is kept for the gate.
    """
    items = w.items
    latencies = array("d")
    failures = array("b")
    outputs: dict = {}
    i = 0
    start = perf_counter()
    deadline = start + seconds
    while i % w.cycle or perf_counter() < deadline:
        j = i % len(items)
        t0 = perf_counter()
        try:
            if tracer is None:
                out = w.op(items[j])
            else:
                tracer.op += 1
                out = tracer.call("op", w.traced_op, items[j], tracer)
        except FAILURES:
            failures.append(1)
        else:
            failures.append(0)
            outputs[j] = out
        latencies.append(perf_counter() - t0)
        i += 1
    return Loop(latencies, failures, outputs, perf_counter() - start)


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pignistic; "
    "print(time.perf_counter() - t)"
)


def child_import_seconds(env: dict) -> tuple[float, float]:
    """(wall seconds from spawn to exit, seconds the child spent importing)
    for a fresh interpreter that imports the package and exits."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    return perf_counter() - t0, float(proc.stdout)


SWEEP_DECIDE_DOCS = 400
SWEEP_REPEATS = 3


def layer_sweep(seed: int, scratch: Path, gate: Gate) -> tuple[dict, Tracer]:
    """Per-layer metrics from one traced pass over a fixed share of every
    workload's inputs, so each layer is measured the same way whichever
    workload the traced run belongs to."""
    tr = Tracer()
    metrics: dict[str, tuple[float, str]] = {}

    decide = DecideStream()
    decide.setup(seed, scratch)
    outputs = {}
    for i, doc in enumerate(decide.docs[:SWEEP_DECIDE_DOCS]):
        tr.op += 1
        outputs[i] = tr.call("op", decide.traced_op, doc, tr)
    decide.check(outputs, gate)

    for labels, assignments in corpus.compare_bbas(seed)[: len(corpus.COMPARE_SIZES)]:
        n = len(labels)
        frame = pg.Frame(labels)
        case = Case(labels, assignments)
        for _ in range(SWEEP_REPEATS):
            tr.op += 1
            m = tr.call(f"frame.from_labels.n{n}", pg.MassFunction.from_labels, frame, assignments)
            tr.call(f"frame.singleton_beliefs.n{n}", m.singleton_beliefs)
            tr.call(f"frame.singleton_plausibilities.n{n}", m.singleton_plausibilities)
            for fn in (pg.bet_p, pg.pra_pl, pg.pr_pl, pg.pr_bl):
                result = tr.call(f"transforms.{fn.__name__}.n{n}", fn, m)
                gate.check_distribution(
                    f"sweep n{n}", case, result.method, result.distribution.probabilities
                )

    prscp = PrscpSolve()
    prscp.setup(seed, scratch)
    iterations, converged, outputs = [], 0, {}
    for i, m in enumerate(prscp.items[: 2 + len(corpus.PRSCP_SIZES)]):
        tr.op += 1
        try:
            result = tr.call("transforms.pr_sc_p", pg.pr_sc_p, m)
        except pg.ConvergenceError as exc:
            iterations.append(exc.iterations)
        else:
            iterations.append(result.iterations)
            converged += 1
            outputs[i] = result
    prscp.check(outputs, gate)

    us = tr.self_us()
    for name, samples in sorted(us.items()):
        if name != "op":
            metrics[f"{name}.us"] = (statistics.median(samples), "us")
    for kind in ("BetP", "PrPl", "PrBl", "PrScP"):
        picks = len(us.get(f"transforms.apply_transform.{kind}", []))
        metrics[f"decision.picks.{kind}"] = (picks, "count")
    solve_us = us["transforms.pr_sc_p"]
    metrics["transforms.pr_sc_p.iterations_sum"] = (sum(iterations), "count")
    metrics["transforms.pr_sc_p.iterations_p50"] = (statistics.median(iterations), "count")
    metrics["transforms.pr_sc_p.iterations_max"] = (max(iterations), "count")
    metrics["transforms.pr_sc_p.us_per_iteration"] = (sum(solve_us) / sum(iterations), "us")
    metrics["transforms.pr_sc_p.converged_share"] = (converged / len(iterations), "ratio")

    env = child_env()
    interpreter, imports = [], []
    for _ in range(SWEEP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        interpreter.append(perf_counter() - t0)
        imports.append(child_import_seconds(env)[1])
    metrics["cli.interpreter_ms"] = (statistics.median(interpreter) * 1e3, "ms")
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    cli = CliProcess()
    cli.setup(seed, scratch)
    for cmd in ("decide", "compare"):
        durations = []
        for _ in range(1 + SWEEP_REPEATS):
            t0 = perf_counter()
            with contextlib.redirect_stdout(stdio.StringIO()):
                code = pcli.main(cli.argv(0, cmd))
            durations.append(perf_counter() - t0)
            if code != pcli.EXIT_OK:
                gate.fail(f"cli.main {cmd}", f"exit code {code}")
        # the first call of each command is a warm-up
        metrics[f"cli.main.{cmd}_ms"] = (statistics.median(durations[1:]) * 1e3, "ms")
    return metrics, tr
