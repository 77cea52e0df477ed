"""In-memory spans recorded around the benchmark's own calls into the program.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``op`` the operation it belongs
to. Spans stay in memory while the benchmark runs and are written out as
JSON lines when it ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.op = 0

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span named ``name``; a raised error still
        closes the span."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_us(self) -> dict[str, list[float]]:
        """Self times in microseconds, grouped by span name."""
        out: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            out.setdefault(span[0], []).append(own / 1e3)
        return out

    def coverage(self, root: str) -> float:
        """Share of the time in ``root`` spans that their child spans cover."""
        total = covered = 0
        for span, own in zip(self.spans, self.self_times()):
            if span[0] == root:
                total += span[2] - span[1]
                covered += span[2] - span[1] - own
        return covered / total

    def write(self, path: Path, limit: int | None = None) -> None:
        """The first ``limit`` spans (all by default) as JSON lines; a
        parent always precedes its children, so the prefix is complete."""
        with path.open("w") as out:
            for span, own in zip(self.spans[:limit], self.self_times()):
                name, start, end, parent, op = span
                out.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "self_ns": own, "parent": parent, "op": op,
                }) + "\n")
