"""Spans around the benchmark's calls into the program's layers.

A span is (name, start, end, parent): the parent is the span that was open
when this one started. Spans stay in memory and are written out when the
run ends. A disabled tracer records nothing, so untraced runs pay only for
entering an empty context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Seconds per span name, child spans included."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time its child spans cover.

        Child spans of one parent run one after another, so the time they
        cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + end - start - inner
        return out

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(extra,
                      spans=[{"name": n, "start": s, "end": e, "parent": p}
                             for n, s, e, p in self.spans],
                      self_s=self.self_times())
        path.write_text(json.dumps(record, indent=1) + "\n")


def span_cost_s(count: int) -> float:
    """Time an enabled tracer takes to record `count` empty spans."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(count):
        with probe.span("probe"):
            pass
    return time.perf_counter() - start
