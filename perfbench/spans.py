"""In-memory spans for the benchmark's traced run.

A span covers one call the benchmark makes into a public cm7prime
function.  Spans live in a list until the run ends and are written out
once.  The untraced run never creates a Tracer, so tracing costs it
nothing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Spans as [name, start, end, parent index, operation id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tally: Counter = Counter()  # op counts seen at the same boundaries
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def has(self, name: str) -> bool:
        return any(s[0] == name for s in self.spans)

    def total(self, name: str, parent: str | None = None) -> float:
        """Summed duration of spans called name (under a parent so named)."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and (
            parent is None or (s[3] is not None
                               and self.spans[s[3]][0] == parent)))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover.

        The benchmark is single-threaded, so children never overlap and
        their union is their sum.
        """
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[0]] += s[2] - s[1]
            if s[3] is not None:
                out[self.spans[s[3]][0]] -= s[2] - s[1]
        return dict(out)

    def export(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": a - origin, "end": b - origin,
                 "parent": p, "op": op} for n, a, b, p, op in self.spans]
