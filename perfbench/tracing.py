"""Spans and counts for the traced benchmark run, kept in memory.

A span records its name, start, end, the span it ran inside and the id of
the query it served. Counts are recorded at the same boundaries. Nothing is
written until the run ends; ``write_jsonl`` then emits one JSON object per
line.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, query id]
        self.counts: list[tuple] = []  # (name, value, enclosing span index or -1, query id)
        self.query: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.query]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts.append(
            (name, int(value), self._stack[-1] if self._stack else -1, self.query)
        )

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's.

        The benchmark is single-threaded, so children never overlap and the
        part of a span they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def count_totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, value, _, _ in self.counts:
            out[name] = out.get(name, 0) + value
        return out

    def jsonl_lines(self, **tags):
        for i, (name, start, end, parent, query) in enumerate(self.spans):
            yield json.dumps(
                {"type": "span", "id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "query": query, **tags}
            )
        for name, value, parent, query in self.counts:
            yield json.dumps(
                {"type": "count", "name": name, "value": value, "parent": parent,
                 "query": query, **tags}
            )


def write_jsonl(path, tracers) -> None:
    """Write the spans and counts of every traced pass, tagged with its index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for index, tracer in enumerate(tracers):
            for line in tracer.jsonl_lines(traced_pass=index):
                fh.write(line + "\n")
