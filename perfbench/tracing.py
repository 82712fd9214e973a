"""Spans kept in memory for the traced benchmark run.

A span records one call the benchmark makes into a layer's public function:
its name (``<layer>.<function>``, where a layer is a module of
``src/ordspace``), start and end in nanoseconds, the index of the enclosing
span (-1 for none), the operation it belongs to, and the workload whose code
made the call.  Nothing here reaches inside the program.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter_ns

LAYERS = ("ordinal", "topology", "grasberg", "trees", "szlenk", "cli")


class Untraced:
    """Calls straight through; every untraced pass uses this."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass


UNTRACED = Untraced()


class Tracer:
    enabled = True

    def __init__(self):
        # [name, start_ns, end_ns, parent, op, source, items]
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, str]] = []
        self.source = ""
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        return self.call_batch(name, 1, fn, *args)

    def call_batch(self, name, items, fn, *args):
        """Span one call that does `items` units of work, for per-item times."""
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, self.source, items]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((name, value, self.source))

    def self_times(self, first: int = 0, last: int | None = None) -> list[tuple[str, int]]:
        """(name, self time in ns) per span in spans[first:last]: its duration
        minus the part its child spans cover."""
        last = len(self.spans) if last is None else last
        child_ns = [0] * (last - first)
        for name, start, end, parent, *_ in self.spans[first:last]:
            if parent >= first:
                child_ns[parent - first] += end - start
        return [
            (span[0], span[2] - span[1] - child_ns[i])
            for i, span in enumerate(self.spans[first:last])
        ]

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start_ns", "end_ns", "parent", "op", "source", "items")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
