"""In-memory span tracer for the benchmark.

A span records its name, start and end (``perf_counter`` seconds), the
index of the enclosing span, and the id of the operation it belongs to.
Spans stay in a list until the run ends and ``write_jsonl`` stores them.
Counters sit next to the spans so ratios are measured where work happens.

``NO_TRACE`` has the same interface and records nothing; untraced runs
pass it to the spans the benchmark opens around library calls.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.stack[-1] if tracer.stack else None
        tracer.spans.append([self.name, perf_counter(), None, parent, tracer.op_id])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = perf_counter()
        tracer.stack.pop()
        return False


class Tracer:
    """Collects spans and counters; one instance per traced phase."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def op(self) -> _Span:
        """Span of one unit of timed work; spans inside it share its id."""
        self.op_id += 1
        return _Span(self, "op")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        """Total inclusive time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def write_jsonl(self, path, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                record = {
                    "run": run_id,
                    "op": op_id,
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                fh.write(json.dumps(record) + "\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NoTrace:
    enabled = False
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span

    def op(self) -> _NoSpan:
        return self._span

    def count(self, name: str, amount: float = 1) -> None:
        pass


NO_TRACE = _NoTrace()
