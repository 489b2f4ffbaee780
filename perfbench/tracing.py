"""Spans recorded around the program's public entry points.

The tracer replaces a function on the module where its caller looks it up
(``gnnbound.sweep.train``, ``gnnbound.models.apply_filter``, ...) with a
wrapper that records one span per call: name, start, end, parent span and run
id. The number of spans of a name is that layer's call count. Spans stay in
memory until ``write_spans`` is called after the run; ``restore`` puts every
original function back.
"""

from __future__ import annotations

import csv
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    run_id: str
    thread: int
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Tracer:
    run_id: str
    spans: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    # next() on itertools.count is atomic under the GIL, so sweep worker
    # threads can open spans without a lock.
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))

    def _open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(
            span_id=next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            run_id=self.run_id,
            thread=threading.get_ident(),
            name=name,
            start_ns=time.perf_counter_ns(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._local.stack.pop()

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Record a span per call of ``module.attr``; ``attrs(*args)`` adds fields to it."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)
                if attrs is not None:
                    span.attrs = attrs(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["span_id", "parent_id", "run_id", "thread", "name", "start_ns", "end_ns"])
            for s in self.spans:
                writer.writerow(
                    [s.span_id, s.parent_id or "", s.run_id, s.thread, s.name, s.start_ns, s.end_ns]
                )


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for child in sorted(children[s.span_id], key=lambda c: c.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.span_id] = s.duration_ns - covered
    return result


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed span seconds and summed self seconds."""
    selfs = self_times_ns(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration_ns / 1e9
        row["self_s"] += selfs[s.span_id] / 1e9
    return table
