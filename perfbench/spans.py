"""Spans recorded around calls into the symfa package, from outside it.

The benchmark replaces the names one symfa module looks up in the next
(``symfa.cli.acceptance``, ``symfa.automaton.wmc_batch``, ...) with
wrappers that record a span per call, so internal calls are caught
without editing the package. Spans stay in memory; the caller writes them
out when the run ends. A span's self time is its duration minus the
durations of its children, which never overlap on one thread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: int  # clock ticks (ns)
    end: int = 0
    parent: int = -1  # index into Tracer.spans; -1 for a root span
    op: int = 0  # id of the benchmark operation the span belongs to
    counts: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended while span {popped} was open")

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """`fn` recording a span `name`; `count(args, result)` gives its counters.

        Counters are computed after the span closes, so their cost lands in
        the parent's self time, not in the measured layer.
        """

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index].counts = count(args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


@contextmanager
def patched(tracer: Tracer, targets):
    """Install tracing wrappers for `targets` and restore the originals on exit.

    Each target is (owner, attribute, span name, count or None); the owner
    is a module or a class. Restoring happens in reverse order even when
    the body raises, so a name patched twice ends up as it started.
    """
    saved = []
    try:
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def lookups(targets) -> list:
    """The objects the target names refer to right now."""
    return [getattr(owner, attr) for owner, attr, _, _ in targets]


def span_records(spans: list[Span]) -> list[list]:
    """Spans as JSON-ready rows: name, start, end, parent, op, counters."""
    return [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in spans]
