"""In-memory spans recorded around calls into tugplan's public functions.

Tracing is done from outside the program: `Tracer.patch` swaps module
attributes for wrappers that record a span per call and restores the
originals afterwards.  A span is (name, start, end, parent, case, counts);
spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    case: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of `intervals` covers."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - covered(span.start, span.end, children.get(i, []))
            for i, span in enumerate(spans)]


class Tracer:
    """Records spans; `case` labels every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        record = Span(name, parent=self._stack[-1] if self._stack else None,
                      case=self.case)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter()
        return record

    def _close(self, record: Span) -> None:
        record.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped in a span; `count(result)` gives the span's counts
        once the call has returned."""
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record.counts = count(result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patch(self, targets):
        """Replace module attributes while the block runs.  `targets` is a
        list of (modules, attribute, span name, count); one wrapper serves
        every module that holds the attribute, so a call is recorded once."""
        saved = []
        try:
            for modules, attr, name, count in targets:
                wrapper = self.wrap(name, getattr(modules[0], attr), count)
                for module in modules:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_self_times(spans: list[Span], layer_of) -> dict[str, float]:
    """Self time summed per layer; `layer_of(span name)` names the layer."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def counts_of(spans: list[Span], name: str) -> dict[str, int]:
    """Counts summed over the spans called `name`."""
    totals: dict[str, int] = {}
    for span in spans:
        if span.name == name:
            for key, value in span.counts.items():
                totals[key] = totals.get(key, 0) + value
    return totals
