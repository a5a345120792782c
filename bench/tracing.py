"""In-memory spans recorded around calls into diskrod's public functions.

A span is opened by a wrapper installed at the name a caller looks the
function up under (``diskrod.matching.forward`` is the ``forward`` that
``match_shape`` calls), so the program itself is not edited.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    op: int              # index of the benchmark operation that caused it; -1 outside
    name: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self.op, name, perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, annotate=None) -> bool:
        """Replace ``module.attr`` by a spanning wrapper; False if the name is absent.

        ``annotate(attrs, args, kwargs, result)`` may add attributes to the span.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span.attrs, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def wrap_all(self, specs) -> list[str]:
        """Wrap ``(module, attr, span name, annotate)`` specs; returns names not found."""
        missing = []
        for module_name, attr, name, annotate in specs:
            if not self.wrap(importlib.import_module(module_name), attr, name, annotate):
                missing.append(f"{module_name}.{attr}")
        return missing

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = children_of(spans)
    result = {}
    for span in spans:
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in kids.get(span.id, ()))
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def descendants(span: Span, kids: dict[int, list[Span]]):
    stack = list(kids.get(span.id, ()))
    while stack:
        s = stack.pop()
        yield s
        stack.extend(kids.get(s.id, ()))


def per_span_cost_s(calls: int = 20000) -> float:
    """Measured cost one wrapper adds to a call, for the overhead estimate."""
    class Namespace:
        @staticmethod
        def noop():
            return None

    def loop(fn) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - t0

    bare = min(loop(Namespace.noop) for _ in range(3))
    tracer = Tracer()
    tracer.wrap(Namespace, "noop", "noop")
    wrapped = min(loop(Namespace.noop) for _ in range(3))
    tracer.restore()
    return max(wrapped - bare, 0.0) / calls
