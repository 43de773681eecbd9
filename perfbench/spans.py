"""In-memory span recorder that wraps functions at the names their callers bind.

A span has a name, a start, an end and the index of the span open when it
began.  Re-entrant calls under a span of the same name are folded into it
(``dataio.write_json`` calls ``dataio.atomic_write_text``, both wrapped).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import resource
import time
from dataclasses import dataclass, field


def max_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    # how far the span raised the process's high-water RSS
    peak_rise_mb: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def wrap(self, module, attr: str, name, after=None, memory: bool = False):
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``name`` is a string or a function of the call's arguments.
        ``after(span, args, kwargs, result)`` runs once the span is closed;
        ``memory`` records the span's peak RSS rise.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if self._open and self.spans[self._open[-1]].name == label:
                return fn(*args, **kwargs)
            peak0 = max_rss_mb() if memory else 0.0
            span = Span(label, self._open[-1] if self._open else None, time.perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].children_s += span.duration
                if memory:
                    span.peak_rise_mb = max_rss_mb() - peak0
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def peak_rise(self, name: str) -> float:
        """How far the spans of ``name`` raised the process's peak RSS, together."""
        return sum(s.peak_rise_mb for s in self.spans if s.name == name)

    def outer_total(self, names) -> float:
        """Time inside spans named in ``names``, not counting nesting among them."""
        return sum(s.duration for s in self.spans if s.name in names and (
            s.parent is None or self.spans[s.parent].name not in names))

    def covered(self) -> float:
        """Time inside any top-level span."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def dump(self, origin: float) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start_s": s.start - origin,
                 "end_s": s.end - origin} for s in self.spans]
