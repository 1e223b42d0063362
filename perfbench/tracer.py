"""In-memory span tracer for the benchmark's traced run.

A wrapped function records one span (name, start, end, parent) per call;
a counted function only increments a counter, for calls too frequent to
span. Functions are patched under the name their caller looks them up
by, and a missing name raises at patch time, so a rename in the package
fails loudly instead of reading zero.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list; -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover; overlapping children are counted once."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        clipped = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def _patch(self, owner: object, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)  # AttributeError when the name is gone
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, attr, original))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Records a span named ``name`` around every call of owner.attr."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Counts calls of owner.attr without recording spans."""
        calls = self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def observe(self, owner: object, attr: str, observer) -> None:
        """Calls ``observer(original, args, kwargs)`` in place of owner.attr;
        the observer calls the original and returns its result."""
        def make(original):
            def wrapper(*args, **kwargs):
                return observer(original, args, kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def durations(self) -> Counter[str]:
        """Total inclusive seconds per span name."""
        out: Counter[str] = Counter()
        for span in self.spans:
            out[span.name] += span.end - span.start
        return out

    def dump(self, path: str | Path) -> None:
        with Path(path).open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
