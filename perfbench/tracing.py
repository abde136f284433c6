"""In-memory spans recorded around calls into censtail's public functions.

Spans are kept in a list while a traced call runs and are only summed up
afterwards, so recording costs two clock reads and a list append per call.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Spans of one request: (name, start, end, parent index), and their
    durations once ``scale`` has been called."""

    def __init__(self):
        self.spans = []
        self.durations = []
        self.results = {}
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name):
        """Replace ``module.attr`` by a wrapper that records a span per call
        and keeps the last return value under ``name``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.results[name] = result
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def scale(self, factor):
        """Set each span's duration to its seconds times factor(start, end)."""
        self.durations = [(end - start) * factor(start, end) for _, start, end, _ in self.spans]

    def total(self, name):
        return sum((d for (n, *_), d in zip(self.spans, self.durations) if n == name), 0.0)

    def self_times(self):
        """Seconds per span name, minus the time covered by child spans."""
        own = list(self.durations)
        for (*_, parent), duration in zip(self.spans, self.durations):
            if parent is not None:
                own[parent] -= duration
        out = {}
        for (name, *_), seconds in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + seconds
        return out
