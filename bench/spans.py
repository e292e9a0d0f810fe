"""In-memory spans and call counters for the traced benchmark run.

The benchmark wraps the library's public functions at each layer boundary
from its own code; nothing inside ``gpratings`` is instrumented. A span is
(name, start, end, parent). Functions called tens of thousands of times per
fit (the emission log-likelihood) are recorded as a counter under their
parent span instead: call count and summed duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans and counters; ``enabled=False`` makes every hook a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []                      # [name, start, end, parent index]
        self.counters = defaultdict(lambda: [0, 0.0])   # (name, parent) -> [calls, seconds]
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def counted(self, name, fn):
        """Wrap fn so each call adds to the counter ``name`` under the open span."""
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = self._stack[-1] if self._stack else None
                entry = self.counters[(name, parent)]
                entry[0] += 1
                entry[1] += time.perf_counter() - start
        return wrapper

    # -- summaries ---------------------------------------------------------

    def total(self, name) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def counter(self, name, under=None):
        """(calls, seconds) of counter ``name``, optionally only under spans named ``under``."""
        calls, secs = 0, 0.0
        for (n, parent), (c, s) in self.counters.items():
            if n != name:
                continue
            if under is not None and (parent is None or self.spans[parent][0] != under):
                continue
            calls += c
            secs += s
        return calls, secs

    def self_time(self, name) -> float:
        """Summed duration of spans ``name`` minus what child spans and counters cover.

        Children of one span run one after another, so their durations add
        without overlap.
        """
        total = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n != name:
                continue
            child = sum(e - s for _, s, e, p in self.spans if p == i)
            child += sum(secs for (_, p), (_, secs) in self.counters.items() if p == i)
            total += (end - start) - child
        return total

    def write(self, path):
        """Write spans, then counters, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            for (name, parent), (calls, secs) in self.counters.items():
                fh.write(json.dumps({"counter": name, "parent": parent,
                                     "calls": calls, "seconds": secs}) + "\n")
