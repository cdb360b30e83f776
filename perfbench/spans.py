"""In-memory spans around a program's functions, wrapped from outside.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one started, or -1. Spans stay in memory until the run
ends. A function is wrapped at the name its caller looks it up under and
put back unchanged by `restore()`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent]
        self._stack = []
        self._patches = []   # (owner, attr, original), in install order

    # ------------------------------------------------------------- spans

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def within(self, name):
        """True when a span called `name` is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    # ----------------------------------------------------------- patching

    def wrap(self, owner, attr, names, before=None, after=None):
        """Replace `owner.attr` by a wrapper that opens the spans `names`
        (outermost first) around each call. `before(args, kwargs)` and
        `after(result, args, kwargs)` run outside the spans, so the work
        they do is not charged to the layer."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            opened = 0
            try:
                for name in names:
                    self._open(name)
                    opened += 1
                result = original(*args, **kwargs)
            finally:
                for _ in range(opened):
                    self._close()
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every wrapped function back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------- summaries

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans):
    """Per span name: inclusive seconds (spans nested in a span of the same
    name are not counted twice), self seconds (duration minus the part its
    children cover) and call count."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(i, ()), start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["s"] += end - start
    return out
