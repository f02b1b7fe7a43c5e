"""Spans around calls into the package's public functions.

A ``Tracer`` keeps spans in memory as ``(name, start, end, parent)`` and
counters beside them; ``self_times`` turns the spans into per-name self
time (a span's duration minus what its direct children cover).  Calls the
benchmark makes itself go through ``Tracer.call``; calls the package makes
internally are reached by temporarily replacing a module or class attribute
(``patched``).  An attribute that no longer exists is skipped, so a layer
whose public function is gone simply reports no metrics.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def call(self, name: str, fn, *args, **kwargs):
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            spans[index] = (name, start, end, parent)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self seconds per span name, over spans recorded from ``first`` on."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans[first:]:
            if parent >= first:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i in range(first, len(spans)):
            name, start, end, _ = spans[i]
            totals[name] += end - start - covered[i]
        return dict(totals)

    def write(self, path, origin: float) -> None:
        """One JSON object per span; times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent,
                }) + "\n")


def plain_call(name: str, fn, *args, **kwargs):
    """The untraced counterpart of ``Tracer.call``."""
    return fn(*args, **kwargs)


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Route calls to ``owner.attribute`` through spans while active.

    ``targets`` holds ``(owner, attribute, span_name, counter)`` tuples;
    ``counter(args)`` returns a dict of counter increments, or is None.
    """
    saved = []
    try:
        for owner, attribute, name, counter in targets:
            original = getattr(owner, attribute, None)
            if original is None:
                continue
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, name, original, counter))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _wrap(tracer: Tracer, name: str, fn, counter):
    def traced(*args, **kwargs):
        if counter is not None:
            for key, amount in counter(args).items():
                tracer.count(key, amount)
        return tracer.call(name, fn, *args, **kwargs)

    return traced
