"""Spans recorded from outside the program.

A traced run replaces public functions of ``molpeco`` with wrappers that
record one span per call (name, start, end, parent span, round), under
the name the function is looked up by, so a nested call is attributed to
the layer it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.round: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        if self.round is not None:
            self.counters[(self.round, name)] += amount

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper. ``before(args)``
        runs ahead of the span and ``after(result, args)`` behind it, so
        neither is timed as part of the layer."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.round is None:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def per_round(self) -> dict[int, dict[str, float]]:
        """Per round and span name: ``<name>.self`` (duration minus nested
        spans), ``<name>.total`` (duration) and ``<name>.calls``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, round_index) in enumerate(self.spans):
            row = table[round_index]
            row[name + ".total"] += end - start
            row[name + ".self"] += end - start - child_time[index]
            row[name + ".calls"] += 1
        for (round_index, name), amount in self.counters.items():
            table[round_index][name] += amount
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, round_index) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "round": round_index}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        if self.tracer.round is not None:
            self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        if self.index >= 0:
            self.tracer._close(self.index)
        return False
