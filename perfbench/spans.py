"""In-memory spans for the traced run.

A span has a name ``<layer>.<call>``, start and end (perf_counter
seconds), the id of its parent span and the op it belongs to. Spans are
kept in a list and written out once, when the run ends.

The benchmark times public calls from the outside, so a sub-step of a
call (the feasibility gate inside ``synth_l0``, say) is timed by calling
it again on its own. Such a standalone span is recorded as a child of the
call it decomposes even though it runs after it; a span's self time is
its duration minus the durations of its children, which makes self times
derived numbers, and they are labelled so in the report.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str, parent: int | None = None):
        """Record one span. The parent defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"id": len(self.spans), "name": name, "op": op, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, op: str, fn, *args, parent: int | None = None, **kwargs):
        with self.span(name, op, parent):
            return fn(*args, **kwargs)

    def duration(self, record: dict) -> float:
        return record["end"] - record["start"]

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def _self(self) -> list[float]:
        """Derived self time of every span: its duration minus its children's."""
        own = [self.duration(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= self.duration(s)
        return own

    def self_total(self, name: str) -> float:
        own = self._self()
        return sum(own[s["id"]] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Derived self time per layer (the part of a span name before the dot)."""
        own = self._self()
        layers: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own[s["id"]]
        return layers

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def call(self, name: str, op: str, fn, *args, parent: int | None = None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, op: str, parent: int | None = None):
        yield {"id": None}
