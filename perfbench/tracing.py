"""Spans and counters recorded by the benchmark around calls into the package.

A span has a name ``<module>.<call>``, a start and end time, the
operation it belongs to, and the span that caused it.  Replayed calls
name the operation span they replay as their parent even though they
run after it, so a span's self time is its duration minus the durations
of its children.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = ""  # label of the operation being traced

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[int]:
        record = {"id": len(self.spans), "parent": parent, "op": self.op, "name": name}
        self.spans.append(record)
        record["start"] = perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = perf_counter()

    def call(self, name: str, fn: Callable, *args: Any, parent: int | None = None) -> Any:
        with self.span(name, parent):
            return fn(*args)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Summed duration and summed self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for s in self.spans:
            duration = s["end"] - s["start"]
            total[s["name"]] += duration
            self_time[s["name"]] += duration - child_time[s["id"]]
        return total, self_time

    def dump(self, path: Path, **extra: Any) -> None:
        payload = {**extra, "counts": dict(self.counts), "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
