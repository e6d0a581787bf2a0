"""In-memory spans around calls into gosta_sim, recorded from outside it.

A span has a name, a start, an end and the id of the span open around it.
Spans stay in memory until the caller writes them out with :meth:`dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, rec: dict) -> float:
        return rec["end"] - rec["start"]

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]

    def self_time(self, rec: dict) -> float:
        """Span time minus the time its child spans cover (children of one
        span never overlap, since spans nest)."""
        return self.duration(rec) - sum(self.duration(c)
                                        for c in self.children(rec))

    def self_times(self, name: str) -> list[float]:
        return [self.self_time(s) for s in self.spans if s["name"] == name]

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and s["parent"] is None]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=1) + "\n")
