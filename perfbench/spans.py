"""In-memory spans recorded around calls into the program's layers.

A span is ``(name, start, end, parent)``; names are ``<layer>.<module>.<call>``
(``core.sap.slide``, ``streams.incremental.feed``, ...). Spans stay in
memory and are written out once, when the run ends.
"""
from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("core", "baselines", "streams", "spark", "oracle")


class _Span:
    __slots__ = ("tracer", "sid")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.sid = len(tracer.names)
        tracer.names.append(name)
        tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
        tracer.starts.append(0.0)
        tracer.ends.append(0.0)

    def __enter__(self) -> None:
        tr = self.tracer
        tr._stack.append(self.sid)
        tr.starts[self.sid] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.ends[self.sid] = time.perf_counter()
        tr._stack.pop()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        """Context manager recording one span; spans opened inside it are
        its children."""
        return _Span(self, name)

    def durations(self, first: int = 0) -> dict[str, list[float]]:
        """Durations of the spans recorded since span id ``first``, by name."""
        out: dict[str, list[float]] = {}
        for sid in range(first, len(self.names)):
            out.setdefault(self.names[sid], []).append(
                self.ends[sid] - self.starts[sid]
            )
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        child = [0.0] * len(self.names)
        for sid, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[sid] - self.starts[sid]
        out: dict[str, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] += self.ends[sid] - self.starts[sid] - child[sid]
        return {layer: out.get(layer, 0.0) for layer in LAYERS}

    def dump(self) -> dict:
        """Columnar form of every span, times in µs from the first span."""
        t0 = min(self.starts, default=0.0)
        return {
            "name": self.names,
            "start_us": [round((s - t0) * 1e6, 1) for s in self.starts],
            "end_us": [round((e - t0) * 1e6, 1) for e in self.ends],
            "parent": self.parents,
        }

