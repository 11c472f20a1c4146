"""The harness's own span log.

Spans are recorded from outside the program, around calls into each
layer's public functions.  Work done in other processes (rank loops,
service workers) is filled in from what public results already carry and
marked ``synthesized``; values split with the help of another probe are
marked ``derived``.  The program's own tracer is deliberately not read, so
refactors of its span names cannot break the benchmark.

A span's self time is its duration minus the part of that interval its
child spans cover (overlapping children count once).  The layer of a span
is the first dotted component of its name.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rep: int | None
    kind: str  # "measured" | "synthesized" | "derived"


class SpanLog:
    """Spans are kept in memory and written out, if asked, at exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.cost = 0.0
        """Seconds the workloads spent recording (see :meth:`overhead`)."""

    @contextmanager
    def span(self, name: str, rep: int | None = None):
        """Measure the enclosed call; nests under the open span."""
        sp = self.record(name, time.perf_counter(), 0.0, rep=rep)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def overhead(self):
        """Time the enclosed span bookkeeping: the tracing overhead is
        measured directly, not as a difference of two noisy medians."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.cost += time.perf_counter() - t0

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Span | None = None,
        rep: int | None = None,
        kind: str = "measured",
    ) -> Span:
        """Log an interval timed elsewhere.  Without ``parent`` it nests
        under the open span, if any; with one it is clipped to the parent's
        interval (a child cannot explain time outside it)."""
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        else:
            start = min(max(start, parent.start), parent.end)
            end = min(max(end, start), parent.end)
            rep = parent.rep if rep is None else rep
        sp = Span(
            len(self.spans), name, start, end,
            None if parent is None else parent.id, rep, kind,
        )
        self.spans.append(sp)
        return sp

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = []
        for sp in self.spans:
            cover, edge = 0.0, sp.start
            for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                lo, hi = max(ch.start, edge), min(ch.end, sp.end)
                if hi > lo:
                    cover += hi - lo
                    edge = hi
            out.append((sp.end - sp.start) - cover)
        return out

    def budget(self, top: str) -> tuple[float, dict[str, float]]:
        """``(wall, self seconds by layer)`` under the top-level spans
        named ``top``.  ``wall`` is the summed duration of those spans, so
        the layer values add up to it exactly; whatever no child explains
        stays with the top spans' own layer."""
        selfs = self.self_times()
        inside: set[int] = set()
        wall = 0.0
        layers: dict[str, float] = {}
        for sp in self.spans:  # a parent always precedes its children
            if sp.parent in inside or (sp.parent is None and sp.name == top):
                inside.add(sp.id)
                if sp.parent is None:
                    wall += sp.end - sp.start
                layer = sp.name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + selfs[sp.id]
        return wall, layers

    def to_rows(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]
