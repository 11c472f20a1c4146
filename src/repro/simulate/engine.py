"""A small deterministic discrete-event engine.

A process is either a plain Python generator that yields *commands*:

* ``Delay(dt)`` — resume after ``dt`` simulated seconds;
* ``Acquire(resource)`` — block until one unit of the resource is granted
  (FIFO);
* ``Release(resource)`` — return one unit (never blocks);

or a :class:`PlanProcess`, a state machine whose ``resume(now)`` runs
until it blocks and returns the delay it waits for — the simulated
machine's ranks and wire transfers, with no generator frame or command
object per event.  Both kinds share one heap.

Determinism: ties in time are broken by a monotone sequence number, so runs
are exactly reproducible — a property the regression tests rely on.
Helper generators compose with ``yield from``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Generator


class Resource:
    """FIFO resource with integer capacity."""

    __slots__ = ("capacity", "in_use", "_queue", "name")

    def __init__(self, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.in_use = 0
        self._queue: deque["_Proc"] = deque()
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, {self.in_use}/{self.capacity})"


class Delay:
    __slots__ = ("dt",)

    def __init__(self, dt: float) -> None:
        self.dt = dt


class Acquire:
    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        self.resource = resource


class Release:
    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        self.resource = resource


class PlanProcess:
    """A process as a state machine: at each heap entry the engine calls
    ``resume(now)``, which returns the delay to the next, or ``None`` once
    parked (in a resource queue, say) or done; ``Engine.schedule`` wakes it."""

    __slots__ = ("name", "done")
    gen = None  # what tells the run loop it is not a generator ``_Proc``


class _Proc:
    __slots__ = ("gen", "name", "done")

    def __init__(self, gen: Generator, name: str) -> None:
        self.gen = gen
        self.name = name
        self.done = False


class Engine:
    """The event loop.

    ``tracer`` optionally records every process schedule/resume as an
    instant event keyed on the engine's deterministic clock (``self.now``),
    so traced simulations export byte-identically across runs.  The default
    ``None`` costs the loop one test per resume.
    """

    def __init__(self, tracer=None) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, _Proc]] = []
        self._seq = 0
        self.processes: list[_Proc] = []
        self.steps = 0
        self.tracer = tracer
        self._push = heapq.heappush if tracer is None else self._traced_push

    # -- public API -------------------------------------------------------------
    def add_process(self, gen: Generator | PlanProcess, name: str = "proc") -> None:
        """Start a process now: a generator (named ``name``) or a plan process."""
        proc = gen if isinstance(gen, PlanProcess) else _Proc(gen, name)
        self.processes.append(proc)
        self.schedule(proc, self.now)

    def schedule(self, proc: _Proc | PlanProcess, at: float) -> None:
        """Push ``proc`` to resume at time ``at``, after earlier pushes."""
        self._seq += 1
        self._push(self._heap, (at, self._seq, proc))

    def run(self, max_events: int = 50_000_000) -> float:
        """Run until all processes finish; returns the end time.

        One loop resumes a process and executes its commands until it
        blocks, dispatching on the command's class; a plan process runs its
        own ``resume``.  Every schedule is a heap push of
        ``(now + dt, seq, proc)`` with ``seq`` the monotone tie-break, so
        the event order — and with it every result — is a pure function of
        the processes."""
        heap, pop, tracer, push = self._heap, heapq.heappop, self.tracer, self._push
        seq, steps, processes = self._seq, self.steps, self.processes
        while heap:
            now, _, proc = pop(heap)
            self.now = now
            if tracer is not None:
                tracer.instant("proc.resume", cat="engine", ts=now, proc=proc.name)
            gen = proc.gen
            if gen is None:  # a plan process; ``seq`` lives on self meanwhile
                self._seq = seq
                dt = proc.resume(now)
                seq = self._seq
                if dt is not None:
                    if dt < 0:
                        raise ValueError(f"negative delay {dt} in {proc.name}")
                    seq += 1
                    push(heap, (now + dt, seq, proc))
            else:
                while True:
                    try:
                        cmd = next(gen)
                    except StopIteration:
                        proc.done = True
                        break
                    cls = cmd.__class__
                    if cls is Delay:
                        dt = cmd.dt
                        if dt < 0:
                            raise ValueError(f"negative delay {dt} in {proc.name}")
                        seq += 1
                        push(heap, (now + dt, seq, proc))
                        break
                    if cls is Acquire:
                        res = cmd.resource
                        if res.in_use < res.capacity and not res._queue:
                            res.in_use += 1
                            continue
                        res._queue.append(proc)
                        break
                    if cls is Release:
                        res = cmd.resource
                        if res.in_use <= 0:
                            raise RuntimeError(f"release of idle resource {res.name!r}")
                        res.in_use -= 1
                        if res._queue and res.in_use < res.capacity:
                            res.in_use += 1
                            seq += 1
                            push(heap, (now, seq, res._queue.popleft()))
                        continue
                    raise TypeError(f"unknown simulation command {cmd!r} from {proc.name}")
            steps += 1
            if steps > max_events:
                raise RuntimeError("event budget exceeded (runaway simulation?)")
        self._seq, self.steps = seq, steps
        unfinished = [p.name for p in processes if not p.done]
        if unfinished:
            raise RuntimeError(
                f"simulation stalled with blocked processes: {unfinished[:8]} "
                "(resource or event deadlock)"
            )
        return self.now

    # -- internals ---------------------------------------------------------------
    def _traced_push(self, heap: list, item: tuple[float, int, _Proc]) -> None:
        heapq.heappush(heap, item)
        self.tracer.instant(
            "proc.schedule", cat="engine", ts=self.now, proc=item[2].name,
            at=item[0],
        )
