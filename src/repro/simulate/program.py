"""Per-rank event programs: the Version 5/6/7 communication shapes.

* **Version 5** (the production code): compute each phase, then exchange
  that phase's grouped messages — sends are buffered (the wire transfer is
  spawned and proceeds concurrently), receives block until arrival.
* **Version 6**: a small edge-compute fraction produces the boundary data
  first, *all* sends are posted up front, and the interior computation of
  every phase proceeds before each receive — communication overlaps
  computation to the extent the network allows.  (Its busy-time penalty —
  extra loop setup and degraded temporal locality — is charged by the cost
  model through the version's op-mix factors.)
* **Version 7**: Version 5 with each grouped flux message split into two
  single-column messages (fewer bytes per send, twice the startups on the
  flux exchanges) — the paper's anti-burstiness experiment.

Libraries with ``blocking_send=True`` (the paper's MPL) perform the wire
transfer inline in the sender, charging the occupancy to non-overlapped
communication time.

Each rank runs as a :class:`RankProcess` replaying one step's plan and
each wire transfer as a :class:`Transfer` — state machines on the
engine's heap, not generators; a message piece's arrival is one slot per
step in a list its sender and receiver share.
"""

from __future__ import annotations

from typing import Callable

from ..machines.network.base import Network
from ..msglib.libmodel import LibraryModel
from ..parallel.versions import Version
from .engine import Engine, PlanProcess, Resource
from .timeline import RankTimeline, Segment
from .workload import Message, Workload

#: Fraction of a step's compute that produces subdomain-edge data first
#: (Version 6 computes this before posting its sends).
EDGE_COMPUTE_FRACTION = 0.08


def _split_for_version(msg: Message, version: Version) -> list[tuple[int, int]]:
    """``(part_index, nbytes)`` pieces of a message under the version's
    grouping policy."""
    if version.split_flux_columns and msg.kind == "flux":
        half = msg.nbytes // 2
        return [(0, half), (1, msg.nbytes - half)]
    return [(0, msg.nbytes)]


class Transfer(PlanProcess):
    """One wire transfer: protocol startup, hold the route, occupy, signal.

    ``pc`` walks 0 (startup delay) → 1..n (acquire ``route[pc - 1]``) →
    n + 1 (occupancy) → release in reverse, mark ``slots[step]`` arrived and
    wake the rank parked there.  ``owner`` is the process queued on the
    route and scheduled: the sender of a blocking (MPL) send, which calls
    ``resume`` inline, or ``None`` for the transfer itself.  ``occupancy`` may include a
    fault plan's extra delay (retransmissions plus jitter), charged while
    the route is held, so lost messages congest a shared wire as real
    retransmissions would."""

    __slots__ = ("engine", "owner", "route", "occupancy", "startup", "slots",
                 "step", "pc")

    def __init__(self, engine, name, route, occupancy, slots, step, startup) -> None:
        self.engine, self.name, self.done, self.owner = engine, name, False, None
        self.route, self.occupancy, self.startup = route, occupancy, startup
        self.slots, self.step, self.pc = slots, step, 0

    def resume(self, now: float) -> float | None:
        pc, route = self.pc, self.route
        if pc == 0:
            self.pc = pc = 1
            if self.startup > 0.0:
                return self.startup
        n = len(route)
        while pc <= n:  # the engine's Acquire, inline
            res = route[pc - 1]
            pc += 1
            if res.in_use < res.capacity and not res._queue:
                res.in_use += 1
            else:
                res._queue.append(self.owner or self)
                self.pc = pc
                return None
        if pc == n + 1:
            self.pc = n + 2
            return self.occupancy
        for res in reversed(route):  # the engine's Release, inline
            res.in_use -= 1
            if res._queue and res.in_use < res.capacity:
                res.in_use += 1
                self.engine.schedule(res._queue.popleft(), now)
        waiter = self.slots[self.step]
        self.slots[self.step] = True
        if waiter is not None:
            self.engine.schedule(waiter, now)
        self.done = True
        return None


_COMPUTE, _SEND, _RECV = range(3)
#: Where a rank is parked in entry ``i`` (``_NEXT``: nowhere, it goes on).
_NEXT, _WAITING, _CHARGED, _SENDING = range(4)


class RankProcess(PlanProcess):
    """One rank's SPMD program: ``plan`` (one step's entries, see
    :func:`build_rank_program`) replayed ``steps`` times, with every charge
    and wait booked on ``timeline`` (and, when tracing, its segments)."""

    __slots__ = ("engine", "rank", "timeline", "plan", "steps", "step", "i",
                 "stage", "t0", "transfer", "blocking", "startup", "child",
                 "faults", "fault_note")

    def __init__(self, engine, rank, plan, steps, library, faults=None,
                 fault_note=None, trace=False) -> None:
        self.engine, self.rank, self.plan, self.steps = engine, rank, plan, steps
        self.name, self.child, self.done = f"rank{rank}", f"rank{rank}.child", False
        self.timeline = RankTimeline(rank, segments=[] if trace else None)
        self.step, self.i, self.stage, self.t0, self.transfer = 0, -1, _NEXT, 0.0, None
        self.blocking, self.startup = library.blocking_send, library.wire_startup
        self.faults = faults if faults is not None and faults.wire_faulty else None
        self.fault_note = fault_note

    def _record(self, kind: str, now: float) -> None:
        if now > self.t0:
            self.timeline.segments.append(Segment(kind, self.t0, now))

    def resume(self, now: float) -> float | None:
        """Finish what entry ``i`` was parked on, then charge the next entry:
        its CPU seconds, or ``None`` if parked on an arrival, a link or done."""
        tl, plan, i, stage = self.timeline, self.plan, self.i, self.stage
        if stage == _WAITING:  # the arrival is in: book the wait, then charge
            tl.comm_wait += now - self.t0
            if tl.segments is not None:
                self._record("wait", now)
        else:
            if stage == _CHARGED:
                entry = plan[i]
                op = entry[0]
                if tl.segments is not None:
                    self._record("compute" if op == _COMPUTE else "library", now)
                if op == _SEND:
                    _, _, peer, key, wire, slots, route = entry
                    extra, step = 0.0, self.step
                    if self.faults is not None:
                        fkey = (step,) + key
                        extra = self.faults.sim_extra_delay(self.rank, peer, fkey, wire)
                        if extra > 0.0 and self.fault_note is not None:
                            self.fault_note(self.rank, peer, fkey, extra)
                    tr = Transfer(self.engine, self.child, route, wire + extra,
                                  slots, step, self.startup)
                    if self.blocking:  # the rank runs it inline, as its owner
                        tr.owner, self.transfer = self, tr
                        self.t0, stage = now, _SENDING
                    else:
                        self.engine.schedule(tr, now)
            if stage == _SENDING:
                dt = self.transfer.resume(now)
                if not self.transfer.done:
                    self.stage = _SENDING
                    return dt
                tl.comm_wait += now - self.t0
            i += 1
            if i == len(plan):
                i, self.step = 0, self.step + 1
                if self.step == self.steps:
                    tl.finished_at, self.done = now, True
                    return None
            entry = plan[i]
            if entry[0] == _RECV:  # wait for the arrival
                self.t0, slots = now, entry[5]
                if slots[self.step] is not True:
                    slots[self.step] = self
                    self.i, self.stage = i, _WAITING
                    return None
                tl.comm_wait += now - self.t0
        entry = plan[i]
        op, seconds = entry[0], entry[1]
        self.t0 = now
        tl.busy += seconds
        if op == _COMPUTE:
            tl.compute += seconds
        else:
            tl.library += seconds
        self.i, self.stage = i, _CHARGED
        return seconds


def build_rank_program(
    engine: Engine, rank: int, nprocs: int, workload: Workload, version: Version,
    library: LibraryModel, network: Network, resources: dict[str, Resource],
    arrivals: dict[tuple, list], steps: int, step_compute_seconds: float,
    faults=None, fault_note: Callable[[int, int, tuple, float], None] | None = None,
    trace: bool = False,
) -> RankProcess:
    """The SPMD program of one rank as a :class:`RankProcess`.

    The rank's step is planned once, before the first event: a flat list
    of entries ``(op, cpu_seconds, peer, piece, wire, slots, route)`` —
    compute, a message piece's send (library time, then the wire transfer
    over the pre-resolved route) or its receive (the wait, then library
    time) — with every per-message figure computed up front.  ``slots`` is
    the piece's arrival list in ``arrivals``, shared by sender and
    receiver: one entry per step, ``None``, the parked receiver or
    ``True`` once arrived.

    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) maps the plan's
    wire-level faults onto deterministic extra occupancy of each transfer
    (see :meth:`~repro.faults.plan.FaultPlan.sim_extra_delay`);
    ``fault_note`` is called once per afflicted transfer so the machine can
    record the injection through the tracer."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    left = rank - 1 if rank > 0 else None
    right = rank + 1 if rank < nprocs - 1 else None
    routes = {
        dst: [resources[k] for k in network.link_ids(rank, dst)]
        for dst in (left, right)
        if dst is not None
    }

    def messages(ph: int, phase, op: int) -> list[tuple]:
        """Plan entries of one phase's sends or receives, split for the version."""
        out = []
        cpu_time = library.send_cpu_time if op == _SEND else library.recv_cpu_time
        for mi, msg in enumerate(phase.messages):
            # Symmetric SPMD: my neighbour's mirror-direction send targets me.
            peer = left if (msg.direction == "L") == (op == _SEND) else right
            if peer is None:
                continue
            src, dst = (rank, peer) if op == _SEND else (peer, rank)
            for part, nbytes in _split_for_version(msg, version):
                wire = network.latency + network.transfer_time(nbytes)
                key = (ph, mi, part)
                slots = arrivals.setdefault((src, dst) + key, [None] * steps)
                out.append((op, cpu_time(nbytes), peer, key, wire, slots,
                            routes[peer] if op == _SEND else None))
        return out

    def compute(seconds: float) -> tuple:
        return (_COMPUTE, seconds, None, None, None, None, None)

    phases = workload.phases
    plan: list[tuple] = []
    if version.overlap_communication:
        # Produce boundary data, post everything, then compute interior.
        plan.append(compute(EDGE_COMPUTE_FRACTION * step_compute_seconds))
        for ph, phase in enumerate(phases):
            plan += messages(ph, phase, _SEND)
        remaining = (1.0 - EDGE_COMPUTE_FRACTION) * step_compute_seconds
        for ph, phase in enumerate(phases):
            plan.append(compute(phase.compute_fraction * remaining))
            plan += messages(ph, phase, _RECV)
    else:
        for ph, phase in enumerate(phases):
            plan.append(compute(phase.compute_fraction * step_compute_seconds))
            plan += messages(ph, phase, _SEND) + messages(ph, phase, _RECV)
    return RankProcess(engine, rank, plan, steps, library, faults, fault_note, trace)
