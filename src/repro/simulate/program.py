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

A run's programs are one flat :class:`Plan`, read by both plan engines:
the C unit of :mod:`.native`, and :func:`run` here, which alone builds
Python objects — a :class:`RankProcess` per rank and a :class:`Transfer`
per wire transfer (state machines on the engine's heap), a
:class:`~.engine.Resource` per routed link, an arrival list per slot.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate

from ..machines.network.base import Network
from ..msglib.libmodel import LibraryModel
from ..parallel.versions import Version
from .engine import MAX_EVENTS, Engine, PlanProcess, Resource
from .timeline import RankTimeline, Segment
from .workload import Message, Workload

#: Fraction of a step's compute that produces subdomain-edge data first
#: (Version 6 computes this before posting its sends).
EDGE_COMPUTE_FRACTION = 0.08

_COMPUTE, _SEND, _RECV = range(3)
#: Where a rank is parked in entry ``i`` (``_NEXT``: nowhere, it goes on).
_NEXT, _WAITING, _CHARGED, _SENDING = range(4)


def _split_for_version(msg: Message, version: Version) -> list[tuple[int, int]]:
    """``(part_index, nbytes)`` pieces of a message under the version's
    grouping policy."""
    if version.split_flux_columns and msg.kind == "flux":
        half = msg.nbytes // 2
        return [(0, half), (1, msg.nbytes - half)]
    return [(0, msg.nbytes)]


class Plan:
    """One run's rank programs, flat: the arrays ``DesPlan`` takes.

    Rank ``r`` replays entries ``eoff[r]`` to ``eoff[r + 1]`` ``steps``
    times.  Entry ``e`` charges ``sec[e]`` CPU seconds as ``op[e]``:
    compute, or the send or receive of piece ``keys[piece[e]]`` to or from
    the neighbour on ``side[e]`` (0: rank ``r - 1``, 1: ``r + 1``) — both
    rank-relative, so ranks of one shape share their entries.  A send's
    wire transfer holds route ``2r + side[e]`` (links ``route[roff[k]:
    roff[k + 1]]`` of route ``k``, indices into ``cap``) for ``wire[e]``
    seconds, plus ``extra[e * steps + s]`` at step ``s`` of a wire-faulty
    run, then marks the piece arrived in its :meth:`slot`, where the
    receive waits."""

    __slots__ = ("nranks", "steps", "blocking", "startup", "keys", "eoff", "op",
                 "sec", "wire", "piece", "side", "roff", "route", "cap", "extra")

    def slot(self, rank: int, e: int) -> int:
        """One per piece and chain link (between ranks ``l``, ``l + 1``)."""
        return (rank - 1 + self.side[e]) * len(self.keys) + self.piece[e]

    def peer(self, e: int) -> tuple[int, int, tuple]:
        """Entry ``e``'s ``(rank, peer, (phase, message, part))``."""
        rank = bisect_right(self.eoff, e) - 1
        return rank, rank - 1 + 2 * self.side[e], self.keys[self.piece[e]]


def build_plan(
    nprocs: int, workload: Workload, version: Version, library: LibraryModel,
    network: Network, steps: int, step_seconds: float,
    speeds: list[float] | None = None, faults=None,
) -> Plan:
    """The :class:`Plan` of ``nprocs`` SPMD ranks in a chain.

    Each message piece's CPU and wire seconds are computed once.  Ranks
    differ only at the chain's ends, in their routes and in their compute
    seconds, ``step_seconds / speeds[r]``; each such shape's entries are
    built once.  Only the links some route names get a capacity.
    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) becomes extra
    occupancy of each transfer (:meth:`~repro.faults.plan.FaultPlan.sim_extra_delay`)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    phases, keys = workload.phases, []
    sends, recvs = [[] for _ in phases], [[] for _ in phases]
    for ph, phase in enumerate(phases):
        for mi, msg in enumerate(phase.messages):
            # Symmetric SPMD: my neighbour's mirror-direction send targets me.
            side = 0 if msg.direction == "L" else 1
            for part, nbytes in _split_for_version(msg, version):
                wire = network.latency + network.transfer_time(nbytes)
                sends[ph].append((_SEND, library.send_cpu_time(nbytes), wire, side, len(keys)))
                recvs[ph].append((_RECV, library.recv_cpu_time(nbytes), wire, 1 - side, len(keys)))
                keys.append((ph, mi, part))
    # An interior rank's step, (op, seconds or compute index, wire, side, piece):
    # V5 and V7 compute each phase, then send and receive its messages; V6
    # produces boundary data, posts every send, then computes the interior.
    overlap = version.overlap_communication
    template = [(_COMPUTE, 0, 0.0, -1, 0)] + sum(sends, []) if overlap else []
    for ph in range(len(phases)):
        template.append((_COMPUTE, ph + 1 if overlap else ph, 0.0, -1, 0))
        template += recvs[ph] if overlap else sends[ph] + recvs[ph]

    def entries(has_left: bool, has_right: bool, scs: float) -> tuple:
        """The op, sec, wire, side and piece arrays of one rank's step."""
        remaining = (1.0 - EDGE_COMPUTE_FRACTION) * scs if overlap else scs
        computes = [EDGE_COMPUTE_FRACTION * scs] if overlap else []
        computes += [phase.compute_fraction * remaining for phase in phases]
        rows = [
            (op, computes[sec] if op == _COMPUTE else sec, wire, side, j)
            for op, sec, wire, side, j in template
            if side < 0 or (has_right if side else has_left)
        ]
        return tuple(array(code, col) for code, col in zip("iddii", zip(*rows)))

    shapes: dict[tuple, tuple] = {}
    columns = tuple(array(code) for code in "iddii")
    eoff = [0]
    for r in range(nprocs):
        shape = (r > 0, r < nprocs - 1,
                 step_seconds / speeds[r] if speeds is not None else step_seconds)
        cols = shapes.get(shape) or shapes.setdefault(shape, entries(*shape))
        for column, part in zip(columns, cols):
            column += part
        eoff.append(len(columns[0]))
    links = [network.link_ids(r, r + d) if 0 <= r + d < nprocs else ()
             for r in range(nprocs) for d in (-1, 1)]
    index: dict[str, int] = {}
    plan = Plan()
    plan.nranks, plan.steps, plan.keys, plan.eoff = nprocs, steps, keys, array("i", eoff)
    plan.blocking, plan.startup = library.blocking_send, library.wire_startup
    plan.route = array("i", [index.setdefault(k, len(index)) for ks in links for k in ks])
    plan.roff = array("i", accumulate(map(len, links), initial=0))
    plan.cap = array("i", [network.capacity(k) for k in index])
    plan.op, plan.sec, plan.wire, plan.side, plan.piece = columns
    plan.extra = None
    if faults is not None and faults.wire_faulty:
        plan.extra = extra = array("d", bytes(8 * len(plan.op) * steps))
        for e in (e for e, op in enumerate(plan.op) if op == _SEND):
            rank, peer, key = plan.peer(e)
            for s in range(steps):
                extra[e * steps + s] = faults.sim_extra_delay(rank, peer, (s,) + key, plan.wire[e])
    return plan


class Transfer(PlanProcess):
    """One wire transfer: protocol startup, hold the route, occupy, signal.

    ``pc`` walks 0 (startup delay) → 1..n (acquire ``route[pc - 1]``) →
    n + 1 (occupancy) → release in reverse, mark ``slots[step]`` arrived and
    wake the rank parked there.  ``owner`` is the process queued on the
    route and scheduled: the sender of a blocking (MPL) send, which calls
    ``resume`` inline, or ``None`` for the transfer itself.  A fault plan's
    extra occupancy is charged while the route is held, so lost messages
    congest a shared wire as real retransmissions would."""

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


class RankProcess(PlanProcess):
    """One rank's entries of ``plan``, replayed ``plan.steps`` times, every
    charge and wait booked on ``timeline`` (and, when tracing, its
    segments), over the run's ``routes`` and ``arrivals`` by slot."""

    __slots__ = ("engine", "rank", "timeline", "plan", "routes", "arrivals",
                 "base", "n", "step", "i", "stage", "t0", "transfer", "child")

    def __init__(self, engine, rank, plan, timeline, routes, arrivals) -> None:
        self.engine, self.rank, self.plan, self.timeline = engine, rank, plan, timeline
        self.routes, self.arrivals = routes, arrivals
        self.name, self.child, self.done = f"rank{rank}", f"rank{rank}.child", False
        self.base, self.n = plan.eoff[rank], plan.eoff[rank + 1] - plan.eoff[rank]
        self.step, self.i, self.stage, self.t0, self.transfer = 0, -1, _NEXT, 0.0, None

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
                e = self.base + i
                op = plan.op[e]
                if tl.segments is not None:
                    self._record("compute" if op == _COMPUTE else "library", now)
                if op == _SEND:
                    extra, step = 0.0, self.step
                    if plan.extra is not None:
                        extra = plan.extra[e * plan.steps + step]
                        if extra > 0.0 and self.engine.tracer is not None:
                            note_fault(self.engine.tracer, plan, now, e, step)
                    route = self.routes[2 * self.rank + plan.side[e]]
                    tr = Transfer(self.engine, self.child, route, plan.wire[e] + extra,
                                  self.arrivals[plan.slot(self.rank, e)], step, plan.startup)
                    if plan.blocking:  # the rank runs it inline, as its owner
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
            if i == self.n:
                i, self.step = 0, self.step + 1
                if self.step == plan.steps:
                    tl.finished_at, self.done = now, True
                    return None
            e = self.base + i
            if plan.op[e] == _RECV:  # wait for the arrival
                self.t0, slots = now, self.arrivals[plan.slot(self.rank, e)]
                if slots[self.step] is not True:
                    slots[self.step] = self
                    self.i, self.stage = i, _WAITING
                    return None
                tl.comm_wait += now - self.t0
        e = self.base + i
        op, seconds = plan.op[e], plan.sec[e]
        self.t0 = now
        tl.busy += seconds
        if op == _COMPUTE:
            tl.compute += seconds
        else:
            tl.library += seconds
        self.i, self.stage = i, _CHARGED
        return seconds


def note_fault(tracer, plan: Plan, now: float, e: int, step: int) -> None:
    """Trace the extra occupancy a fault plan gives entry ``e``'s transfer."""
    rank, peer, _ = plan.peer(e)
    tracer.instant("fault.sim_delay", cat="fault", rank=rank, ts=now, peer=peer, step=step,
                   seconds=round(plan.extra[e * plan.steps + step], 9))


def run(plan: Plan, timelines: list[RankTimeline], tracer=None,
        max_events: int = MAX_EVENTS) -> tuple[float, int]:
    """Run ``plan`` on the Python :class:`~.engine.Engine`, booking rank
    ``r`` on ``timelines[r]``; the end time and the event count."""
    engine = Engine(tracer=tracer)
    links = [Resource(c) for c in plan.cap]
    routes = [[links[k] for k in plan.route[a:b]] for a, b in zip(plan.roff, plan.roff[1:])]
    arrivals = [[None] * plan.steps for _ in range((plan.nranks - 1) * len(plan.keys))]
    for r, timeline in enumerate(timelines):
        engine.add_process(RankProcess(engine, r, plan, timeline, routes, arrivals))
    engine.run(max_events)
    return engine.now, engine.steps
