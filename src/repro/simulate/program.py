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
"""

from __future__ import annotations

from typing import Callable, Generator

from ..machines.network.base import Network
from ..msglib.libmodel import LibraryModel
from ..parallel.versions import Version
from .engine import Acquire, Delay, Event, Release, Resource, Spawn, Trigger, Wait
from .timeline import RankContext
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


def transfer_process(
    network: Network,
    resources: dict[str, Resource],
    src: int,
    dst: int,
    nbytes: int,
    arrival: Event,
    wire_startup: float = 0.0,
    extra_delay: float = 0.0,
) -> Generator:
    """Wire transfer: protocol startup, hold the route, occupy, signal.

    ``extra_delay`` is additional route occupancy injected by a fault plan
    (retransmissions of dropped/truncated frames plus delay jitter) — it is
    charged while the route is held, so lost messages congest the shared
    wire exactly as real retransmissions would."""
    route = [resources[k] for k in network.link_ids(src, dst)]
    occupancy = network.latency + network.transfer_time(nbytes) + extra_delay
    return _transfer(route, occupancy, arrival, wire_startup)


def _transfer(
    route: list[Resource], occupancy: float, arrival: Event, wire_startup: float
) -> Generator:
    """:func:`transfer_process` over a route of resolved resources."""
    if wire_startup > 0.0:
        yield Delay(wire_startup)
    for res in route:
        yield Acquire(res)
    yield Delay(occupancy)
    for res in reversed(route):
        yield Release(res)
    yield Trigger(arrival)


_COMPUTE, _SEND, _RECV = range(3)


def build_rank_program(
    ctx: RankContext,
    rank: int,
    nprocs: int,
    workload: Workload,
    version: Version,
    library: LibraryModel,
    network: Network,
    resources: dict[str, Resource],
    event_for: Callable[[tuple], Event],
    steps: int,
    step_compute_seconds: float,
    faults=None,
    fault_note: Callable[[int, int, tuple, float], None] | None = None,
) -> Generator:
    """The SPMD program of one rank as an event-engine generator.

    The rank's step is planned once, before the first event: a flat list
    of time charges — compute, a message piece's send (library time, then
    the wire transfer over the pre-resolved route) or its receive (the
    wait, then library time) — with every per-message figure computed up
    front.  Each step replays that plan.

    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) maps the plan's
    wire-level faults onto deterministic extra occupancy of each transfer
    (see :meth:`~repro.faults.plan.FaultPlan.sim_extra_delay`);
    ``fault_note`` is called once per afflicted transfer so the machine can
    record the injection through the tracer."""
    left = rank - 1 if rank > 0 else None
    right = rank + 1 if rank < nprocs - 1 else None
    routes = {
        dst: [resources[k] for k in network.link_ids(rank, dst)]
        for dst in (left, right)
        if dst is not None
    }

    def messages(ph: int, phase, op: int) -> list[tuple]:
        """Plan entries ``(op, peer, (ph, mi, part), cpu_seconds, wire)``
        of one phase's sends or receives, split for the version."""
        out = []
        cpu_time = library.send_cpu_time if op == _SEND else library.recv_cpu_time
        for mi, msg in enumerate(phase.messages):
            # Symmetric SPMD: my neighbour's mirror-direction send targets me.
            peer = left if (msg.direction == "L") == (op == _SEND) else right
            if peer is None:
                continue
            for part, nbytes in _split_for_version(msg, version):
                wire = network.latency + network.transfer_time(nbytes)
                out.append((op, peer, (ph, mi, part), cpu_time(nbytes), wire))
        return out

    def compute(seconds: float) -> tuple:
        return (_COMPUTE, None, None, seconds, None)

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

    engine, tl = ctx.engine, ctx.timeline
    traced = tl.segments is not None
    wire_faulty = faults is not None and faults.wire_faulty
    blocking, wire_startup = library.blocking_send, library.wire_startup
    for step in range(steps):
        for op, peer, key, seconds, wire in plan:
            if op == _RECV:  # wait for the arrival, then pay the receive
                t0 = engine.now
                yield Wait(event_for((peer, rank, step) + key))
                tl.comm_wait += engine.now - t0
                if traced:
                    ctx._record("wait", t0)
            t0 = engine.now
            tl.busy += seconds
            if op == _COMPUTE:
                tl.compute += seconds
            else:
                tl.library += seconds
            yield Delay(seconds)
            if traced:
                ctx._record("compute" if op == _COMPUTE else "library", t0)
            if op != _SEND:
                continue
            arrival = event_for((rank, peer, step) + key)
            extra = 0.0
            if wire_faulty:
                extra = faults.sim_extra_delay(rank, peer, (step,) + key, wire)
                if extra > 0.0 and fault_note is not None:
                    fault_note(rank, peer, (step,) + key, extra)
            transfer = _transfer(routes[peer], wire + extra, arrival, wire_startup)
            if blocking:
                t0 = engine.now
                yield from transfer
                tl.comm_wait += engine.now - t0
            else:
                yield Spawn(transfer)
    ctx.finish()
