"""One instrument for every transport.

``Communicator`` is the only place a message is timed and accounted, and
``CommStats`` (``RunResult.per_rank_stats``) the one home of a rank's
message, byte and blocked-time totals: what the other sinks keep per
message (per-call histograms, flight events, ``comm.send`` spans) must add
up to it per rank, and the virtual and process substrates must tell the
same story as each other for the same run.
"""

import ast
import pathlib
import time

import numpy as np
import pytest

import repro
from repro import jet_scenario
from repro.api import run
from repro.faults import FaultPlan
from repro.msglib import ProcessCluster, RankFailure, VirtualCluster
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    use,
)
from repro.parallel.runner import ParallelJetSolver

SUBSTRATES = ("virtual", "process")


def _accounts(substrate: str, version: int) -> list[dict]:
    """Per rank: what each sink counted for one small jet run."""
    res = run(
        "jet", steps=4, nprocs=2, nx=32, nr=16, version=version,
        substrate=substrate, trace=True, metrics=True, flight=1 << 14,
    )
    out = []
    for rank, stats in enumerate(res.per_rank_stats):
        kinds = [e["kind"] for e in res.flight[rank]]
        flown = lambda *ks: sum(e["nbytes"] for e in res.flight[rank] if e["kind"] in ks)
        out.append({
            "sends": stats.sends,
            "recvs": stats.recvs,
            "bytes_sent": stats.bytes_sent,
            "bytes_received": stats.bytes_received,
            "send_hist": res.metrics.get("comm.send_call_seconds", rank).count,
            "recv_hist": res.metrics.get("comm.recv_call_seconds", rank).count,
            "send_spans": len(res.trace.spans_named("comm.send", rank)),
            "flown_sent": flown("send"),
            "flown_received": flown("recv", "recv_view"),
            "flight_sends": kinds.count("send"),
            "flight_recvs": kinds.count("recv") + kinds.count("recv_view"),
            "flight_collectives": kinds.count("collective"),
            # Seconds differ from run to run: compared across the sinks of
            # one run, taken out before substrates are compared.
            "seconds": {
                "recv": stats.recv_seconds,
                "wait": stats.wait_seconds,
                "wait_hist": res.metrics.get("comm.recv_wait_seconds", rank),
                "wait_reported": res.perf.per_rank[rank]["wait_seconds"],
                "wait_in_exchanges": sum(
                    m.value for (name, r), m in res.metrics.items()
                    if r == rank and name.startswith("halo.")
                    and name.endswith("_wait_seconds")
                ),
            },
        })
    return out


@pytest.mark.parametrize("version", [5, 6, 7])
def test_every_sink_agrees_on_every_substrate(version):
    per_substrate = {s: _accounts(s, version) for s in SUBSTRATES}
    for substrate, ranks in per_substrate.items():
        for rank, a in enumerate(ranks):
            where = f"{substrate} rank {rank}"
            assert a["sends"] > 0 and a["recvs"] > 0, where
            assert a["send_hist"] == a["sends"], where
            assert a["recv_hist"] == a["recvs"], where
            assert a["send_spans"] == a["sends"], where
            assert a["flown_sent"] == a["bytes_sent"], where
            assert a["flown_received"] == a["bytes_received"], where
            assert a["flight_sends"] == a["sends"], where
            assert a["flight_recvs"] == a["recvs"], where
            # The blocked part of the receives: inside the receive time,
            # and one number whichever sink is asked for it.
            s = a.pop("seconds")
            assert 0.0 <= s["wait"] <= s["recv"], where
            assert s["wait_hist"].count == a["recvs"], where
            assert s["wait_hist"].sum == pytest.approx(s["wait"], rel=1e-12), where
            assert s["wait_reported"] == s["wait"], where
            # ...and the exchanges' shares of it leave out only what the
            # collectives (dt, gather) waited.
            assert 0.0 < s["wait_in_exchanges"] <= s["wait"], where
    assert per_substrate["virtual"] == per_substrate["process"]


def test_every_total_has_one_home():
    """Where a caller of the tracer's former totals reads them now: messages,
    bytes and blocked time are ``per_rank_stats`` (the test above); halo and
    barrier time are span sums on the timeline, booked once more only as
    ``halo.seconds`` / ``comm.barrier_wait_seconds``; fault totals are
    ``fault.*`` and ``fault_stats``; a simulated rank's compute / library /
    wait are its ``sim.*`` spans (``test_api``) and counters (the report)."""
    res = run(
        "jet", steps=4, nprocs=2, nx=32, nr=16, trace=True, metrics=True,
        faults="lossy-ethernet", fault_seed=3,
    )
    value, total = res.metrics.value, res.trace.total
    for rank, faults in enumerate(res.fault_stats):
        halos = [s for s in res.trace.spans if s.cat == "halo" and s.rank == rank]
        assert 0.0 < sum(s.duration for s in halos) <= value("halo.seconds", rank)
        assert 0.0 < value("comm.barrier_wait_seconds", rank) <= total("comm.allreduce", rank)
        assert faults.retransmissions == value("fault.retransmission", rank)
        assert faults.total_injected == sum(
            value(f"fault.{kind}", rank) for kind in faults.injected
        )
    assert sum(f.total_injected for f in res.fault_stats) > 0


def _cluster(substrate: str):
    if substrate == "process":
        return ProcessCluster(2, timeout=20)
    return VirtualCluster(2, timeout=20)


@pytest.mark.parametrize("view", [False, True])
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_completion_by_test_is_accounted_like_a_blocking_receive(substrate, view):
    """A posted receive that ``test()`` completes reaches every sink, not
    just ``CommStats``, with the time the probe took."""

    def program(comm):
        if comm.rank == 0:
            comm.send(1, "posted", np.arange(16.0))
            return None
        post = comm.irecv_view if view else comm.irecv
        req = post(0, "posted", timeout=20)
        deadline = time.monotonic() + 20
        while not req.test():
            assert time.monotonic() < deadline
            time.sleep(0.001)
        got = req.wait()  # already complete: must not account twice
        if view:
            with got:
                total = float(got.array.sum())
        else:
            total = float(got.sum())
        return total, comm.stats.recvs, comm.stats.recv_seconds

    tracer, reg, flight = Tracer(), MetricsRegistry(), FlightRecorder(256)
    with use(tracer=tracer, metrics=reg, flight=flight):
        cluster = _cluster(substrate)
        try:
            total, recvs, seconds = cluster.run(program)[1]
        finally:
            if substrate == "process":
                cluster.close()
    assert total == 120.0
    assert recvs == 1 and seconds > 0.0
    assert reg.get("comm.recv_call_seconds", 1).count == 1
    events = flight.events(1)
    assert [e["kind"] for e in events] == ["recv_view" if view else "recv"]
    assert events[0]["nbytes"] == 128
    # The probe opened no span; only rank 0's send is on the timeline.
    assert [s.name for s in tracer.trace.spans] == ["comm.send"]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_tag_stash_keeps_no_key_for_a_consumed_message(substrate):
    """Tags carry the step number, so every message has a key of its own:
    a stash that kept the drained deque — or made one just by looking —
    grew by one entry per message for the life of the run."""
    rounds = 200

    def mailbox(comm):
        """What holds the rank's stash and answers ``pending()``."""
        if substrate == "process":
            return comm
        return comm.cluster.mailboxes[comm.rank]

    def program(comm):
        peer = 1 - comm.rank
        keys_while_stashed = []
        for k in range(rounds):
            comm.send(peer, f"{k}:first", np.zeros(4))
            comm.send(peer, f"{k}:second", np.ones(4))
            # Asking for a message that has not come must not leave a key.
            assert not comm.irecv(peer, f"{k}:never").test()
            comm.recv(peer, f"{k}:second", timeout=20)  # "first" waits stashed
            keys_while_stashed.append(len(mailbox(comm)._stash))
            comm.recv(peer, f"{k}:first", timeout=20)
        return min(keys_while_stashed), len(mailbox(comm)._stash), mailbox(comm).pending()

    cluster = _cluster(substrate)
    try:
        results = cluster.run(program)
    finally:
        if substrate == "process":
            cluster.close()
    for stashed, keys_left, pending in results:
        assert stashed >= 1  # the stash was in use...
        assert (keys_left, pending) == (0, 0)  # ...and is empty again


def test_virtual_post_mortem_holds_sends_and_recvs():
    """``RankFailure.flight`` of a virtual-cluster crash shows the message
    traffic that led up to it, as the process substrate's always did."""
    sc = jet_scenario(nx=32, nr=16)
    plan = FaultPlan(seed=1, crashes=((1, 3),), recv_timeout=0.2, recv_retries=2)
    with use(flight=FlightRecorder(512)):
        with pytest.raises(RankFailure) as exc:
            ParallelJetSolver(
                sc.state, sc.solver.config, nranks=2, timeout=20,
                faults=plan, max_restarts=0,
            ).run(6)
    kinds = {e["kind"] for evs in exc.value.flight.values() for e in evs}
    assert {"send", "recv", "collective"} <= kinds


# -- structure ----------------------------------------------------------------

SRC = pathlib.Path(repro.__file__).parent
_SLOTS = ("tracer", "metrics", "stream", "flight")
#: Deleted for good: a get_/set_/use_ triple and a null object per sink,
#: and the fifth message log that lived in ``CommStats``.
_DELETED = {f"{verb}_{slot}" for verb in ("get", "set", "use") for slot in _SLOTS} | {
    "NullTracer", "NullMetrics", "NullStepStream", "NullFlightRecorder",
    "MessageRecord",
}
#: The sinks' own recording methods: outside ``obs/`` only a verb of
#: ``repro.obs.spine`` leads to one.
_SINK_METHODS = {"observe", "gauge", "publish", "add_span", "record"}
#: Same method names on objects that are not sinks.
_NOT_A_SINK = {
    ("service/service.py", "self.detector.observe"),  # a StragglerDetector
    ("analysis/jetdiag.py", "self.record"),  # the diagnostics' own sampler
}
#: The one documented hand-off: the DES (``simulate/engine.py`` and
#: ``simulate/machine.py``, explicit ``tracer=``) stamps records with the
#: engine's clock, so ``_run_simulated`` passes it ``current().tracer``.
_READS_A_SLOT = {"api.py"}


def _seam_breaches(path: pathlib.Path) -> list[str]:
    """What ``path`` does to a sink other than through a verb."""
    rel = path.relative_to(SRC).as_posix()
    tree = ast.parse(path.read_text())
    found = []
    held = {  # names bound to ``current()``
        target.id
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "current"
        for target in node.targets if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        name = (
            getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None)
        )
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in _DELETED:
            found.append(f"names {name}")
        if rel.startswith("obs/") or not isinstance(node, ast.Attribute):
            continue
        text = ast.unparse(node)
        if node.attr == "enabled" and not text.endswith("plan.enabled"):
            found.append(f"reads {text}")
        if node.attr in _SINK_METHODS and (rel, text) not in _NOT_A_SINK:
            found.append(f"calls {text}")
        on_current = ast.unparse(node.value) == "current()" or (
            getattr(node.value, "id", None) in held
        )
        if node.attr in _SLOTS and on_current and rel not in _READS_A_SLOT:
            found.append(f"reads {text}")
    return found


def test_transports_only_move_bytes():
    """One seam, tree-wide: no file names a deleted accessor or null
    object; outside ``obs/`` none reads ``.enabled`` of anything but a
    ``FaultPlan``, calls a sink's own method, or takes a sink out of
    ``current()``.  The transports still name nothing from ``repro.obs``
    but ``ForkedRanks`` / ``bind_rank`` and never touch ``CommStats``
    themselves (``slot_wait`` goes through ``Communicator._mark``)."""
    breaches = {
        path.relative_to(SRC).as_posix(): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := _seam_breaches(path))
    }
    assert not breaches
    for name in ("virtual.py", "process.py", "mpi.py"):
        tree = ast.parse((SRC / "msglib" / name).read_text())
        from_obs = {
            alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == "obs"
            for alias in node.names
        }
        assert from_obs <= {"ForkedRanks", "bind_rank"}, name
        named = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert not named & {"record_send", "record_recv", "current"}, name
