"""Race hunt over the process transport (``make stress``; ROADMAP 1(c)).

Not collected by tier-1 (the name matches no ``python_files`` pattern).
Run as a script it confines itself — and so every rank it forks — to one
CPU, starts one busy-looping process beside it on that CPU, and runs one
pytest session over the transport's own tests and the process rows of the
equivalence lattice (chaos and crash/restart rows included), each test
``STRESS_N`` (default 10) times.  As a plugin of that session it redraws
the transport's timing constants before every repetition, from a seed it
prints (``STRESS_SEED`` replays it):

* ``process._POLL`` from {0.005, 0.05} and ``process._SPIN`` from
  {0, 0.002} — the module attributes the forked ranks inherit; the tests'
  own bounds keep the nominal values they imported;
* ``ProcessCluster``'s default ring depth from {1, 2, 8}, for every cluster
  a test or the solver builds without naming one — Version 7 and fault
  rows included: a head-to-head flood deeper than the ring finishes,
  because a blocked sender ingests its own inbox.

``TestSpinThenSleep`` keeps the nominal ``_POLL`` and ``_SPIN``: its tests
stretch the seams between exactly those two and set their own.

Every lattice row asserts ``array_equal`` to serial itself.  A failing
repetition leaves its drawn constants in the report and the flight rings of
its ranks in ``STRESS_DIR`` (default ``.stress/``), one ``.jsonl`` each.

One case lives here because it is the new rule's liveness edge and nothing
else: on a 1-slot ring, a receiver parked on another tag while its sender
is two messages ahead.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import re
import sys
import time

import numpy as np
import pytest

from repro.msglib import ProcessCluster
from repro.msglib import process as transport
from repro.obs import FlightRing, use
from repro.obs.flight import write_flight_jsonl

ROUNDS = int(os.environ.get("STRESS_N", "10"))
SEED = os.environ.get("STRESS_SEED", "")
OUT = os.environ.get("STRESS_DIR", ".stress")

TESTS = os.path.dirname(os.path.abspath(__file__))
SELECTION = [
    f"{TESTS}/test_process.py::TestProcessCluster",
    f"{TESTS}/test_process.py::TestSpinThenSleep",
    f"{TESTS}/test_process.py::TestRecvView",
    f"{TESTS}/test_lattice.py::TestLattice::test_row",
    f"{TESTS}/stress_transport.py",
]
#: Asserts that a receive answered inside the spin window never slept: a
#: latency a busy neighbour on the one CPU takes away by design, not a race.
DESELECT = (
    f"{TESTS}/test_process.py::TestSpinThenSleep::"
    "test_message_inside_the_spin_window_needs_no_sleeping_poll"
)


def test_one_slot_ring_sender_two_ahead():
    """Rank 1 waits for ``z`` only; ``a`` and ``b`` must cross the single
    slot ahead of it, each freed by the receive that is parked on ``z``."""

    def program(comm):
        if comm.rank == 0:
            for tag in "abz":
                comm.send(1, tag, np.full(8, float(ord(tag))))
            return None
        got = [comm.recv(0, tag, timeout=20) for tag in "zba"]
        return [chr(int(g[0])) for g in got]

    with ProcessCluster(2, timeout=20, slots_per_channel=1) as cluster:
        assert cluster.run(program)[1] == list("zba")


# -- the plugin ------------------------------------------------------------------


def pytest_generate_tests(metafunc):
    # This module is both the session's plugin and one of its test modules:
    # for its own test the hook is offered twice.
    if "_stress_round" not in metafunc.fixturenames:
        metafunc.fixturenames.append("_stress_round")
        metafunc.parametrize("_stress_round", range(ROUNDS), indirect=True)


@pytest.fixture
def _stress_round(request):
    return request.param


@pytest.fixture(autouse=True)
def _stress_knobs(request, monkeypatch):
    node = request.node
    rng = random.Random(f"{SEED}/{node.nodeid}")
    poll = rng.choice((0.005, 0.05))
    spin = rng.choice((0.0, 0.002))
    slots = rng.choice((1, 2, 8))
    if "TestSpinThenSleep" in node.nodeid:
        poll, spin = transport._POLL, transport._SPIN
    row = node.callspec.params.get("row") if hasattr(node, "callspec") else None
    if row is not None:
        request.module.verdict.cache_clear()  # each repetition reruns its row
    monkeypatch.setattr(transport, "_POLL", poll)
    monkeypatch.setattr(transport, "_SPIN", spin)
    timeout, slot_bytes, _ = ProcessCluster.__init__.__defaults__
    monkeypatch.setattr(
        ProcessCluster.__init__, "__defaults__", (timeout, slot_bytes, slots)
    )
    # One ring per repetition, a region for each rank of the widest lattice
    # row (the session collected that module before any fixture runs).
    from test_lattice import AXES

    ring = FlightRing.create(
        nranks=max(px * pr for px, pr in AXES["grid"]), capacity=256
    )
    node._stress = (f"_POLL={poll} _SPIN={spin} ring={slots}", ring)
    with use(flight=ring):
        yield
    ring.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.when == "call" and report.failed and hasattr(item, "_stress"):
        knobs, ring = item._stress
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, re.sub(r"\W+", "_", item.nodeid)[-120:] + ".jsonl")
        # Every forked rank wrote the ring its test installed.
        write_flight_jsonl(ring.events_by_rank(), path)
        report.sections.append(("stress", f"{knobs}; flight rings: {path}"))


# -- the driver ------------------------------------------------------------------


def _hog() -> None:
    while True:
        pass


def main() -> int:
    seed = SEED or str(random.SystemRandom().randrange(2**31))
    os.environ["STRESS_SEED"] = seed
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by the hog and by every rank
    hog = multiprocessing.get_context("fork").Process(target=_hog, daemon=True)
    hog.start()
    print(
        f"[stress] seed = {seed} (replay with STRESS_SEED={seed}), {ROUNDS} "
        f"repetitions, cpu {cpu} shared with hog pid {hog.pid}", flush=True,
    )
    began = time.monotonic()
    try:
        code = pytest.main([
            *SELECTION, "-p", "stress_transport", "-p", "no:cacheprovider",
            "-k", "not virtual", "--deselect", DESELECT,
        ])
    finally:
        hog.terminate()
        hog.join()
    print(f"[stress] exit {int(code)} after {time.monotonic() - began:.0f} s", flush=True)
    return int(code)


if __name__ == "__main__":
    sys.path.insert(0, TESTS)
    sys.exit(main())
