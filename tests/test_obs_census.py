"""What every sink records, pinned: the observation census.

Seven small ``jet`` runs with all four sinks on, reduced to *shapes* —
every span's ``(name, cat, rank, parent, argument keys)``, every instant,
every metric's ``(name, rank, type)`` with its update count, every flight event's kind and field names, every stream
record's keys — so a change to the instrumentation plumbing that moves,
renames, drops or doubles an observation fails here, while timings stay
free to vary.  Timing-dependent ``slot_wait`` flight events are left out.

The expectations were recorded by running this file's own
:func:`census` on a clone of the commit before ``repro.obs.spine``
existed (``python tests/test_obs_census.py`` prints them); it imports
nothing newer than ``run`` and ``BufferStepStream`` for that reason.
Three deliberate differences from that commit.  A process-substrate run
now delivers its step records (there: none).  Every receive carries one
new field, the part of it spent blocked before the message had arrived:
a ``comm.recv_wait_seconds`` histogram (one update per receive), a
``halo.<kind>_wait_seconds`` counter (one update per exchange), a
``comm.wait_seconds`` total per rank in the report, and ``wait_ms`` beside
``comm_ms`` in a distributed step record — so the ``metrics`` and
``stream`` sections of the message-passing runs were recorded again
(``updates`` grew by receives + exchanges + ranks: 51 + 64 + 2 for the
2-rank V5 runs).  And the tracer stopped keeping totals: the ``counters``
section that pinned its keys is gone with them, and the one total without
a ledger name got one, ``comm.barrier_wait_seconds`` — one counter per
rank of the distributed runs, one update each, which is all their
``metrics`` digests and ``updates`` totals moved by.

PR 22 replaced the per-phase exchanges by one halo per neighbour per
step, and every section of the five message-passing runs except their
``stream`` keys was recorded again; the serial and simulated rows still
carry the digests of the commit above.  Diffing the parent's census with
this one (2-rank V5, 4 steps), the names that moved: spans
``halo.uvT`` (32), ``halo.flux_high`` / ``halo.flux_low`` /
``halo.state_high`` / ``halo.state_low`` (8 each) are gone for
``halo.state`` (8: one per rank and step) under a new ``solver.halo``
stage span (8); histograms ``halo.<those five>_seconds`` and counters
``halo.<those five>_wait_seconds`` are gone for ``halo.state_seconds`` /
``halo.state_wait_seconds`` and the ``stage.halo`` histogram;
``halo.exchanges`` / ``halo.bytes`` / ``halo.seconds`` fall from 64
updates to 8, ``comm.send`` spans and ``send`` flight events from 51 to
11, receives from 51 to 11 (8 of them ``recv_view``).  No name appears
that is not listed here.  A Version 7 run receives its ``H`` one-line
messages as views too (``recv_view`` 8 -> 64 on two radial ranks); the
lossy run draws fewer faults because there are fewer messages to draw on.

PR 24 deleted the slot-borrow protocol and the halo is filled from ``recv``
/ ``irecv``: the ``spans`` and ``flight`` sections of four runs were
recorded again, every total unchanged.  Diffing the parent's census with
this one, nothing moved but a name: ``comm.recv_view`` spans under
``halo.state`` became ``comm.recv`` and ``recv_view`` flight events
``recv`` — 8 in each 2-rank V5 run (of its 11 receives), 64 on the two
radial V7 ranks, 256 on the 2 x 2 V7 grid.  The lossy run always received
through the framed ``recv`` and did not move; neither did any ``metrics``
or ``stream`` digest, nor the serial and simulated rows.
"""

import hashlib
import json
import multiprocessing
from collections import Counter

import pytest

from repro.api import run
from repro.numerics.kernels import get_backend
from repro.obs import BufferStepStream

SECTIONS = ("spans", "instants", "metrics", "flight", "stream")
TOTALS = ("spans", "instants", "updates", "flight", "stream")
EMPTY = "4f53cda18c2b"


def expect(*totals: int, **digests: str) -> dict:
    """Totals in :data:`TOTALS` order; a section not named saw nothing."""
    return {
        "totals": dict(zip(TOTALS, totals, strict=True)),
        **{section: digests.get(section, EMPTY) for section in SECTIONS},
    }


P2_V5 = expect(
    120, 0, 163, 26, 8, spans="e1795222f3e8", metrics="5fe0f387ef1f",
    flight="56b098efcfc2", stream="f51d88854fa7",
)

#: run -> (options, totals and per-section digests; see the module
#: docstring for which were recorded where.  The two process rows carry the
#: virtual substrate's stream section).
RUNS = {
    "serial": ({}, expect(
        40, 0, 32, 0, 4,
        spans="e6c2e9c5cb11", metrics="b900f34e21c4", stream="033148a3acf4",
    )),
    "p2-v5-virtual": (dict(nprocs=2, version=5), P2_V5),
    "p2-v5-process": (dict(nprocs=2, version=5, substrate="process"), P2_V5),
    "p2-radial-v7-compiled": (
        dict(nprocs=2, version=7, decomposition="radial", backend="compiled"),
        expect(
            232, 0, 331, 138, 8, spans="b875202139ac", metrics="c01ddbcfdf27",
            flight="3a2e4c3a0b72", stream="f51d88854fa7",
        ),
    ),
    "2x2-v7-process": (
        dict(nprocs=4, version=7, decomposition="2d", px=2, pr=2,
             substrate="process"),
        expect(
            742, 0, 1135, 538, 16, spans="5384b8848561", metrics="4200956d119f",
            flight="ae1b7f7a2402", stream="b6f560f6b524",
        ),
    ),
    "p2-v5-lossy3": (
        dict(nprocs=2, version=5, faults="lossy-ethernet", fault_seed=3),
        expect(
            125, 9, 183, 31, 8,
            spans="8969083bc48b", instants="880ce1eb6c77",
            metrics="3f3d23aabee0", flight="970fd816eb66", stream="20f2c39413b1",
        ),
    ),
    "t3d-p4": (dict(platform="Cray T3D", nprocs=4), expect(
        2700, 10808, 25, 0, 0,
        spans="a2823479ea18", instants="9e8a59030693", metrics="2cab0dd76ee0",
    )),
}


def census(options: dict) -> dict:
    """One run with every sink on, reduced to sorted shape -> count maps."""
    buf = BufferStepStream(1 << 14)
    opts = dict(nx=32, nr=16, trace=True, metrics=True, flight=1 << 14, stream=buf)
    if "platform" not in options:
        opts["steps"] = 4
    res = run("jet", **opts, **options)
    keys = lambda args: tuple(k for k, _ in args)
    shapes = {
        "spans": Counter(
            (s.name, s.cat, s.rank, s.parent, keys(s.args)) for s in res.trace.spans
        ),
        "instants": Counter(
            (e.name, e.cat, e.rank, keys(e.args)) for e in res.trace.events
        ),
        "metrics": {
            (name, rank, type(m).__name__): m.updates
            for (name, rank), m in res.metrics.items()
        },
        "flight": Counter(
            (rank, e["kind"], tuple(sorted(e)))
            for rank, events in (res.flight or {}).items()
            for e in events if e["kind"] != "slot_wait"
        ),
        "stream": Counter((r["rank"], tuple(sorted(r))) for r in buf.records()),
    }
    out = {
        section: sorted((repr(shape), n) for shape, n in shapes[section].items())
        for section in SECTIONS
    }
    out["totals"] = {
        "spans": len(res.trace.spans),
        "instants": len(res.trace.events),
        "updates": res.metrics.total_updates,
        "flight": sum(shapes["flight"].values()),
        "stream": len(buf.records()),
    }
    return out


def digest(section: list) -> str:
    return hashlib.sha256(json.dumps(section).encode()).hexdigest()[:12]


@pytest.mark.parametrize("name", RUNS)
def test_observation_census_is_unchanged(name):
    options, expected = RUNS[name]
    if options.get("substrate") == "process" and (
        "fork" not in multiprocessing.get_all_start_methods()
    ):
        pytest.skip("process substrate needs the fork start method")
    if options.get("backend") == "compiled" and not get_backend("compiled").available():
        pytest.skip("no compiled kernel engine on this host")
    seen = census(options)
    assert seen["totals"] == expected["totals"]
    for section in SECTIONS:
        assert digest(seen[section]) == expected[section], (
            f"{name}: the {section} census moved; it now reads "
            f"{json.dumps(seen[section])}"
        )


if __name__ == "__main__":  # record the expectations (see the module docstring)
    for run_name, (run_options, _) in RUNS.items():
        recorded = census(run_options)
        print(run_name, recorded["totals"])
        print("   ", {section: digest(recorded[section]) for section in SECTIONS})
