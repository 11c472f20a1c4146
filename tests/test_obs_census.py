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
``metrics`` digests and ``updates`` totals moved by.  The ``spans``,
``instants`` and ``flight`` sections of every run, and the serial and
simulated runs entirely, still carry the digests of that commit.
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
    248, 0, 555, 106, 8, spans="675132fa3212", metrics="744834fed34b",
    flight="7c9c5328ecdf", stream="f51d88854fa7",
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
            336, 0, 771, 170, 8, spans="533c6ff6649a", metrics="8c4fa16a8b0f",
            flight="b4a155605e27", stream="f51d88854fa7",
        ),
    ),
    "2x2-v7-process": (
        dict(nprocs=4, version=7, decomposition="2d", px=2, pr=2,
             substrate="process"),
        expect(
            958, 0, 2335, 522, 16, spans="dbb259928e9c", metrics="f491c43b433d",
            flight="3f6f8fa7bf27", stream="b6f560f6b524",
        ),
    ),
    "p2-v5-lossy3": (
        dict(nprocs=2, version=5, faults="lossy-ethernet", fault_seed=3),
        expect(
            256, 28, 600, 114, 8,
            spans="93d0323b84f2", instants="7c7089dcc4db",
            metrics="44427ce0d4aa", flight="4a8dc7df22a8", stream="20f2c39413b1",
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
