"""Per-step telemetry: the ``repro.stream/1`` record and the balance verdict.

While a run executes, each rank writes one compact record per solver step
— step number, simulated time, dt, wall ms, comm split and byte deltas —
into the step ring installed with ``obs.use(stream=...)``.  That ring is a
:class:`~repro.obs.flight.FlightRing` like the flight recorder's, so it
crosses a fork the same way (forked ranks write the ``MAP_SHARED`` file
their parent made) and survives a SIGKILLed writer.  The solver hands the
``step`` verb of :mod:`repro.obs.spine` a callback, so with no ring
installed the record is never even built.

:func:`step_record` builds a record, :func:`read_steps` reads a ring's
records back (once each, when polled with ``since``), and
:func:`imbalance_verdict` flags load imbalance (max/mean step time) and
comm-bound ranks (communication share of step time) — over a finished
run's per-rank rows or over the records in a ring's window — the "why was
this slow" signal the paper's comp:comm tables answer by hand.
"""

from __future__ import annotations

#: Version tag carried by every streamed step record.
STREAM_SCHEMA = "repro.stream/1"

#: Step records a ring made for one run keeps per rank.
STEP_DEPTH = 1024
#: Slot size of a step ring: the largest record (a faulted distributed
#: step, ~270 B with the ring's ``kind`` / ``t`` framing) with room to spare.
STEP_SLOT_BYTES = 384


def step_record(
    *,
    rank: int,
    step: int,
    t: float,
    dt: float,
    ms: float,
    **extra,
) -> dict:
    """One ``repro.stream/1`` record.  ``extra`` carries optional fields
    (``comm_ms`` and the blocked part of it, ``wait_ms``; ``sent_bytes``,
    ``retries``, ...)."""
    rec = {
        "schema": STREAM_SCHEMA,
        "rank": rank,
        "step": step,
        "t": t,
        "dt": dt,
        "ms": ms,
    }
    if extra:
        rec.update(extra)
    return rec


def read_steps(ring, since: dict[int, int] | None = None) -> list[dict]:
    """The ``repro.stream/1`` records in ``ring``, ordered by
    ``(step, rank)``.

    ``since`` maps a rank to the records of it already read: only later
    ones come back, and ``since`` is advanced past them, so a poller sees
    each record once."""
    records = []
    for rank in range(ring.nranks):
        stop = ring.written(rank)
        start = 0 if since is None else since.get(rank, 0)
        for event in ring.read(rank, start, stop):
            if event.pop("kind", None) == "step":
                records.append(event)
        if since is not None:
            since[rank] = stop
    records.sort(key=lambda r: (r["step"], r["rank"]))
    return records


# -- imbalance analysis -------------------------------------------------------

#: A rank whose mean step time exceeds the cross-rank mean by this factor
#: is flagged as a straggler.
IMBALANCE_RATIO = 1.5
#: A rank spending at least this share of its step inside communication is
#: flagged as comm-bound.
COMM_BOUND_SHARE = 0.5


def imbalance_verdict(
    per_rank: list[dict],
    *,
    ratio_threshold: float = IMBALANCE_RATIO,
    comm_threshold: float = COMM_BOUND_SHARE,
) -> dict | None:
    """Balance verdict over per-rank rows; the rows of one rank add up.

    A row carries ``rank`` plus either (:class:`PerfReport` rows of real
    runs) ``step_seconds`` / ``comm_seconds``, (of simulated runs)
    ``comp_seconds`` + ``comm_seconds``, or (``repro.stream/1`` records)
    ``ms`` / ``comm_ms``; rows without timing signal are ignored.  Returns
    ``None`` for fewer than two usable ranks.
    """
    step_s: dict[int, float] = {}
    comm_s: dict[int, float] = {}
    for row in per_rank:
        rank = row.get("rank")
        if rank is None:
            continue
        if "ms" in row:
            step = 1e-3 * row["ms"]
            comm = 1e-3 * row.get("comm_ms", 0.0)
        else:
            comm = float(row.get("comm_seconds") or 0.0)
            step = row.get("step_seconds")
            if step is None:
                comp = row.get("comp_seconds")
                if comp is None:
                    continue
                step = float(comp) + comm
        step_s[rank] = step_s.get(rank, 0.0) + float(step)
        comm_s[rank] = comm_s.get(rank, 0.0) + comm
    ranks = sorted(r for r, s in step_s.items() if s > 0.0)
    if len(ranks) < 2:
        return None
    mean = sum(step_s[r] for r in ranks) / len(ranks)
    slowest = max(ranks, key=lambda r: step_s[r])
    share = {r: comm_s[r] / step_s[r] for r in ranks}
    comm_bound = [r for r in ranks if share[r] >= comm_threshold]
    flags = []
    if step_s[slowest] / mean > ratio_threshold:
        flags.append("imbalanced")
    if comm_bound:
        flags.append("comm-bound")
    return {
        "schema": "repro.balance/1",
        "ranks": len(ranks),
        "max_mean_step_ratio": round(step_s[slowest] / mean, 4),
        "slowest_rank": slowest,
        "comm_bound_ranks": comm_bound,
        "comm_share": {str(r): round(share[r], 4) for r in ranks},
        "verdict": "+".join(flags) if flags else "balanced",
    }
