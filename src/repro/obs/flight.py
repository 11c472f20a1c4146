"""Flight recorder: a bounded ring of the last N events per rank.

When a rank dies — worker SIGKILLed, process crash, hung collective — the
spans and metrics it was accumulating die with it.  The flight recorder
keeps only the *last* ``capacity`` structured events per rank (sends and
recvs with tags, slot-semaphore waits, collective entries, checkpoint
marks) in a fixed-size ring, cheap enough to leave on for whole runs, and
written so a *parent* process can recover the ring after the writer is
killed.

There is one recorder, :class:`FlightRing`: a file-backed mmap ring with
one single-writer region per rank, installed with ``obs.use(flight=...)``
and fed by the ``message`` and ``mark`` verbs of :mod:`repro.obs.spine`
(the step ring of ``obs.use(stream=...)`` is one more, fed by the ``step``
verb; :mod:`repro.obs.stream`).
Serial and thread ranks write it in this process; forked ranks inherit
the ``MAP_SHARED`` mapping and write the same file.  Because the file
lives on disk (page cache), any process that knows the path can
:meth:`FlightRing.open` it and read the last events of every rank —
including after the writers were SIGKILLed mid-write (torn slots are
detected and skipped, never propagated).

Post-mortems are flushed as JSON lines (``results/<fp>.flight.jsonl`` in
the service store) via :func:`write_flight_jsonl` /
:func:`read_flight_jsonl` under the ``repro.flight/1`` schema.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import tempfile
import time

#: Version tag on flushed flight files.
FLIGHT_SCHEMA = "repro.flight/1"

#: Default ring depth per rank.
DEFAULT_CAPACITY = 64
#: Default byte budget per ring slot (one JSON-encoded event).
DEFAULT_SLOT_BYTES = 256

_MAGIC = b"RFR1"
_HEADER = struct.Struct("<4sIII")  # magic, nranks, capacity, slot_bytes
_COUNTER = struct.Struct("<Q")  # per-rank monotone write count
_SLOT_LEN = struct.Struct("<I")  # payload length prefix per slot


class FlightRing:
    """File-backed mmap ring: ``header | per-rank (counter + slots)``.

    Layout (all little-endian)::

        [4s magic][I nranks][I capacity][I slot_bytes]
        rank 0: [Q write_count][capacity x (I length + payload)]
        rank 1: ...

    One writer per rank region (no cross-rank locking) — a rank records
    only its own events, from its own thread or process; readers in any
    process open the same file and tolerate torn slots.  The write count
    lives in the file, so a rank forked afresh after a restart continues
    where its predecessor stopped.
    """

    def __init__(self, path: str, fileobj, mm: mmap.mmap, nranks: int,
                 capacity: int, slot_bytes: int, owned: bool = False) -> None:
        self.path = path
        self._file = fileobj
        self._mm = mm
        self.nranks = nranks
        self.capacity = capacity
        self.slot_bytes = slot_bytes
        self._owned = owned

    # -- construction ---------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | None = None,
        nranks: int = 1,
        capacity: int = DEFAULT_CAPACITY,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "FlightRing":
        """Create (or truncate) the ring file for ``nranks`` writers; with
        no ``path``, a temp file that :meth:`close` removes."""
        owned = path is None
        if owned:
            fd, path = tempfile.mkstemp(prefix="repro-flight-", suffix=".ring")
            os.close(fd)
        size = _HEADER.size + nranks * cls._rank_region(capacity, slot_bytes)
        fh = open(path, "w+b")
        try:
            fh.truncate(size)
            fh.write(_HEADER.pack(_MAGIC, nranks, capacity, slot_bytes))
            fh.flush()
            mm = mmap.mmap(fh.fileno(), size)
        except BaseException:
            fh.close()
            if owned:
                os.unlink(path)
            raise
        return cls(path, fh, mm, nranks, capacity, slot_bytes, owned)

    @classmethod
    def open(cls, path: str) -> "FlightRing":
        """Map an existing ring file (reader side; e.g. post-mortem)."""
        fh = open(path, "r+b")
        try:
            header = fh.read(_HEADER.size)
            magic, nranks, capacity, slot_bytes = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise ValueError(f"{path}: not a flight-ring file")
            size = _HEADER.size + nranks * cls._rank_region(capacity, slot_bytes)
            mm = mmap.mmap(fh.fileno(), size)
        except BaseException:
            fh.close()
            raise
        return cls(path, fh, mm, nranks, capacity, slot_bytes)

    @staticmethod
    def _rank_region(capacity: int, slot_bytes: int) -> int:
        return _COUNTER.size + capacity * (_SLOT_LEN.size + slot_bytes)

    # -- geometry -------------------------------------------------------------
    def _rank_offset(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} outside ring (nranks={self.nranks})")
        return _HEADER.size + rank * self._rank_region(
            self.capacity, self.slot_bytes
        )

    def _slot_offset(self, rank: int, index: int) -> int:
        return (
            self._rank_offset(rank)
            + _COUNTER.size
            + (index % self.capacity) * (_SLOT_LEN.size + self.slot_bytes)
        )

    def written(self, rank: int) -> int:
        """How many events ``rank`` has recorded (the ring keeps the last
        ``capacity`` of them)."""
        return _COUNTER.unpack_from(self._mm, self._rank_offset(rank))[0]

    # -- writer side ----------------------------------------------------------
    def record(self, kind: str, rank: int = 0, **fields) -> None:
        """Append one event to ``rank``'s region (the recorder protocol)."""
        event = {"kind": kind, "rank": rank, "t": time.time()}
        if fields:
            event.update(fields)
        payload = json.dumps(event, separators=(",", ":")).encode()
        self._write_slot(rank, self.written(rank), payload)

    def _write_slot(self, rank: int, index: int, payload: bytes) -> None:
        """Payload first, length second, counter last: a reader that races
        (or outlives) the writer sees either the previous complete event or
        a torn slot that fails to parse, never a half-event accepted as
        truth.  A payload the slot cannot hold is refused before anything
        is written."""
        if len(payload) > self.slot_bytes:
            raise ValueError(
                f"a {len(payload)}-byte event does not fit a "
                f"{self.slot_bytes}-byte flight-ring slot"
            )
        off = self._slot_offset(rank, index)
        self._mm[off + _SLOT_LEN.size : off + _SLOT_LEN.size + len(payload)] = (
            payload
        )
        _SLOT_LEN.pack_into(self._mm, off, len(payload))
        _COUNTER.pack_into(self._mm, self._rank_offset(rank), index + 1)

    # -- reader side ----------------------------------------------------------
    def read(self, rank: int, start: int = 0, stop: int | None = None) -> list[dict]:
        """The rank's surviving events, oldest first; torn slots skipped.
        ``start`` / ``stop`` bound the write indices read (default: all
        of them)."""
        if stop is None:
            stop = self.written(rank)
        events = []
        for index in range(max(start, stop - self.capacity), stop):
            off = self._slot_offset(rank, index)
            (length,) = _SLOT_LEN.unpack_from(self._mm, off)
            if not 0 < length <= self.slot_bytes:
                continue
            raw = self._mm[off + _SLOT_LEN.size : off + _SLOT_LEN.size + length]
            try:
                event = json.loads(raw.decode())
            except (ValueError, UnicodeDecodeError):
                continue  # torn write from a killed rank
            if isinstance(event, dict):
                events.append(event)
        return events

    def events_by_rank(self) -> dict[int, list[dict]]:
        """``rank -> events`` of every rank that recorded something."""
        return {
            rank: events
            for rank in range(self.nranks)
            if (events := self.read(rank))
        }

    def close(self) -> None:
        """Unmap the file; a temp ring (:meth:`create` with no path) is
        also deleted."""
        try:
            self._mm.close()
        finally:
            self._file.close()
            if self._owned:
                self._owned = False
                os.unlink(self.path)


# -- post-mortem files --------------------------------------------------------

def write_flight_jsonl(events_by_rank: dict[int, list[dict]], path) -> None:
    """Flush recorder contents as JSON lines: one meta line, then events."""
    ranks = sorted(events_by_rank)
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {
                    "schema": FLIGHT_SCHEMA,
                    "ranks": ranks,
                    "events": sum(len(events_by_rank[r]) for r in ranks),
                },
                sort_keys=True,
            )
            + "\n"
        )
        for rank in ranks:
            for event in events_by_rank[rank]:
                fh.write(json.dumps(event, sort_keys=True) + "\n")


def read_flight_jsonl(path) -> dict[int, list[dict]]:
    """Load a flushed flight file back into ``rank -> events``."""
    events: dict[int, list[dict]] = {}
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != FLIGHT_SCHEMA:
            raise ValueError(
                f"{path}: unknown flight schema {header.get('schema')!r}"
            )
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            events.setdefault(int(event.get("rank", 0)), []).append(event)
    return events
